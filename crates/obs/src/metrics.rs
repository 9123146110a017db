//! Registries of named instruments — counters, gauges, and log-bucketed
//! latency histograms — with Prometheus text exposition.
//!
//! Recording is plain relaxed atomics: once a call site holds its
//! `Arc<Counter>` (usually cached in a `OnceLock`, see [`instruments!`]),
//! bumping it costs one `fetch_add`, with no lock and no registry lookup.
//! The registry's `RwLock` is only taken to register a new name or render
//! exposition.
//!
//! A name may end in one label set, `family{key="value"}`: members of a
//! family share one `# HELP` / `# TYPE` header in the exposition.
//!
//! ## Histogram shape
//!
//! Values are recorded in whole microseconds. Values below 64µs get one
//! bucket each (exact); above that, buckets are logarithmic with 32
//! sub-buckets per power of two, so the relative quantization error of a
//! reported percentile is bounded by ~3%. Values are clamped to ~2^40µs
//! (≈13 days), far beyond any plausible request latency.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Exact buckets for 0..LINEAR_MAX µs.
const LINEAR_MAX: u64 = 64;
/// log2(LINEAR_MAX): first exponent handled logarithmically.
const LINEAR_EXP: u32 = 6;
/// Sub-buckets per power of two in the logarithmic range.
const SUBS: u64 = 32;
const SUB_BITS: u32 = 5;
/// Largest exponent tracked; larger values clamp into the last bucket.
const MAX_EXP: u32 = 40;
const NUM_BUCKETS: usize =
    LINEAR_MAX as usize + ((MAX_EXP - LINEAR_EXP) as usize + 1) * SUBS as usize;

/// A monotonically increasing event count. Wait-free from any thread.
#[derive(Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A signed point-in-time value (queue depths, resident counts).
#[derive(Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A fixed-size, lock-free log-bucketed histogram of microsecond
/// values. `record` is wait-free (two relaxed increments and a
/// `fetch_max`); percentile extraction walks the bucket array.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn bucket_index(micros: u64) -> usize {
        if micros < LINEAR_MAX {
            return micros as usize;
        }
        let exp = (63 - micros.leading_zeros()).min(MAX_EXP);
        let sub = if exp >= MAX_EXP {
            SUBS - 1 // clamp: everything past 2^40µs lands in the top bucket
        } else {
            (micros >> (exp - SUB_BITS)) & (SUBS - 1)
        };
        LINEAR_MAX as usize + ((exp - LINEAR_EXP) as usize) * SUBS as usize + sub as usize
    }

    /// Lower edge of a bucket — what `percentile` reports. Reporting the
    /// lower edge (not the midpoint) keeps sub-64µs percentiles exact and
    /// never over-states a latency.
    fn bucket_floor(index: usize) -> u64 {
        if index < LINEAR_MAX as usize {
            return index as u64;
        }
        let b = index - LINEAR_MAX as usize;
        let exp = LINEAR_EXP + (b / SUBS as usize) as u32;
        let sub = (b % SUBS as usize) as u64;
        (1u64 << exp) + (sub << (exp - SUB_BITS))
    }

    /// Record one value. Wait-free; safe from any thread.
    pub fn record(&self, micros: u64) {
        self.buckets[Self::bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(micros, Ordering::Relaxed);
        self.max.fetch_max(micros, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (µs).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean value in µs (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in µs, or 0 when empty. Reported
    /// from bucket lower edges: exact below 64µs, within ~3% above.
    pub fn percentile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        // Rank of the percentile observation, 1-based, clamped to [1, n].
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Self::bucket_floor(i);
            }
        }
        // Writers raced past the count we loaded; the max is the honest
        // answer for "the highest latency seen".
        self.max()
    }

    /// Time the rest of the scope into this histogram, and into a trace
    /// span named `span` while tracing is on: one guard, one clock read
    /// at entry. Bind it to a named `_t`, as with [`crate::span!`].
    pub fn time(&self, span: &'static str) -> Timer<'_> {
        let span = crate::trace::Span::enter(span);
        Timer { hist: Some(self), start: span.start.unwrap_or_else(Instant::now), _span: span }
    }
}

/// The guard [`Histogram::time`] returns: records the scope's µs on drop,
/// before its span closes.
pub struct Timer<'a> {
    hist: Option<&'a Histogram>,
    start: Instant,
    _span: crate::trace::Span,
}

impl Timer<'_> {
    /// Close the span without recording into the histogram: the timed
    /// stage turned out not to run (an index update the engine declined).
    pub fn discard(mut self) {
        self.hist = None;
    }
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        if let Some(hist) = self.hist {
            hist.record(self.start.elapsed().as_micros() as u64);
        }
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    /// The exposition `# TYPE`: histograms render as summaries.
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "summary",
        }
    }
}

struct Entry {
    help: String,
    inst: Instrument,
}

/// A named-instrument registry. Most code uses the process-wide
/// [`global`] registry; a server keeps one of its own so two servers in
/// one process never mix their counts.
///
/// `counter`/`gauge`/`histogram` are get-or-register: the first call for
/// a name creates the instrument, later calls (from any thread) return
/// the same one. Asking for a name of an existing family as a *different*
/// kind is a programmer error and panics.
#[derive(Default)]
pub struct Registry {
    inner: RwLock<BTreeMap<String, Entry>>,
}

/// The process-wide registry every tsfm crate records into.
pub fn global() -> &'static Registry {
    static R: OnceLock<Registry> = OnceLock::new();
    R.get_or_init(Registry::default)
}

/// `family{key="value"}` → (`family`, `{key="value"}`); no labels → (`name`, "").
fn split_labels(name: &str) -> (&str, &str) {
    name.find('{').map_or((name, ""), |i| name.split_at(i))
}

/// A Prometheus metric name, `[a-zA-Z_:][a-zA-Z0-9_:]*`, optionally
/// followed by one `{key="value"}` label set.
fn valid_name(name: &str) -> bool {
    let ident = |s: &str| {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let (family, labels) = split_labels(name);
    let inner = labels.strip_prefix('{').and_then(|l| l.strip_suffix("\"}"));
    let pair = inner.and_then(|l| l.split_once("=\""));
    ident(family)
        && (labels.is_empty() || pair.is_some_and(|(k, v)| ident(k) && !v.contains(['"', '\\', '\n'])))
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_register<T>(
        &self,
        name: &str,
        help: &str,
        project: impl Fn(&Instrument) -> Option<Arc<T>>,
        make: impl FnOnce() -> Instrument,
    ) -> Arc<T> {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mismatch = |e: &Entry| {
            // tsfm_lint: allow(no-unwrap-in-lib, "kind mismatch is a compile-time wiring bug caught by the first scrape in any test or dev run; limping on with a mistyped instrument would silently corrupt the metric")
            panic!("metric {name:?} already registered as a {}", e.inst.kind())
        };
        // Fast path: the instrument exists, a read lock suffices.
        if let Some(e) = crate::sync::read_unpoisoned(&self.inner).get(name) {
            return project(&e.inst).unwrap_or_else(|| mismatch(e));
        }
        let mut w = crate::sync::write_unpoisoned(&self.inner);
        // Re-check under the write lock: another thread may have won the
        // registration race between our read and write. Every member of a
        // family must be of one kind: they render under one TYPE.
        let family = split_labels(name).0;
        let other_kind = w.iter().find(|(n, e)| split_labels(n).0 == family && project(&e.inst).is_none());
        if let Some((_, e)) = other_kind {
            mismatch(e);
        }
        let e = w
            .entry(name.to_string())
            .or_insert_with(|| Entry { help: help.to_string(), inst: make() });
        project(&e.inst).unwrap_or_else(|| mismatch(e))
    }

    /// Get or register a counter. `help` is kept from the first
    /// registration.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let project = |i: &Instrument| if let Instrument::Counter(c) = i { Some(c.clone()) } else { None };
        self.get_or_register(name, help, project, || Instrument::Counter(Arc::default()))
    }

    /// Get or register a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let project = |i: &Instrument| if let Instrument::Gauge(g) = i { Some(g.clone()) } else { None };
        self.get_or_register(name, help, project, || Instrument::Gauge(Arc::default()))
    }

    /// Get or register a latency histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let project =
            |i: &Instrument| if let Instrument::Histogram(h) = i { Some(h.clone()) } else { None };
        self.get_or_register(name, help, project, || Instrument::Histogram(Arc::default()))
    }

    /// Registered names, sorted (the registry map is a `BTreeMap`).
    pub fn names(&self) -> Vec<String> {
        crate::sync::read_unpoisoned(&self.inner).keys().cloned().collect()
    }

    /// Render every instrument as Prometheus text exposition
    /// (`text/plain; version=0.0.4`), one `# HELP` / `# TYPE` per family,
    /// help from its first member. Histograms render as summaries
    /// (`{quantile="..."}` series plus `_sum`/`_count`), since the
    /// log-bucket layout already gives ~3%-accurate quantiles
    /// server-side.
    pub fn prometheus_text(&self) -> String {
        let inner = crate::sync::read_unpoisoned(&self.inner);
        let mut families: BTreeMap<&str, Vec<(&str, &Entry)>> = BTreeMap::new();
        for (name, e) in inner.iter() {
            let (family, labels) = split_labels(name);
            families.entry(family).or_default().push((labels, e));
        }
        let mut out = String::new();
        for (name, members) in families {
            let first = &members[0].1;
            let help = first.help.replace('\\', "\\\\").replace('\n', "\\n");
            let kind = first.inst.kind();
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            for (labels, e) in members {
                match &e.inst {
                    Instrument::Counter(c) => out.push_str(&format!("{name}{labels} {}\n", c.get())),
                    Instrument::Gauge(g) => out.push_str(&format!("{name}{labels} {}\n", g.get())),
                    Instrument::Histogram(h) => {
                        let inner = labels.trim_start_matches('{').trim_end_matches('}');
                        let sep = if inner.is_empty() { "" } else { "," };
                        for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
                            let v = h.percentile(q);
                            out.push_str(&format!("{name}{{{inner}{sep}quantile=\"{label}\"}} {v}\n"));
                        }
                        out.push_str(&format!("{name}_sum{labels} {}\n", h.sum()));
                        out.push_str(&format!("{name}_count{labels} {}\n", h.count()));
                    }
                }
            }
        }
        out
    }
}

/// Declare instruments once, in the `&'static Registry` `$reg`: each entry
/// becomes a fn returning its handle — registered on the first call,
/// cached after it, so a hot path pays one atomic load and no lookup —
/// and `fn $all()` registers every entry, so each series is exported (at
/// zero) before its first event.
///
/// ```
/// tsfm_obs::instruments! {
///     in tsfm_obs::metrics::global(), fn register_all;
///     /// Widgets made.
///     pub fn widgets() -> Counter = ("tsfm_widgets_total", "Widgets made");
/// }
/// register_all();
/// widgets().inc();
/// assert!(tsfm_obs::metrics::global().prometheus_text().contains(" Widgets made\n"));
/// ```
#[macro_export]
macro_rules! instruments {
    (in $reg:expr, fn $all:ident; $(
        $(#[$attr:meta])* $vis:vis fn $f:ident() -> $kind:ident = ($name:literal, $help:literal);
    )*) => {
        $(
            $(#[$attr])*
            $vis fn $f() -> &'static ::std::sync::Arc<$crate::metrics::$kind> {
                static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::$kind>> =
                    ::std::sync::OnceLock::new();
                CELL.get_or_init(|| $crate::instruments!(@get $reg, $kind, $name, $help))
            }
        )*
        fn $all() {
            $( $f(); )*
        }
    };
    (@get $reg:expr, Counter, $name:expr, $help:expr) => { $reg.counter($name, $help) };
    (@get $reg:expr, Gauge, $name:expr, $help:expr) => { $reg.gauge($name, $help) };
    (@get $reg:expr, Histogram, $name:expr, $help:expr) => { $reg.histogram($name, $help) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_range_in_order() {
        // Every representative value maps into a bucket whose floor is
        // ≤ the value, and bucket indexes are monotone in the value.
        let mut last = 0usize;
        for v in (0..200u64).chain([255, 256, 1000, 65_535, 1 << 20, 1 << 35, u64::MAX]) {
            let i = Histogram::bucket_index(v);
            assert!(i < NUM_BUCKETS, "v={v} i={i}");
            assert!(i >= last, "bucket index must not decrease: v={v}");
            assert!(Histogram::bucket_floor(i) <= v, "floor > value for {v}");
            last = i;
        }
        // Sub-64µs values are exact.
        for v in 0..LINEAR_MAX {
            let i = Histogram::bucket_index(v);
            assert_eq!(Histogram::bucket_floor(i), v);
        }
    }

    #[test]
    fn percentiles_exact_in_linear_range() {
        let h = Histogram::new();
        for v in 1..=50u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 50);
        assert_eq!(h.sum(), 25 * 51);
        assert_eq!(h.percentile(0.5), 25);
        assert_eq!(h.percentile(0.02), 1);
        assert_eq!(h.percentile(1.0), 50);
        assert_eq!(h.max(), 50);
        assert!((h.mean() - 25.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_bounded_error_in_log_range() {
        let h = Histogram::new();
        // Uniform 1..=100_000 µs: p50 ≈ 50_000, p99 ≈ 99_000.
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, want) in [(0.5, 50_000.0), (0.95, 95_000.0), (0.99, 99_000.0)] {
            let got = h.percentile(q) as f64;
            let rel = (got - want).abs() / want;
            assert!(rel < 0.04, "q={q}: got {got}, want ~{want} (rel {rel:.3})");
        }
        assert_eq!(h.percentile(1.0 / 100_000.0), 1);
    }

    #[test]
    fn huge_values_clamp_instead_of_indexing_out_of_bounds() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(1 << 50);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.percentile(0.5) >= 1 << MAX_EXP);
    }

    #[test]
    fn registry_get_or_register_returns_the_same_instrument() {
        let r = Registry::new();
        let a = r.counter("tsfm_test_total", "a test counter");
        let b = r.counter("tsfm_test_total", "ignored duplicate help");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4, "both handles hit the same counter");
        assert_eq!(r.names(), vec!["tsfm_test_total".to_string()]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("tsfm_test_total", "a counter");
        r.gauge("tsfm_test_total", "now a gauge?");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn registry_rejects_invalid_names() {
        Registry::new().counter("not a metric name", "spaces are invalid");
    }

    #[test]
    fn labeled_members_share_one_family_header() {
        let r = Registry::new();
        r.counter("tsfm_req_total{outcome=\"ok\"}", "requests").add(2);
        r.counter("tsfm_req_total{outcome=\"error\"}", "requests").inc();
        r.counter("tsfm_req_total_x", "a neighbour, not a member");
        r.histogram("tsfm_lat_us{mode=\"join\"}", "latency").record(5);
        let text = r.prometheus_text();
        assert_eq!(text.matches("# TYPE tsfm_req_total counter\n").count(), 1, "{text}");
        assert_eq!(text.matches("# HELP tsfm_req_total requests\n").count(), 1, "{text}");
        assert!(text.contains("tsfm_req_total{outcome=\"error\"} 1\ntsfm_req_total{outcome=\"ok\"} 2\n"));
        assert!(text.contains("# TYPE tsfm_req_total_x counter\ntsfm_req_total_x 0\n"));
        assert!(text.contains("tsfm_lat_us{mode=\"join\",quantile=\"0.5\"} 5\n"), "{text}");
        assert!(text.contains("tsfm_lat_us_sum{mode=\"join\"} 5\n"), "{text}");
    }

    #[test]
    fn label_sets_are_validated() {
        assert!(valid_name("tsfm_x_total{reason=\"slow_read\"}"));
        for bad in ["tsfm_x{}", "tsfm_x{reason}", "tsfm_x{1a=\"b\"}", "tsfm_x{a=\"b\"c\"}", "{a=\"b\"}"] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn a_family_has_one_kind() {
        let r = Registry::new();
        r.counter("tsfm_x_total{a=\"1\"}", "a counter");
        r.gauge("tsfm_x_total{a=\"2\"}", "now a gauge?");
    }

    #[test]
    fn a_timer_records_its_scope_once() {
        let h = Histogram::new();
        {
            let _t = h.time("test.timer");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 2_000, "{}µs", h.max());
        h.time("test.timer").discard();
        assert_eq!(h.count(), 1, "a discarded timer records nothing");
    }

    #[test]
    fn prometheus_text_renders_every_kind() {
        let r = Registry::new();
        r.counter("tsfm_events_total", "events").add(7);
        r.gauge("tsfm_queue_depth", "queue depth").set(-2);
        let h = r.histogram("tsfm_latency_us", "latency");
        h.record(10);
        h.record(30);
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE tsfm_events_total counter\ntsfm_events_total 7\n"));
        assert!(text.contains("# TYPE tsfm_queue_depth gauge\ntsfm_queue_depth -2\n"));
        assert!(text.contains("# TYPE tsfm_latency_us summary\n"));
        assert!(text.contains("tsfm_latency_us{quantile=\"0.5\"} 10\n"));
        assert!(text.contains("tsfm_latency_us_sum 40\n"));
        assert!(text.contains("tsfm_latency_us_count 2\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {line:?}");
            assert!(parts.next().is_some(), "no name in {line:?}");
        }
    }
}
