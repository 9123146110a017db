//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files only, around the calls
//! into each layer's public functions (spans inside the library are a
//! later change). A span carries a name, start, end, the span that caused
//! it, and the id of the operation (table or request) it belongs to.
//! Spans stay in memory until the run ends, then go out as Chrome
//! `trace_event` JSON (open in `chrome://tracing` or Perfetto).
//!
//! A layer's **self time** is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The table or request this span belongs to; spans of one operation
    /// share it.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate over a recorder's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTotal {
    /// Mean self time per span, in microseconds.
    pub fn self_us_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e3 / self.count as f64
        }
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    /// An empty recorder on this one's clock, for an attempt that may be
    /// thrown away: its spans can be [`absorb`](Recorder::absorb)ed as
    /// they are.
    pub fn attempt(&self) -> Self {
        Self { epoch: self.epoch, spans: Vec::new() }
    }

    /// The instant every span time counts from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let t = self.now_ns();
        self.spans.push(Span { name, start_ns: t, end_ns: t, parent, op });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let t = self.now_ns();
        self.spans[id].end_ns = t;
    }

    /// Record `f` as one span and return its result and duration (ns).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        (out, self.spans[id].duration_ns())
    }

    /// Insert a span with explicit times (ns since [`epoch`](Recorder::epoch))
    /// — used for spans timed elsewhere (client threads) and to lay a
    /// profiled stage breakdown reported by the program under its caller's
    /// span.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append the spans of an [`attempt`](Recorder::attempt) — same clock,
    /// so times stay as recorded — keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        debug_assert_eq!(self.epoch, other.epoch, "absorb takes recorders on one clock");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }));
    }

    /// Self time of every span: duration minus the union of its direct
    /// children's intervals (clipped to the span, so an overlapping or
    /// overhanging child can never drive self time negative).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.duration_ns();
            e.self_ns += self_ns;
        }
        out
    }

    /// Chrome `trace_event` JSON: complete (`"ph":"X"`) events, timestamps
    /// in microseconds, one `tid` per operation so an operation's spans
    /// nest on one track.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{}}}}}",
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op: 7 }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut r = Recorder::new();
        let root = r.push(span("op", 0, 100, None));
        r.push(span("a", 10, 30, Some(root)));
        r.push(span("b", 40, 70, Some(root)));
        let selfs = r.self_times_ns();
        assert_eq!(selfs, vec![50, 20, 30]);
        // Stages + the parent's self time sum back to the whole.
        assert_eq!(selfs.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let mut r = Recorder::new();
        let root = r.push(span("op", 100, 200, None));
        r.push(span("a", 90, 150, Some(root))); // starts before the parent
        r.push(span("b", 140, 260, Some(root))); // overlaps a, ends after
        assert_eq!(r.self_times_ns()[0], 0, "children cover the whole parent");
        let mut r = Recorder::new();
        let root = r.push(span("op", 0, 100, None));
        let mid = r.push(span("mid", 10, 90, Some(root)));
        r.push(span("leaf", 20, 40, Some(mid))); // grandchild: not root's child
        assert_eq!(r.self_times_ns(), vec![20, 60, 20]);
    }

    #[test]
    fn absorb_keeps_parent_links_and_the_one_clock() {
        let mut a = Recorder::new();
        a.push(span("first", 0, 50, None));
        let mut b = a.attempt();
        assert_eq!(b.epoch(), a.epoch());
        let root = b.push(span("op", 60, 160, None));
        b.push(span("leaf", 70, 90, Some(root)));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!((a.spans()[1].start_ns, a.spans()[1].end_ns), (60, 160), "times stay as recorded");
        assert_eq!(a.self_times_ns(), vec![50, 80, 20]);
    }

    #[test]
    fn totals_group_by_name() {
        let mut r = Recorder::new();
        for op in 0..3u64 {
            let root = r.push(Span { name: "op", start_ns: 0, end_ns: 10, parent: None, op });
            r.push(Span { name: "leaf", start_ns: 2, end_ns: 6, parent: Some(root), op });
        }
        let t = r.totals();
        assert_eq!(t["op"], LayerTotal { count: 3, total_ns: 30, self_ns: 18 });
        assert_eq!(t["leaf"], LayerTotal { count: 3, total_ns: 12, self_ns: 12 });
        assert!((t["leaf"].self_us_per_call() - 0.004).abs() < 1e-12);
    }

    #[test]
    fn chrome_json_parses_with_the_stores_parser() {
        let mut r = Recorder::new();
        let ((), ns) = r.time("outer", None, 1, || std::hint::black_box(()));
        assert_eq!(ns, r.spans()[0].duration_ns());
        let json = tsfm_store::wire::parse_json(&r.chrome_json()).unwrap();
        assert!(json.get("traceEvents").is_some());
    }
}
