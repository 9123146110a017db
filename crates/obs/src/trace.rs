//! Cheap structured tracing: thread-local span stacks, bounded
//! per-thread collection, Chrome `trace_event` export.
//!
//! ## Design
//!
//! The hot path is [`Span::enter`] / [`Span`]'s `Drop`. When tracing is
//! disabled (the default) `enter` is one relaxed atomic load and `Drop`
//! is a branch on a `None` — cheap enough to leave in sketch builds and
//! HNSW beams permanently. When enabled, a span costs roughly two
//! `Instant::now()` calls plus one push into a **per-thread** buffer:
//! recording never touches a lock another recording thread could hold
//! (each thread owns its buffer; the buffer's mutex is only contended by
//! [`drain`], and even then the recorder uses `try_lock` and drops the
//! record rather than block).
//!
//! Buffers are bounded ([`enable_with_capacity`]); once a thread's
//! buffer is full further spans are counted in [`dropped`] instead of
//! growing memory — a trace of a 100k-table ingest degrades gracefully
//! instead of OOMing. Buffers of exited threads stay registered (the
//! `Arc` keeps them alive) so their spans still appear in the export;
//! the registry grows with the number of threads that ever traced,
//! which is bounded by the worker pools in this workspace.
//!
//! Timestamps are offsets from a process-wide monotonic epoch pinned at
//! the first [`enable`], so spans from different threads line up on one
//! Chrome-trace timeline.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread span capacity (~1.5 MiB of records per thread at
/// 48 bytes each).
pub const DEFAULT_CAPACITY: usize = 1 << 15;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// One completed span, as recorded by a [`Span`] guard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static stage name (e.g. `"query.join"`, `"hnsw.beam"`).
    pub name: &'static str,
    /// Small dense id of the recording thread (assigned on first span).
    pub tid: u32,
    /// Start offset from the trace epoch, microseconds.
    pub ts_us: u64,
    /// Wall-clock duration, microseconds.
    pub dur_us: u64,
    /// Nesting depth at entry (1 = top-level span on its thread).
    pub depth: u16,
}

/// The process-wide monotonic zero of the trace timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct ThreadBuf {
    records: Mutex<Vec<SpanRecord>>,
}

/// Every per-thread buffer ever registered, for [`drain`] to sweep.
fn sinks() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static SINKS: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// Current span nesting depth on this thread (the span "stack").
    static DEPTH: Cell<u16> = const { Cell::new(0) };
    /// This thread's dense trace id; 0 = not yet assigned.
    static TID: Cell<u32> = const { Cell::new(0) };
    /// This thread's record buffer, registered in [`sinks`] on first use.
    static BUF: RefCell<Option<Arc<ThreadBuf>>> = const { RefCell::new(None) };
}

/// Turn tracing on with [`DEFAULT_CAPACITY`] records per thread.
pub fn enable() {
    enable_with_capacity(DEFAULT_CAPACITY);
}

/// Turn tracing on, bounding each thread's buffer to `per_thread`
/// records (spans past the bound are counted in [`dropped`], not kept).
pub fn enable_with_capacity(per_thread: usize) {
    let _ = epoch(); // pin the timeline zero before the first span
    CAPACITY.store(per_thread.max(1), Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn tracing off. Spans already in flight still record on drop;
/// buffered records stay available to [`drain`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Spans discarded because a thread buffer was full (or being drained).
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

fn current_tid() -> u32 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

fn record(rec: SpanRecord) {
    let stored = BUF.with(|b| {
        let mut slot = b.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf = Arc::new(ThreadBuf { records: Mutex::new(Vec::new()) });
            crate::sync::lock_unpoisoned(sinks()).push(buf.clone());
            buf
        });
        // try_lock: the only other holder is a concurrent drain/export;
        // dropping one record beats blocking a hot path on it.
        let stored = match buf.records.try_lock() {
            Ok(mut v) => {
                if v.len() < CAPACITY.load(Ordering::Relaxed) {
                    v.push(rec);
                    true
                } else {
                    false
                }
            }
            Err(_) => false,
        };
        stored
    });
    if !stored {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// An RAII span guard — construct via the [`crate::span!`] macro. When
/// tracing is disabled at entry this is inert (no timestamp, no record).
pub struct Span {
    name: &'static str,
    /// When the span started, if tracing was on at entry.
    pub(crate) start: Option<Instant>,
}

impl Span {
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        if !ENABLED.load(Ordering::Relaxed) {
            return Span { name, start: None };
        }
        Self::enter_enabled(name)
    }

    #[cold]
    fn enter_enabled(name: &'static str) -> Span {
        DEPTH.with(|d| d.set(d.get().saturating_add(1)));
        Span { name, start: Some(Instant::now()) }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_us = start.elapsed().as_micros() as u64;
        let ts_us = start.saturating_duration_since(epoch()).as_micros() as u64;
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v.saturating_sub(1));
            v
        });
        record(SpanRecord { name: self.name, tid: current_tid(), ts_us, dur_us, depth });
    }
}

/// Take every buffered record out of every thread buffer, oldest first.
/// Recording may continue concurrently; records landing during the sweep
/// are picked up by the next drain (or dropped via `try_lock` if they
/// race the sweep of their own buffer).
pub fn drain() -> Vec<SpanRecord> {
    let sinks = crate::sync::lock_unpoisoned(sinks());
    let mut out = Vec::new();
    for s in sinks.iter() {
        out.append(&mut crate::sync::lock_unpoisoned(&s.records));
    }
    // Chronological, parents before their children (a parent shares its
    // child's start to the microsecond but lasts longer).
    out.sort_by(|a, b| {
        (a.ts_us, a.tid, b.dur_us, a.depth).cmp(&(b.ts_us, b.tid, a.dur_us, b.depth))
    });
    out
}

fn escape(s: &str) -> String {
    // Span names are static identifiers; escaping quote/backslash keeps
    // the output valid JSON even for an unusual name.
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render records as Chrome `trace_event` JSON (the
/// `{"traceEvents":[...]}` object form): complete events (`"ph":"X"`)
/// with microsecond `ts`/`dur`, one Chrome "thread" per recording
/// thread. Loads directly into `chrome://tracing` or Perfetto.
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut events = String::with_capacity(records.len() * 96 + 64);
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            events.push(',');
        }
        events.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"tsfm\",\"ph\":\"X\",\"pid\":1,\
             \"tid\":{},\"ts\":{},\"dur\":{}}}",
            escape(r.name),
            r.tid,
            r.ts_us,
            r.dur_us
        ));
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{events}]}}")
}

/// [`drain`] + [`chrome_trace_json`] in one call.
pub fn export_chrome_trace() -> String {
    chrome_trace_json(&drain())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing state is process-global; tests that flip it or drain must
    /// not interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: Mutex<()> = Mutex::new(());
        M.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = lock();
        disable();
        drain();
        {
            let _s = crate::span!("test.disabled");
        }
        assert!(
            drain().iter().all(|r| r.name != "test.disabled"),
            "disabled span must not be recorded"
        );
    }

    #[test]
    fn enabled_spans_nest_and_time() {
        let _g = lock();
        enable();
        drain();
        {
            let _outer = crate::span!("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = crate::span!("test.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        disable();
        let recs = drain();
        let outer = recs.iter().find(|r| r.name == "test.outer").expect("outer recorded");
        let inner = recs.iter().find(|r| r.name == "test.inner").expect("inner recorded");
        assert_eq!(inner.depth, outer.depth + 1, "inner nests under outer");
        assert!(outer.dur_us >= inner.dur_us, "outer contains inner");
        assert!(inner.ts_us >= outer.ts_us, "inner starts after outer");
        assert!(outer.dur_us >= 3_000, "outer spans both sleeps: {}µs", outer.dur_us);
        assert_eq!(inner.tid, outer.tid);
    }

    #[test]
    fn threads_get_distinct_tids_and_all_records_survive() {
        let _g = lock();
        enable();
        drain();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let _s = crate::span!("test.mt");
                    }
                });
            }
        });
        disable();
        let recs: Vec<SpanRecord> =
            drain().into_iter().filter(|r| r.name == "test.mt").collect();
        assert_eq!(recs.len(), 200);
        let tids: std::collections::BTreeSet<u32> = recs.iter().map(|r| r.tid).collect();
        assert_eq!(tids.len(), 4, "one trace tid per thread: {tids:?}");
    }

    #[test]
    fn capacity_bounds_memory_and_counts_drops() {
        let _g = lock();
        enable_with_capacity(8);
        drain();
        let before = dropped();
        for _ in 0..100 {
            let _s = crate::span!("test.bounded");
        }
        disable();
        let kept = drain().into_iter().filter(|r| r.name == "test.bounded").count();
        assert_eq!(kept, 8, "buffer bounded at capacity");
        assert!(dropped() >= before + 92, "overflow counted");
        enable_with_capacity(DEFAULT_CAPACITY);
        disable();
    }

    #[test]
    fn chrome_export_shape() {
        let recs = vec![
            SpanRecord { name: "a", tid: 1, ts_us: 0, dur_us: 10, depth: 1 },
            SpanRecord { name: "b\"q", tid: 2, ts_us: 5, dur_us: 2, depth: 1 },
        ];
        let json = chrome_trace_json(&recs);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"a\""));
        assert!(json.contains("\"name\":\"b\\\"q\""), "names are escaped: {json}");
        assert!(json.contains("\"tid\":2"));
        assert!(json.ends_with("]}"));
    }
}
