//! `tsfm_obs` — std-only observability for the tsfm workspace.
//!
//! This crate sits at the very bottom of the dependency graph (it depends
//! on nothing, not even the other tsfm crates) so that every layer —
//! sketching, the HNSW index, the persistent store, the serve frontend,
//! the CLI — can instrument itself without cycles. crates.io is
//! unreachable in this environment, so everything is hand-rolled on
//! `std`, in the same spirit as the hand-rolled JSON in `tsfm_store`.
//!
//! Four facilities:
//!
//! * [`trace`] — structured tracing spans. `let _g = span!("stage");`
//!   costs one relaxed atomic load when tracing is disabled and roughly
//!   two `Instant::now()` calls when enabled. Completed spans land in
//!   bounded per-thread buffers (recording never takes a shared lock)
//!   and export as Chrome `trace_event` JSON that loads straight into
//!   `chrome://tracing` / Perfetto.
//! * [`metrics`] — registries of named counters, gauges, and
//!   log-bucketed latency histograms: the process-wide [`metrics::global`]
//!   one, declared through [`instruments!`], and one per server.
//!   Recording is plain relaxed atomics; a registry renders Prometheus
//!   text exposition. [`Histogram::time`] times a scope into a histogram
//!   and a span of the same scope with one guard.
//! * [`slowlog`] — a bounded, always-sorted log of the slowest
//!   operations with their per-stage breakdowns, behind an atomic
//!   admission floor so fast requests pay one relaxed load.
//! * [`sync`] — poison-tolerant lock helpers. One panicking thread must
//!   not cascade into every other thread that shares a lock; all tsfm
//!   crates lock through these.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod slowlog;
pub mod sync;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use slowlog::{SlowEntry, Slowlog};
pub use sync::{lock_unpoisoned, read_unpoisoned, wait_timeout_unpoisoned, write_unpoisoned};
pub use trace::{Span, SpanRecord};

/// RAII tracing guard: `let _g = tsfm_obs::span!("query.join");`.
///
/// Near-free when tracing is disabled (a single relaxed atomic load);
/// when enabled, the guard stamps `Instant::now()` on entry and records
/// a completed [`trace::SpanRecord`] on drop. Bind it to a named `_g` —
/// a bare `_` drops immediately and times nothing.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::Span::enter($name)
    };
}
