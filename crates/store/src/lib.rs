//! Persistent data-lake discovery index (`tsfm_store`).
//!
//! Everything upstream of this crate — sketches, embeddings, HNSW, LSH —
//! lives in process memory; this crate makes the serving path durable and
//! concurrent so index build cost is paid once and amortized across
//! queries:
//!
//! * [`error`] — the typed [`StoreError`] taxonomy (`Io`, `Corrupt`,
//!   `UnknownTable`, `InvalidRequest`, `EmptyIndex`) every fallible
//!   operation returns;
//! * [`ser`] — versioned little-endian binary serialization (the
//!   `TSFMCKP1` idiom of `tsfm_nn::io`) for MinHash / numerical / table
//!   sketches, embedding matrices, and HNSW graphs, with magic bytes,
//!   CRC32C-checksummed v2 frames, bounds checks, and typed `Corrupt`
//!   errors on bad input;
//! * [`durable`] — the crash-safety layer every store write goes
//!   through: CRC32C, the write-tmp → fsync → rename → dir-sync commit
//!   protocol, offset-attributed checked reads, and the fault-injection
//!   hook the crash-point tests drive;
//! * [`fsck`] — offline verification and repair behind `tsfm fsck`:
//!   every checksum verified, orphaned/missing runs, segments and shards
//!   and stale index caches detected, damage reported as structured JSON,
//!   `--repair` dropping bad records, quarantining damaged files and
//!   rebuilding derived state;
//! * [`TableRecord`] — the unit of storage: one table's sketch bundle,
//!   optional neural embeddings, and the content hash of its source;
//! * [`Catalog`] — a directory-backed catalog with incremental ingest
//!   (unchanged sources are detected by content hash and skipped), an
//!   epoch counter bumped by every mutation, and an on-disk index cache;
//! * [`shard`] — the million-table layer: hash-partitioned shard
//!   manifests (`TSFMSHD1`) plus flat sketch arenas (`TSFMARN1`) read by
//!   positioned I/O, so opening a compacted catalog is O(shards) and
//!   lazy snapshots load sketches on demand through an LRU cache;
//! * [`Searcher`] — the read path: an immutable `Send + Sync` snapshot
//!   ([`Arc`](std::sync::Arc)-shared [`QueryEngine`] + corpus sketches)
//!   taken via [`Catalog::searcher`], queried concurrently without locks;
//! * [`DiscoveryRequest`] / [`DiscoveryResponse`] — the validated
//!   request builder (mode, k, min_score, exclude_self, column filter,
//!   explain) and the typed response (ranked [`TableHit`]s, per-query
//!   timing, optional per-column match explanations);
//! * [`QueryEngine`] — deterministic join / union / subset ranking over a
//!   record set, reusing the Fig.-6 algorithm of [`tsfm_search::rank`];
//!   the same engine serves the in-memory pipeline and the catalog, which
//!   is what makes a fresh catalog build answer identically to an
//!   in-memory one, and a reopen identically to the engine it persisted
//!   (an incrementally updated one included);
//! * [`wire`] — the hand-rolled JSON layer shared by `tsfm query --json`
//!   and the `tsfm serve` JSONL-over-TCP protocol;
//! * [`serve`] — the production serve frontend: a bounded worker pool
//!   with accept-queue shedding, per-connection read/write timeouts and a
//!   request-line cap, pipelining, graceful shutdown, catalog hot-swap,
//!   and the `stats` / `metrics` / `slowlog` ops verbs, read from the
//!   server's own [`tsfm_obs::Registry`].
//!
//! The `tsfm` CLI binary (in the umbrella crate) drives this end to end
//! over directories of real CSV files: `tsfm ingest <catalog> <dir>`,
//! `tsfm query <catalog> <csv>`, `tsfm serve <catalog> --port N`,
//! `tsfm stats <catalog>`.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod durable;
pub mod engine;
pub mod error;
pub mod fsck;
pub mod record;
pub mod request;
pub mod searcher;
pub mod ser;
pub mod serve;
pub mod shard;
pub mod wire;

pub use catalog::{Catalog, CatalogStats, IngestOutcome, IngestReport, ManifestEntry, SnapshotMode};
pub use fsck::{FsckReport, IndexCacheState, Problem, ProblemKind, RepairSummary};
pub use engine::{QueryEngine, QueryMode, SpanMeta, TableHit};
pub use error::{StoreError, StoreResult};
pub use record::TableRecord;
pub use request::{
    ColumnMatch, DiscoveryRequest, DiscoveryRequestBuilder, DiscoveryResponse, HitExplanation,
};
pub use searcher::Searcher;
pub use serve::{MetricsSnapshot, ServeConfig, Server, ServerHandle};
pub use wire::{ServeCommand, ServeRequest};

/// Run `work(0..n)` across `threads` workers (atomic work-stealing, scoped
/// threads), returning outputs in index order. `0` / `1` threads or a
/// single job runs inline. `work`'s output must not depend on the order
/// jobs run in: the ingest pool applies its outputs serially in input
/// order, so the catalog ends up byte-identical to a serial ingest at any
/// thread count, and a batch search answers as the serial loop does. A
/// panicking worker discards the batch as a typed
/// [`StoreError::Internal`] instead of unwinding into the caller.
pub(crate) fn parallel_map<T: Send>(
    n: usize,
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
) -> StoreResult<Vec<T>> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    if threads <= 1 || n <= 1 {
        return Ok((0..n).map(work).collect());
    }
    let next = AtomicUsize::new(0);
    let mut panicked = 0usize;
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, work(i)));
                    }
                    out
                })
            })
            .collect();
        // Join every handle even after a panic: consuming each payload
        // here keeps the scope from re-raising it, and the surviving
        // workers' results let us report how much work was lost.
        let mut all = Vec::new();
        for h in handles {
            match h.join() {
                Ok(part) => all.extend(part),
                Err(_) => panicked += 1,
            }
        }
        all
    });
    if panicked > 0 {
        return Err(StoreError::internal(format!(
            "{panicked} worker(s) panicked; batch discarded ({} of {n} jobs completed)",
            tagged.len()
        )));
    }
    tagged.sort_unstable_by_key(|&(i, _)| i);
    Ok(tagged.into_iter().map(|(_, t)| t).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_keeps_index_order_at_any_thread_count() {
        for threads in [0, 1, 2, 5] {
            let out = parallel_map(7, threads, |i| i * i).unwrap();
            assert_eq!(out, [0, 1, 4, 9, 16, 25, 36], "{threads} threads");
        }
    }

    /// A worker that panics fails the whole batch with a typed error; the
    /// caller does not unwind.
    #[test]
    fn a_panicking_worker_is_a_typed_internal_error() {
        let err = parallel_map(8, 2, |i| assert_ne!(i, 3, "job 3 fails")).unwrap_err();
        assert!(matches!(&err, StoreError::Internal(_)), "{err}");
        assert!(err.to_string().contains("panicked"), "{err}");
    }
}
