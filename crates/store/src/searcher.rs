//! The shared read-path snapshot.
//!
//! A [`Searcher`] is an immutable view of one catalog generation: an
//! [`Arc<QueryEngine>`] plus the corpus sketches and the sketch config the
//! corpus was built with. It is `Send + Sync + Clone` (cloning is two
//! `Arc` bumps), so any number of threads — a serve loop's connection
//! workers, a batch fan-out, a background re-ranker — can query the same
//! snapshot without taking `&mut Catalog` or any lock.
//!
//! The corpus comes in two shapes. An **eager** snapshot holds every
//! sketch in memory (small catalogs, hot `sketch_of`). A **lazy**
//! snapshot — the default once a catalog has a shard layer — holds only
//! loose sketches plus open arena handles ([`crate::shard::LazyCorpus`]);
//! shard-resident sketches are loaded by positioned read on demand,
//! through an LRU cache, so snapshot RSS is bounded by churn + cache
//! size instead of corpus size. Both shapes answer every query
//! identically: the [`QueryEngine`] carries its own per-table state, and
//! `sketch_of` only matters for by-id queries.
//!
//! Mutating the catalog bumps its epoch and drops its cached snapshot;
//! the next [`crate::Catalog::searcher`] call takes a new one, deriving
//! its engine from this snapshot's where it can. Snapshots already
//! handed out keep answering from the generation they captured (readers
//! are never blocked or invalidated mid-flight — a lazy snapshot's arena
//! descriptors even survive a compaction unlinking the files), and
//! [`Searcher::epoch`] lets callers detect staleness.

use crate::engine::QueryEngine;
use crate::error::{StoreError, StoreResult};
use crate::request::{DiscoveryRequest, DiscoveryResponse};
use crate::shard::LazyCorpus;
use std::sync::Arc;
use tsfm_sketch::{SketchConfig, TableSketch};
use tsfm_table::Table;

/// The snapshot's id-addressable sketch corpus, in one of two shapes.
#[derive(Clone)]
enum Corpus {
    /// Every sketch in memory, ascending table-id order (the engine's
    /// order).
    Eager(Arc<Vec<Arc<TableSketch>>>),
    /// Loose sketches in memory; shard-resident ones behind positioned
    /// arena reads + an LRU cache.
    Lazy(Arc<LazyCorpus>),
}

/// An immutable, thread-shareable discovery snapshot. See module docs.
#[derive(Clone)]
pub struct Searcher {
    engine: Arc<QueryEngine>,
    corpus: Corpus,
    sketch_cfg: SketchConfig,
    epoch: u64,
}

impl Searcher {
    pub(crate) fn eager(
        engine: Arc<QueryEngine>,
        sketches: Arc<Vec<Arc<TableSketch>>>,
        sketch_cfg: SketchConfig,
        epoch: u64,
    ) -> Self {
        debug_assert_eq!(engine.len(), sketches.len());
        Self { engine, corpus: Corpus::Eager(sketches), sketch_cfg, epoch }
    }

    pub(crate) fn lazy(
        engine: Arc<QueryEngine>,
        corpus: Arc<LazyCorpus>,
        sketch_cfg: SketchConfig,
        epoch: u64,
    ) -> Self {
        debug_assert_eq!(engine.len(), corpus.len());
        Self { engine, corpus: Corpus::Lazy(corpus), sketch_cfg, epoch }
    }

    /// Number of tables in the snapshot.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// The catalog generation this snapshot was taken at. A catalog whose
    /// `epoch()` has moved past this value has newer contents.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn sketch_config(&self) -> &SketchConfig {
        &self.sketch_cfg
    }

    /// Whether this snapshot loads shard-resident sketches lazily.
    pub fn is_lazy(&self) -> bool {
        matches!(self.corpus, Corpus::Lazy(_))
    }

    /// The underlying engine, for advanced callers.
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// Sketch a table with the snapshot's own config, ready to query.
    pub fn sketch(&self, table: &Table) -> TableSketch {
        TableSketch::build(table, &self.sketch_cfg)
    }

    /// The stored sketch of a corpus table, or
    /// [`StoreError::UnknownTable`]. On a lazy snapshot this may do a
    /// positioned arena read (any I/O or corruption error is passed
    /// through typed, never panicking).
    pub fn sketch_of(&self, table_id: &str) -> StoreResult<Arc<TableSketch>> {
        match &self.corpus {
            Corpus::Eager(sketches) => sketches
                .binary_search_by(|s| s.table_id.as_str().cmp(table_id))
                .map(|i| Arc::clone(&sketches[i]))
                .map_err(|_| StoreError::UnknownTable(table_id.to_string())),
            Corpus::Lazy(corpus) => corpus
                .sketch_of(table_id)?
                .ok_or_else(|| StoreError::UnknownTable(table_id.to_string())),
        }
    }

    /// Sketch `table` and run `req` against the snapshot.
    pub fn search_table(&self, table: &Table, req: &DiscoveryRequest) -> StoreResult<DiscoveryResponse> {
        self.engine.search(&self.sketch(table), req)
    }

    /// Run `req` for a pre-built sketch (must use the snapshot's config).
    pub fn search_sketch(
        &self,
        sketch: &TableSketch,
        req: &DiscoveryRequest,
    ) -> StoreResult<DiscoveryResponse> {
        self.engine.search(sketch, req)
    }

    /// Use a table already in the corpus as the query, by id — the "what
    /// joins/unions with my ingested table X" workload.
    pub fn search_id(&self, table_id: &str, req: &DiscoveryRequest) -> StoreResult<DiscoveryResponse> {
        let sketch = self.sketch_of(table_id)?;
        self.engine.search(&sketch, req)
    }

    /// Parallel batched search over the shared snapshot; results are
    /// identical to (and ordered like) serial [`Searcher::search_sketch`]
    /// calls.
    pub fn search_batch(
        &self,
        sketches: &[TableSketch],
        req: &DiscoveryRequest,
    ) -> StoreResult<Vec<DiscoveryResponse>> {
        self.engine.search_batch(sketches, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn searcher_is_send_sync_clone() {
        fn assert_bounds<T: Send + Sync + Clone>() {}
        assert_bounds::<Searcher>();
    }
}
