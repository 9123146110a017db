//! The sketch-based query engine shared by the in-memory pipeline and the
//! persistent catalog.
//!
//! Built from a set of [`TableRecord`]s (sorted internally by table id so
//! construction is independent of input order), it serves the three data
//! discovery workloads of the paper's §IV-C over three indexes:
//!
//! * **join** — an HNSW over per-column *cell* MinHash features (cosine of
//!   these features tracks value-overlap Jaccard), ranked by the Fig.-6
//!   algorithm ([`tsfm_search::rank`]);
//! * **union** — an HNSW over the full column signature
//!   `[cell ‖ word ‖ numerical]`, so unionable columns match on words and
//!   distribution even without value overlap, ranked by Fig.-6;
//! * **subset** — banded MinHash LSH over table-level content snapshots,
//!   ranked by estimated row-set Jaccard.
//!
//! The engine is immutable once built and holds no interior mutability, so
//! `&QueryEngine` queries are freely shareable across threads (see
//! [`crate::Searcher`]); [`QueryEngine::search_batch`] exploits this by
//! fanning a batch out over `std::thread::scope`.
//!
//! Because every index is deterministic (see
//! `crates/search/tests/determinism.rs`) and construction order is
//! canonicalized, an engine rebuilt from persisted records answers every
//! query identically to one built from the original in-memory sketches.

use crate::error::{StoreError, StoreResult};
use crate::record::TableRecord;
use crate::request::{ColumnMatch, DiscoveryRequest, DiscoveryResponse, HitExplanation};
use tsfm_search::{
    near_tables, near_tables_with_provenance, ColumnHit, Hnsw, HnswConfig, Metric, MinHashLsh,
};
use tsfm_sketch::{ColumnSketch, MinHash, TableSketch};

/// Which discovery workload a query runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    Join,
    Union,
    Subset,
}

impl QueryMode {
    /// Every mode, in the order the CLI documents them.
    pub const ALL: [QueryMode; 3] = [QueryMode::Join, QueryMode::Union, QueryMode::Subset];

    pub fn name(self) -> &'static str {
        match self {
            QueryMode::Join => "join",
            QueryMode::Union => "union",
            QueryMode::Subset => "subset",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "join" => Some(QueryMode::Join),
            "union" => Some(QueryMode::Union),
            "subset" => Some(QueryMode::Subset),
            _ => None,
        }
    }
}

impl std::fmt::Display for QueryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The one mode parser shared by every frontend: the CLI `--mode` flag and
/// the serve loop's `"mode"` field both go through here, so both report
/// the same error listing the valid modes.
impl std::str::FromStr for QueryMode {
    type Err = StoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        QueryMode::parse(s).ok_or_else(|| {
            let valid: Vec<&str> = QueryMode::ALL.iter().map(|m| m.name()).collect();
            StoreError::invalid(format!("unknown mode {s:?} (valid modes: {})", valid.join(", ")))
        })
    }
}

/// Per-table assembly metadata: exactly what [`QueryEngine::from_meta`]
/// needs to reconstruct an engine without touching the full
/// [`TableRecord`]s — the catalog persists this alongside the HNSW graphs
/// so a lazy open never has to read sharded sketch payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMeta {
    pub table_id: String,
    /// Table-level content snapshot feeding the subset-search LSH.
    pub content_snapshot: MinHash,
    /// Column names in sketch order (their count fixes the table's span
    /// in the column-indexed HNSW graphs).
    pub column_names: Vec<String>,
}

/// Extract [`TableMeta`] for `records` in the engine's canonical
/// (ascending table-id, last-duplicate-wins) order — the exact per-table
/// inputs [`QueryEngine::assemble`] reads, so
/// [`QueryEngine::from_meta`] over this output rebuilds the same engine.
pub fn table_metas(records: &[TableRecord]) -> Vec<TableMeta> {
    canonical_order(records)
        .into_iter()
        .map(|ri| TableMeta {
            table_id: records[ri].sketch.table_id.clone(),
            content_snapshot: records[ri].sketch.content_snapshot.clone(),
            column_names: records[ri].sketch.columns.iter().map(|c| c.name.clone()).collect(),
        })
        .collect()
}

/// One ranked result table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableHit {
    pub table_id: String,
    /// Join/union: how many query columns matched (Fig.-6 RANK1 key).
    /// Subset: 0 (the snapshot is table-level, not per-column).
    pub matching_columns: usize,
    /// Join/union: sum of per-column minimum distances (lower is better).
    /// Subset: estimated row-set Jaccard (higher is better).
    pub score: f64,
}

/// Per-query-column over-retrieval factor before Fig.-6 aggregation (the
/// paper retrieves `k·3` columns per query column).
const OVER_RETRIEVE: usize = 3;

/// Accumulating per-stage timer behind [`DiscoveryRequest`]'s `profile`
/// flag. [`Profiler::time`] attributes a closure's wall time to a named
/// stage, merging repeats (the per-column feature/beam loop hits each
/// stage once per query column). Disabled, every call is one branch and
/// zero clock reads, so unprofiled queries pay nothing.
struct Profiler {
    stages: Option<Vec<(&'static str, u64)>>,
}

impl Profiler {
    fn new(enabled: bool) -> Self {
        Self { stages: enabled.then(Vec::new) }
    }

    fn enabled(&self) -> bool {
        self.stages.is_some()
    }

    #[inline]
    fn time<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(stages) = &mut self.stages else { return f() };
        let t0 = std::time::Instant::now();
        let out = f();
        let us = t0.elapsed().as_micros() as u64;
        match stages.iter_mut().find(|(s, _)| *s == stage) {
            Some((_, acc)) => *acc += us,
            None => stages.push((stage, us)),
        }
        out
    }

    /// Close out: append the unattributed remainder (validation, filters,
    /// response assembly) as `"other"`, so the stages partition
    /// `total_us` and sum back to it.
    fn finish(self, total_us: u64) -> Option<Vec<(String, u64)>> {
        let mut stages = self.stages?;
        let attributed: u64 = stages.iter().map(|&(_, us)| us).sum();
        stages.push(("other", total_us.saturating_sub(attributed)));
        Some(stages.into_iter().map(|(s, us)| (s.to_string(), us)).collect())
    }
}

/// Immutable query indexes over a fixed corpus of records. `Send + Sync`:
/// all queries take `&self`.
pub struct QueryEngine {
    minhash_k: usize,
    /// Dense index → table id, sorted ascending.
    ids: Vec<String>,
    /// Column index (in both HNSWs) → owning table's dense index.
    col_owner: Vec<usize>,
    /// Column index → column name (for match explanations).
    col_names: Vec<String>,
    join_index: Hnsw,
    union_index: Hnsw,
    content_lsh: MinHashLsh,
}

/// Join feature: the cell-MinHash features alone (`k` wide), written into
/// a caller-reused buffer (the index build and every query fan-out go
/// through here once per column — no per-column allocation).
fn join_features(c: &ColumnSketch, out: &mut Vec<f32>) {
    out.clear();
    c.cell_minhash.extend_f32_features(out);
}

/// Union feature: `[cell ‖ word ‖ numerical]` (`2k + 16` wide), into a
/// caller-reused buffer.
fn union_features(c: &ColumnSketch, out: &mut Vec<f32>) {
    out.clear();
    c.extend_minhash_features(out);
    out.extend(c.numeric.to_f32_features());
}

/// One lane of [`QueryEngine::build`]: a cosine HNSW over `features` of
/// every column, in canonical order. The graph's build-side link-distance
/// cache is released before it is handed to a long-lived engine.
fn fill_graph(
    records: &[TableRecord],
    order: &[usize],
    dim: usize,
    cfg: HnswConfig,
    features: fn(&ColumnSketch, &mut Vec<f32>),
) -> Hnsw {
    let mut index = Hnsw::new(dim, Metric::Cosine, cfg);
    let mut buf = Vec::new();
    for &ri in order {
        for c in &records[ri].sketch.columns {
            features(c, &mut buf);
            index.add(&buf);
        }
    }
    index.release_link_cache();
    index
}

/// LSH banding for a `k`-wide snapshot signature: 2-row bands when `k` is
/// even (collision probability `1−(1−J²)^(k/2)`), else 1-row bands.
fn content_banding(k: usize) -> (usize, usize) {
    if k % 2 == 0 {
        (k / 2, 2)
    } else {
        (k, 1)
    }
}

impl QueryEngine {
    /// Build all three indexes from records. Input order is irrelevant:
    /// records are processed in ascending table-id order, and duplicate ids
    /// keep the *last* occurrence.
    ///
    /// The join and union graphs share nothing but the read-only records,
    /// and each graph is a function of its own insertion order alone, so
    /// they are filled side by side — the union lane on a scoped thread,
    /// the join lane on the caller's — and come out bit-identical to a
    /// serial fill. On a one-core host the lanes time-slice.
    pub fn build(records: &[TableRecord], minhash_k: usize, hnsw_cfg: HnswConfig) -> Self {
        let _g = tsfm_obs::span!("engine.build");
        let order = canonical_order(records);
        let union_dim = 2 * minhash_k + tsfm_sketch::numeric::NUMERIC_SKETCH_DIM;
        let union_cfg = hnsw_cfg.clone();
        let (join_index, union_index) = std::thread::scope(|s| {
            let union_lane = s.spawn(|| {
                let _g = tsfm_obs::span!("engine.build.union");
                fill_graph(records, &order, union_dim, union_cfg, union_features)
            });
            let join_index = {
                let _g = tsfm_obs::span!("engine.build.join");
                fill_graph(records, &order, minhash_k, hnsw_cfg, join_features)
            };
            // A lane only panics on a bug; re-raise it on the caller.
            (join_index, union_lane.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
        });
        Self::assemble(records, &order, minhash_k, join_index, union_index)
    }

    /// Build from pre-built HNSW graphs (the catalog's index-cache path).
    /// The graphs must have been produced by [`QueryEngine::build`] over
    /// the same records; node counts and dimensions are validated.
    pub fn with_graphs(
        records: &[TableRecord],
        minhash_k: usize,
        join_index: Hnsw,
        union_index: Hnsw,
    ) -> StoreResult<Self> {
        let order = canonical_order(records);
        let ncols: usize = order.iter().map(|&ri| records[ri].sketch.columns.len()).sum();
        check_graphs(ncols, minhash_k, &join_index, &union_index)?;
        Ok(Self::assemble(records, &order, minhash_k, join_index, union_index))
    }

    /// Build from pre-built HNSW graphs and per-table metadata alone — no
    /// [`TableRecord`]s (the catalog's lazy-open fast path, fed entirely
    /// from the index cache). `meta` must be in canonical order (ascending
    /// unique table ids, as [`table_metas`] produces); ordering, snapshot
    /// widths, node counts, and dimensions are all validated so a garbled
    /// cache surfaces as a typed [`StoreError::Corrupt`], never a panic.
    pub fn from_meta(
        meta: Vec<TableMeta>,
        minhash_k: usize,
        join_index: Hnsw,
        union_index: Hnsw,
    ) -> StoreResult<Self> {
        for w in meta.windows(2) {
            if w[0].table_id >= w[1].table_id {
                return Err(StoreError::corrupt(
                    "TSFMIDX1",
                    format!(
                        "engine metadata ids out of order: {:?} then {:?}",
                        w[0].table_id, w[1].table_id
                    ),
                ));
            }
        }
        let ncols: usize = meta.iter().map(|m| m.column_names.len()).sum();
        check_graphs(ncols, minhash_k, &join_index, &union_index)?;
        let (bands, rows) = content_banding(minhash_k);
        let mut content_lsh = MinHashLsh::new(bands, rows);
        let mut ids = Vec::with_capacity(meta.len());
        let mut col_owner = Vec::with_capacity(ncols);
        let mut col_names = Vec::with_capacity(ncols);
        for (ti, m) in meta.into_iter().enumerate() {
            // Pre-checked so the LSH's width assertion can never fire.
            if m.content_snapshot.k() != minhash_k {
                return Err(StoreError::corrupt(
                    "TSFMIDX1",
                    format!(
                        "table {:?} snapshot width {} does not match signature width {minhash_k}",
                        m.table_id,
                        m.content_snapshot.k()
                    ),
                ));
            }
            content_lsh.add(m.content_snapshot);
            ids.push(m.table_id);
            for name in m.column_names {
                col_owner.push(ti);
                col_names.push(name);
            }
        }
        Ok(Self { minhash_k, ids, col_owner, col_names, join_index, union_index, content_lsh })
    }

    fn assemble(
        records: &[TableRecord],
        order: &[usize],
        minhash_k: usize,
        join_index: Hnsw,
        union_index: Hnsw,
    ) -> Self {
        let (bands, rows) = content_banding(minhash_k);
        let mut content_lsh = MinHashLsh::new(bands, rows);
        let mut ids = Vec::with_capacity(order.len());
        let mut col_owner = Vec::new();
        let mut col_names = Vec::new();
        for (ti, &ri) in order.iter().enumerate() {
            content_lsh.add(records[ri].sketch.content_snapshot.clone());
            ids.push(records[ri].sketch.table_id.clone());
            for c in &records[ri].sketch.columns {
                col_owner.push(ti);
                col_names.push(c.name.clone());
            }
        }
        Self { minhash_k, ids, col_owner, col_names, join_index, union_index, content_lsh }
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    pub fn minhash_k(&self) -> usize {
        self.minhash_k
    }

    pub fn join_index(&self) -> &Hnsw {
        &self.join_index
    }

    pub fn union_index(&self) -> &Hnsw {
        &self.union_index
    }

    /// Table ids in corpus (ascending) order.
    pub fn table_ids(&self) -> &[String] {
        &self.ids
    }

    /// Dense index of a table id in the corpus, if present.
    fn table_idx(&self, id: &str) -> Option<usize> {
        self.ids.binary_search_by(|x| x.as_str().cmp(id)).ok()
    }

    /// Run one validated discovery request against the corpus. This is the
    /// primary query entry point; every mode, filter, and explanation path
    /// goes through here.
    pub fn search(
        &self,
        sketch: &TableSketch,
        req: &DiscoveryRequest,
    ) -> StoreResult<DiscoveryResponse> {
        let t0 = std::time::Instant::now();
        let _g = tsfm_obs::span!(match req.mode() {
            QueryMode::Join => "engine.search.join",
            QueryMode::Union => "engine.search.union",
            QueryMode::Subset => "engine.search.subset",
        });
        if self.is_empty() {
            return Err(StoreError::EmptyIndex);
        }
        if sketch.content_snapshot.k() != self.minhash_k {
            return Err(StoreError::invalid(format!(
                "query sketched with signature width {} but the corpus uses {}",
                sketch.content_snapshot.k(),
                self.minhash_k
            )));
        }
        let mut prof = Profiler::new(req.profile());
        let (mut hits, mut explanations) = match req.mode() {
            QueryMode::Join => {
                self.column_search(sketch, req, &self.join_index, join_features, &mut prof)?
            }
            QueryMode::Union => {
                self.column_search(sketch, req, &self.union_index, union_features, &mut prof)?
            }
            QueryMode::Subset => (prof.time("lsh", || self.subset_search(sketch, req)), None),
        };
        if let Some(ms) = req.min_score() {
            // Mode-specific threshold (see DiscoveryRequestBuilder::min_score):
            // subset scores are Jaccards, join/union relevance is RANK1.
            let keep = |h: &TableHit| match req.mode() {
                QueryMode::Subset => h.score >= ms,
                _ => h.matching_columns as f64 >= ms,
            };
            explanations = explanations.map(|ex| {
                ex.into_iter()
                    .zip(&hits)
                    .filter(|(_, h)| keep(h))
                    .map(|(e, _)| e)
                    .collect::<Vec<_>>()
            });
            hits.retain(keep);
        }
        hits.truncate(req.k());
        if let Some(ex) = &mut explanations {
            ex.truncate(req.k());
        }
        let elapsed_micros = t0.elapsed().as_micros() as u64;
        Ok(DiscoveryResponse {
            mode: req.mode(),
            query_id: sketch.table_id.clone(),
            corpus_size: self.len(),
            elapsed_micros,
            hits,
            explanations,
            profile: prof.finish(elapsed_micros),
        })
    }

    /// Batched search: one response per query sketch, identical to calling
    /// [`QueryEngine::search`] serially, but fanned out over scoped threads
    /// sharing `&self` (the engine is immutable, so this is free).
    pub fn search_batch(
        &self,
        sketches: &[TableSketch],
        req: &DiscoveryRequest,
    ) -> StoreResult<Vec<DiscoveryResponse>> {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        self.search_batch_with_threads(sketches, req, threads)
    }

    /// [`QueryEngine::search_batch`] with an explicit worker count
    /// (`search_batch` picks the host's available parallelism). `0` or
    /// `1` runs the serial path inline.
    pub fn search_batch_with_threads(
        &self,
        sketches: &[TableSketch],
        req: &DiscoveryRequest,
        threads: usize,
    ) -> StoreResult<Vec<DiscoveryResponse>> {
        let n = sketches.len();
        let threads = threads.min(n);
        if threads <= 1 {
            return sketches.iter().map(|s| self.search(s, req)).collect();
        }
        let chunk = n.div_ceil(threads);
        let mut slots: Vec<Option<StoreResult<DiscoveryResponse>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (out, work) in slots.chunks_mut(chunk).zip(sketches.chunks(chunk)) {
                scope.spawn(move || {
                    for (slot, sketch) in out.iter_mut().zip(work) {
                        *slot = Some(self.search(sketch, req));
                    }
                });
            }
        });
        // An unfilled slot means its worker panicked before writing it
        // (scope re-raises worker panics, so this is belt-and-braces for
        // a future panic=abort-less refactor): surface a typed server
        // fault instead of panicking the caller too.
        slots
            .into_iter()
            .map(|s| {
                s.unwrap_or_else(|| {
                    Err(StoreError::internal("batch search worker left its slot unfilled"))
                })
            })
            .collect()
    }

    /// Fig.-6 ranking: per query column, retrieve `k·3` nearest corpus
    /// columns, collapse to tables, rank by (matching columns, distance).
    fn column_search(
        &self,
        sketch: &TableSketch,
        req: &DiscoveryRequest,
        index: &Hnsw,
        features: fn(&ColumnSketch, &mut Vec<f32>),
        prof: &mut Profiler,
    ) -> StoreResult<(Vec<TableHit>, Option<Vec<HitExplanation>>)> {
        let query_cols = self.select_columns(sketch, req)?;
        // One feature buffer per request, reused across the query's
        // columns; the HNSW search itself draws visited-list and heap
        // scratch from its per-thread pool, so a batch fan-out worker
        // allocates nothing per query after warmup.
        let mut buf = Vec::new();
        let k_cols = req.k().saturating_mul(OVER_RETRIEVE).max(1);
        // The per-column loop is the query hot path: only the profiled
        // variant pays the stage-timing wrappers, so unprofiled queries
        // keep the tight original shape.
        let per_col: Vec<Vec<ColumnHit>> = if prof.enabled() {
            let mut per_col = Vec::with_capacity(query_cols.len());
            for c in &query_cols {
                prof.time("features", || features(c, &mut buf));
                per_col.push(prof.time("beam", || {
                    index
                        .search(&buf, k_cols)
                        .into_iter()
                        .map(|(col, d)| ColumnHit {
                            table: self.col_owner[col],
                            column: col,
                            distance: d,
                        })
                        .collect()
                }));
            }
            per_col
        } else {
            query_cols
                .iter()
                .map(|c| {
                    features(c, &mut buf);
                    index
                        .search(&buf, k_cols)
                        .into_iter()
                        .map(|(col, d)| ColumnHit {
                            table: self.col_owner[col],
                            column: col,
                            distance: d,
                        })
                        .collect()
                })
                .collect()
        };
        let exclude = if req.exclude_self() { self.table_idx(&sketch.table_id) } else { None };
        if !req.explain() {
            let hits = prof.time("rank", || {
                near_tables(&per_col, exclude)
                    .into_iter()
                    .map(|r| TableHit {
                        table_id: self.ids[r.table].clone(),
                        matching_columns: r.matching_columns,
                        score: r.distance_sum as f64,
                    })
                    .collect()
            });
            return Ok((hits, None));
        }
        let detailed = prof.time("rank", || near_tables_with_provenance(&per_col, exclude));
        let mut hits = Vec::with_capacity(detailed.len());
        let mut explanations = Vec::with_capacity(detailed.len());
        prof.time("explain", || {
            for d in detailed {
                hits.push(TableHit {
                    table_id: self.ids[d.table].clone(),
                    matching_columns: d.matching_columns,
                    score: d.distance_sum as f64,
                });
                explanations.push(HitExplanation {
                    table_id: self.ids[d.table].clone(),
                    matches: d
                        .matches
                        .iter()
                        .map(|m| ColumnMatch {
                            query_column: query_cols[m.query_column].name.clone(),
                            corpus_column: self.col_names[m.corpus_column].clone(),
                            distance: m.distance,
                        })
                        .collect(),
                });
            }
        });
        Ok((hits, Some(explanations)))
    }

    /// Resolve the request's column filter against the query sketch.
    fn select_columns<'a>(
        &self,
        sketch: &'a TableSketch,
        req: &DiscoveryRequest,
    ) -> StoreResult<Vec<&'a ColumnSketch>> {
        let Some(filter) = req.columns() else {
            return Ok(sketch.columns.iter().collect());
        };
        let mut out = Vec::with_capacity(filter.len());
        for name in filter {
            let col = sketch.columns.iter().find(|c| &c.name == name).ok_or_else(|| {
                StoreError::invalid(format!(
                    "query table {:?} has no column named {name:?}",
                    sketch.table_id
                ))
            })?;
            out.push(col);
        }
        Ok(out)
    }

    fn subset_search(&self, sketch: &TableSketch, req: &DiscoveryRequest) -> Vec<TableHit> {
        let exclude = if req.exclude_self() { self.table_idx(&sketch.table_id) } else { None };
        self.content_lsh
            .search(&sketch.content_snapshot, req.k().saturating_add(1))
            .into_iter()
            .filter(|&(id, _)| Some(id) != exclude)
            .take(req.k())
            .map(|(id, j)| TableHit {
                table_id: self.ids[id].clone(),
                matching_columns: 0,
                score: j,
            })
            .collect()
    }

}

/// Validate pre-built HNSW graphs against the corpus shape: both must
/// hold one node per column at the widths the engine will query them at.
fn check_graphs(
    ncols: usize,
    minhash_k: usize,
    join_index: &Hnsw,
    union_index: &Hnsw,
) -> StoreResult<()> {
    if join_index.len() != ncols || union_index.len() != ncols {
        return Err(StoreError::corrupt(
            "TSFMIDX1",
            format!(
                "index has {}/{} nodes for {} columns",
                join_index.len(),
                union_index.len(),
                ncols
            ),
        ));
    }
    let union_dim = 2 * minhash_k + tsfm_sketch::numeric::NUMERIC_SKETCH_DIM;
    if join_index.dim() != minhash_k || union_index.dim() != union_dim {
        return Err(StoreError::corrupt(
            "TSFMIDX1",
            format!(
                "index dims {}/{} do not match signature width {minhash_k}",
                join_index.dim(),
                union_index.dim()
            ),
        ));
    }
    Ok(())
}

/// Indices of `records` in ascending table-id order, keeping only the last
/// record of any duplicated id.
fn canonical_order(records: &[TableRecord]) -> Vec<usize> {
    let mut by_id: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        by_id.insert(r.table_id(), i);
    }
    by_id.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsfm_sketch::{SketchConfig, TableSketch};
    use tsfm_table::{Column, Table, Value};

    fn table(id: &str, col: &str, vals: &[&str]) -> Table {
        let mut t = Table::new(id, id);
        t.push_column(Column::new(
            col,
            vals.iter().map(|v| Value::Str((*v).into())).collect(),
        ));
        t
    }

    fn corpus() -> (Vec<TableRecord>, SketchConfig) {
        let cfg = SketchConfig::default();
        let vals_a: Vec<String> = (0..60).map(|i| format!("alpha-{i}")).collect();
        let vals_b: Vec<String> = (0..60).map(|i| format!("beta-{i}")).collect();
        let tables = [
            table("a0", "key", &vals_a.iter().map(String::as_str).collect::<Vec<_>>()),
            table("a1", "key2", &vals_a.iter().take(50).map(String::as_str).collect::<Vec<_>>()),
            table("b0", "other", &vals_b.iter().map(String::as_str).collect::<Vec<_>>()),
        ];
        let recs = tables
            .iter()
            .map(|t| TableRecord::from_sketch(TableSketch::build(t, &cfg), 0))
            .collect();
        (recs, cfg)
    }

    fn req(mode: QueryMode, k: usize) -> DiscoveryRequest {
        DiscoveryRequest::builder(mode).k(k).build().unwrap()
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryEngine>();
    }

    #[test]
    fn join_finds_overlapping_table_and_excludes_self() {
        let (recs, cfg) = corpus();
        let engine = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        let hits = engine.search(&recs[0].sketch, &req(QueryMode::Join, 2)).unwrap().hits;
        assert!(!hits.is_empty());
        assert_eq!(hits[0].table_id, "a1", "value-overlapping table ranks first: {hits:?}");
        assert!(hits.iter().all(|h| h.table_id != "a0"), "query excluded");
    }

    #[test]
    fn exclude_self_false_returns_the_query_table_first() {
        let (recs, cfg) = corpus();
        let engine = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        let r = DiscoveryRequest::builder(QueryMode::Join).k(3).exclude_self(false).build().unwrap();
        let hits = engine.search(&recs[0].sketch, &r).unwrap().hits;
        assert_eq!(hits[0].table_id, "a0", "a table trivially matches itself: {hits:?}");
    }

    #[test]
    fn build_is_input_order_invariant() {
        let (mut recs, cfg) = corpus();
        let a = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        recs.reverse();
        let b = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        let q = &recs.iter().find(|r| r.table_id() == "a0").unwrap().sketch;
        for mode in QueryMode::ALL {
            assert_eq!(
                a.search(q, &req(mode, 3)).unwrap().hits,
                b.search(q, &req(mode, 3)).unwrap().hits
            );
        }
    }

    /// 64 tables × 5 columns = 320 columns: enough nodes that every
    /// layer-0 list (2·m = 24) overflows and is trimmed many times.
    fn wide_corpus() -> (Vec<TableRecord>, SketchConfig) {
        let cfg = SketchConfig::default();
        let recs = (0..64)
            .map(|t| {
                let mut table = Table::new(format!("t{t:02}"), format!("t{t:02}"));
                for c in 0..5 {
                    // Neighbouring tables share values, so distances vary.
                    let vals = (0..30).map(|i| Value::Str(format!("v{}-{}", c, (t / 4) * 7 + i)));
                    table.push_column(Column::new(format!("c{c}"), vals.collect()));
                }
                TableRecord::from_sketch(TableSketch::build(&table, &cfg), 0)
            })
            .collect();
        (recs, cfg)
    }

    /// The two build lanes must produce exactly the graphs a serial
    /// `Hnsw::add` loop in canonical order produces, whatever order the
    /// records arrive in — and hand none of the build-side cache on.
    #[test]
    fn build_lanes_match_serial_hand_fill() {
        let (mut recs, cfg) = wide_corpus();
        let k = cfg.minhash_k;
        let mut join = Hnsw::new(k, Metric::Cosine, HnswConfig::default());
        let mut union = Hnsw::new(
            2 * k + tsfm_sketch::numeric::NUMERIC_SKETCH_DIM,
            Metric::Cosine,
            HnswConfig::default(),
        );
        let mut buf = Vec::new();
        for c in recs.iter().flat_map(|r| &r.sketch.columns) {
            join_features(c, &mut buf);
            join.add(&buf);
            union_features(c, &mut buf);
            union.add(&buf);
        }
        assert!(join.len() >= 300);

        let built = QueryEngine::build(&recs, k, HnswConfig::default());
        assert_eq!(built.join_index().snapshot(), join.snapshot());
        assert_eq!(built.union_index().snapshot(), union.snapshot());
        assert_eq!(built.join_index().link_cache_bytes(), 0, "engine holds no build state");
        assert_eq!(built.union_index().link_cache_bytes(), 0, "engine holds no build state");

        // Deterministic shuffle: 37 is coprime with 64.
        recs = (0..recs.len()).map(|i| recs[(i * 37 + 11) % recs.len()].clone()).collect();
        let shuffled = QueryEngine::build(&recs, k, HnswConfig::default());
        assert_eq!(shuffled.join_index().snapshot(), join.snapshot());
        assert_eq!(shuffled.union_index().snapshot(), union.snapshot());
    }

    /// A rebuild runs beside queries on the previous engine (the serve
    /// loop's reload): both must be unaffected by the other. Mostly here
    /// so the nightly TSan job sees the lanes and the batch fan-out
    /// overlap; the barrier makes them start together.
    #[test]
    fn build_beside_search_batch_on_previous_engine() {
        let (recs, cfg) = wide_corpus();
        let k = cfg.minhash_k;
        let serving = QueryEngine::build(&recs, k, HnswConfig::default());
        let sketches: Vec<TableSketch> = recs.iter().take(16).map(|r| r.sketch.clone()).collect();
        let r = req(QueryMode::Union, 5);
        let want: Vec<Vec<TableHit>> =
            sketches.iter().map(|s| serving.search(s, &r).unwrap().hits).collect();
        let start = std::sync::Barrier::new(2);
        let rebuilt = std::thread::scope(|s| {
            let builder = s.spawn(|| {
                start.wait();
                QueryEngine::build(&recs, k, HnswConfig::default())
            });
            start.wait();
            for _ in 0..4 {
                let got = serving.search_batch_with_threads(&sketches, &r, 2).unwrap();
                let got: Vec<Vec<TableHit>> = got.into_iter().map(|b| b.hits).collect();
                assert_eq!(got, want);
            }
            builder.join().unwrap()
        });
        assert_eq!(rebuilt.join_index().snapshot(), serving.join_index().snapshot());
        assert_eq!(rebuilt.union_index().snapshot(), serving.union_index().snapshot());
    }

    #[test]
    fn with_graphs_matches_fresh_build() {
        let (recs, cfg) = corpus();
        let built = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        let restored = QueryEngine::with_graphs(
            &recs,
            cfg.minhash_k,
            tsfm_search::Hnsw::from_snapshot(built.join_index().snapshot()).unwrap(),
            tsfm_search::Hnsw::from_snapshot(built.union_index().snapshot()).unwrap(),
        )
        .unwrap();
        for mode in QueryMode::ALL {
            assert_eq!(
                built.search(&recs[0].sketch, &req(mode, 3)).unwrap().hits,
                restored.search(&recs[0].sketch, &req(mode, 3)).unwrap().hits
            );
        }
    }

    #[test]
    fn from_meta_matches_fresh_build() {
        let (recs, cfg) = corpus();
        let built = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        let restored = QueryEngine::from_meta(
            table_metas(&recs),
            cfg.minhash_k,
            tsfm_search::Hnsw::from_snapshot(built.join_index().snapshot()).unwrap(),
            tsfm_search::Hnsw::from_snapshot(built.union_index().snapshot()).unwrap(),
        )
        .unwrap();
        assert_eq!(restored.table_ids(), built.table_ids());
        for mode in QueryMode::ALL {
            let r = DiscoveryRequest::builder(mode).k(3).explain(mode != QueryMode::Subset).build().unwrap();
            for rec in &recs {
                let a = built.search(&rec.sketch, &r).unwrap();
                let b = restored.search(&rec.sketch, &r).unwrap();
                assert_eq!(a.hits, b.hits, "mode {mode}");
                assert_eq!(a.explanations, b.explanations, "mode {mode}");
            }
        }
    }

    #[test]
    fn from_meta_rejects_unordered_or_mismatched_meta() {
        let (recs, cfg) = corpus();
        let built = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        let graphs = || {
            (
                tsfm_search::Hnsw::from_snapshot(built.join_index().snapshot()).unwrap(),
                tsfm_search::Hnsw::from_snapshot(built.union_index().snapshot()).unwrap(),
            )
        };
        // Out-of-order ids.
        let mut meta = table_metas(&recs);
        meta.swap(0, 1);
        let (j, u) = graphs();
        let Err(err) = QueryEngine::from_meta(meta, cfg.minhash_k, j, u) else {
            panic!("unordered meta must be rejected")
        };
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("out of order"), "{err}");
        // A dropped table leaves the graphs with too many nodes.
        let mut meta = table_metas(&recs);
        meta.pop();
        let (j, u) = graphs();
        let Err(err) = QueryEngine::from_meta(meta, cfg.minhash_k, j, u) else {
            panic!("undersized meta must be rejected")
        };
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        // A snapshot of the wrong width is caught before the LSH asserts.
        let mut meta = table_metas(&recs);
        meta[0].content_snapshot = MinHash { sig: vec![1, 2] };
        let (j, u) = graphs();
        let Err(err) = QueryEngine::from_meta(meta, cfg.minhash_k, j, u) else {
            panic!("wrong-width snapshot must be rejected")
        };
        assert!(err.to_string().contains("snapshot width"), "{err}");
    }

    #[test]
    fn with_graphs_rejects_mismatched_graphs() {
        let (recs, cfg) = corpus();
        let built = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        let empty = tsfm_search::Hnsw::new(cfg.minhash_k, Metric::Cosine, Default::default());
        let join = tsfm_search::Hnsw::from_snapshot(built.join_index().snapshot()).unwrap();
        let Err(err) = QueryEngine::with_graphs(&recs, cfg.minhash_k, join, empty) else {
            panic!("mismatched graphs must be rejected")
        };
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn subset_ranks_row_subset_first() {
        let cfg = SketchConfig::default();
        let vals: Vec<String> = (0..100).map(|i| format!("row-{i}")).collect();
        let all: Vec<&str> = vals.iter().map(String::as_str).collect();
        let tables = [
            table("base", "c", &all),
            table("half", "c", &all[..50]),
            table("unrelated", "c", &["x", "y", "z"]),
        ];
        let recs: Vec<TableRecord> = tables
            .iter()
            .map(|t| TableRecord::from_sketch(TableSketch::build(t, &cfg), 0))
            .collect();
        let engine = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        let hits = engine.search(&recs[0].sketch, &req(QueryMode::Subset, 2)).unwrap().hits;
        assert_eq!(hits[0].table_id, "half", "{hits:?}");
        assert!(hits[0].score > 0.2);

        // min_score drops the unrelated tail but keeps the true subset.
        let r = DiscoveryRequest::builder(QueryMode::Subset).k(2).min_score(0.2).build().unwrap();
        let filtered = engine.search(&recs[0].sketch, &r).unwrap().hits;
        assert!(filtered.iter().all(|h| h.score >= 0.2), "{filtered:?}");
        assert_eq!(filtered[0].table_id, "half");
    }

    #[test]
    fn mismatched_query_width_is_invalid_request() {
        let (recs, cfg) = corpus();
        let engine = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        let narrow = SketchConfig { minhash_k: cfg.minhash_k / 2, ..cfg };
        let q = TableSketch::build(&table("q", "c", &["v"]), &narrow);
        let err = engine.search(&q, &req(QueryMode::Join, 1)).unwrap_err();
        assert!(matches!(err, StoreError::InvalidRequest(_)), "{err}");
        assert!(err.to_string().contains("signature width"), "{err}");
    }

    #[test]
    fn empty_corpus_is_empty_index_error() {
        let cfg = SketchConfig::default();
        let engine = QueryEngine::build(&[], cfg.minhash_k, Default::default());
        let q = TableSketch::build(&table("q", "c", &["v"]), &cfg);
        let err = engine.search(&q, &req(QueryMode::Join, 1)).unwrap_err();
        assert!(matches!(err, StoreError::EmptyIndex), "{err}");
    }

    #[test]
    fn unknown_filter_column_is_invalid_request() {
        let (recs, cfg) = corpus();
        let engine = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        let r = DiscoveryRequest::builder(QueryMode::Join)
            .k(2)
            .columns(["no_such_column"])
            .build()
            .unwrap();
        let err = engine.search(&recs[0].sketch, &r).unwrap_err();
        assert!(err.to_string().contains("no_such_column"), "{err}");
    }

    #[test]
    fn explanations_name_matching_columns() {
        let (recs, cfg) = corpus();
        let engine = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        let r = DiscoveryRequest::builder(QueryMode::Join).k(2).explain(true).build().unwrap();
        let resp = engine.search(&recs[0].sketch, &r).unwrap();
        let ex = resp.explanations.as_ref().expect("explain requested");
        assert_eq!(ex.len(), resp.hits.len());
        // Ranks agree, and the top hit's match names real columns.
        assert_eq!(ex[0].table_id, resp.hits[0].table_id);
        assert_eq!(ex[0].table_id, "a1");
        assert_eq!(ex[0].matches.len(), 1);
        assert_eq!(ex[0].matches[0].query_column, "key");
        assert_eq!(ex[0].matches[0].corpus_column, "key2");

        // Same request without explain: identical hits, no explanations.
        let plain = engine.search(&recs[0].sketch, &req(QueryMode::Join, 2)).unwrap();
        assert_eq!(plain.hits, resp.hits);
        assert!(plain.explanations.is_none());
    }

    #[test]
    fn profile_breakdown_partitions_elapsed() {
        let (recs, cfg) = corpus();
        let engine = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        for mode in QueryMode::ALL {
            let r = DiscoveryRequest::builder(mode).k(2).profile(true).build().unwrap();
            let resp = engine.search(&recs[0].sketch, &r).unwrap();
            let prof = resp.profile.expect("profile requested");
            // Stages partition the elapsed time: every stage is a
            // truncated sub-interval and "other" absorbs the remainder,
            // so the sum reproduces elapsed_micros exactly.
            let sum: u64 = prof.iter().map(|(_, us)| *us).sum();
            assert_eq!(sum, resp.elapsed_micros, "mode {mode}: {prof:?}");
            assert_eq!(prof.last().expect("never empty").0, "other", "{prof:?}");

            // Profiling never changes results, and unprofiled responses
            // carry no breakdown.
            let plain = engine.search(&recs[0].sketch, &req(mode, 2)).unwrap();
            assert_eq!(plain.hits, resp.hits, "mode {mode}");
            assert!(plain.profile.is_none());
        }
    }

    #[test]
    fn search_batch_matches_serial() {
        let (recs, cfg) = corpus();
        let engine = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        let sketches: Vec<TableSketch> = recs.iter().map(|r| r.sketch.clone()).collect();
        for mode in QueryMode::ALL {
            let r = req(mode, 3);
            // Force the scoped-thread fan-out even on single-core hosts
            // (where search_batch would pick the serial path), plus the
            // auto and explicitly-serial variants — all must agree.
            for batch in [
                engine.search_batch(&sketches, &r).unwrap(),
                engine.search_batch_with_threads(&sketches, &r, 2).unwrap(),
                engine.search_batch_with_threads(&sketches, &r, 1).unwrap(),
                engine.search_batch_with_threads(&sketches, &r, 64).unwrap(),
            ] {
                assert_eq!(batch.len(), sketches.len());
                for (s, b) in sketches.iter().zip(&batch) {
                    assert_eq!(engine.search(s, &r).unwrap().hits, b.hits, "mode {mode}");
                }
            }
        }
    }

    #[test]
    fn k_zero_is_rejected_at_request_build() {
        // The deprecated positional shims (removed after their one-PR
        // grace period) used to silently return empty results for k == 0;
        // the request builder is now the only entrance and it rejects it.
        let err = DiscoveryRequest::builder(QueryMode::Join).k(0).build().unwrap_err();
        assert!(matches!(err, StoreError::InvalidRequest(_)), "{err}");
    }

    #[test]
    fn mode_from_str_and_display() {
        for mode in QueryMode::ALL {
            assert_eq!(mode.name().parse::<QueryMode>().unwrap(), mode);
            assert_eq!(mode.to_string(), mode.name());
        }
        let err = "fuzzy".parse::<QueryMode>().unwrap_err();
        assert!(matches!(err, StoreError::InvalidRequest(_)));
        let msg = err.to_string();
        assert!(
            msg.contains("join") && msg.contains("union") && msg.contains("subset"),
            "error lists valid modes: {msg}"
        );
    }
}
