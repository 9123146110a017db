//! The sketch-based query engine shared by the in-memory pipeline and the
//! persistent catalog.
//!
//! It serves the three data discovery workloads of the paper's §IV-C over
//! three indexes:
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
//! ## Spans, dead nodes, and where an engine comes from
//!
//! Each table version the engine indexes occupies one *span*: a run of
//! consecutive nodes in both graphs (one per column, in sketch order) and
//! one entry in the content LSH. An engine comes about in one of three
//! ways:
//!
//! * [`QueryEngine::build`] — from records, taken in ascending table-id
//!   order (a duplicated id keeps its last record). Its spans are the
//!   tables in id order and none is dead: the engine is *canonical*, a
//!   function of the record set alone.
//! * [`QueryEngine::update`] — from a previous engine and a change. Both
//!   graphs and the LSH are cloned, changed and added tables get new spans
//!   appended in ascending-id order, and the spans of removed or replaced
//!   tables become *dead*. Their nodes stay in the graphs and still route
//!   the beam, but are never returned (`tsfm_search::hnsw`, "Dead
//!   nodes"); their LSH entries are skipped before the top `k` is cut.
//!   Node → table ([`QueryEngine`]'s `col_owner`) maps a dead node to a
//!   sentinel, and the live ids stay one sorted list, so `exclude_self`
//!   and the Fig.-6 tie-break by table index work unchanged. Once dead
//!   nodes would reach [`DEAD_REBUILD_DIVISOR`]⁻¹ of the graph, `update`
//!   declines and the caller builds canonically from the live records.
//! * [`QueryEngine::from_meta`] — from persisted graphs plus per-span
//!   metadata (the catalog's index cache), reproducing exactly the engine
//!   that was written, dead spans included.
//!
//! Every index is deterministic (see `crates/search/tests/determinism.rs`),
//! so a fresh build answers every query identically to any other build
//! over the same records, and a reopened engine identically to the one
//! that was served. That equivalence does not hold across histories: an
//! updated engine is a function of its base and the change, not of its
//! live records alone. Its subset answers equal a fresh build's — the LSH
//! ranks every candidate exactly — but its graphs differ from a fresh
//! build's, so join and union rankings can too, within the recall the
//! dead-node limit was measured to keep.

use crate::error::{StoreError, StoreResult};
use crate::record::TableRecord;
use crate::request::{ColumnMatch, DiscoveryRequest, DiscoveryResponse, HitExplanation};
use std::ops::Range;
use tsfm_search::{
    near_tables, near_tables_with_provenance, ColumnHit, Hnsw, HnswConfig, Metric, MinHashLsh,
    DEAD_REBUILD_DIVISOR,
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

/// One span as the index cache persists it (module docs, "Spans"):
/// exactly what [`QueryEngine::from_meta`] needs beside the graphs to
/// reconstruct an engine without touching the full [`TableRecord`]s, so
/// a lazy open never reads sharded sketch payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanMeta {
    /// The live table owning the span; `None` for a dead span.
    pub table_id: Option<String>,
    /// Table-level content snapshot feeding the subset-search LSH.
    pub content_snapshot: MinHash,
    /// Column names in sketch order (their count fixes the span's length
    /// in the column-indexed HNSW graphs).
    pub column_names: Vec<String>,
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

/// Node → table (and span → table) sentinel of a dead node or span.
const DEAD: usize = usize::MAX;

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

/// Where one span sits: its live table's dense index (or [`DEAD`]) and
/// its first graph node. Span `s` is content-LSH entry `s` and runs up to
/// the next span's first node.
#[derive(Debug, Clone, Copy)]
struct Span {
    table: usize,
    first_node: usize,
}

/// Immutable query indexes over a fixed corpus of records. `Send + Sync`:
/// all queries take `&self`.
pub struct QueryEngine {
    minhash_k: usize,
    /// Live table ids, ascending: dense index → table id.
    ids: Vec<String>,
    /// Every span, live and dead, in node order.
    spans: Vec<Span>,
    /// Column index (in both HNSWs) → owning table's dense index, or
    /// [`DEAD`].
    col_owner: Vec<usize>,
    /// Column index → column name (for match explanations).
    col_names: Vec<String>,
    join_index: Hnsw,
    union_index: Hnsw,
    /// One content snapshot per span.
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

/// One lane: `features` of every column of `recs`, in order, appended to
/// `index`. The graph's build-side link-distance cache is released before
/// it is handed to a long-lived engine.
fn fill_graph(
    mut index: Hnsw,
    recs: &[&TableRecord],
    features: fn(&ColumnSketch, &mut Vec<f32>),
) -> Hnsw {
    let mut buf = Vec::new();
    for r in recs {
        for c in &r.sketch.columns {
            features(c, &mut buf);
            index.add(&buf);
        }
    }
    index.release_link_cache();
    index
}

/// Fill the join graph `join()` yields on the caller's thread and the
/// union graph `union()` yields on a scoped one, each under its span
/// name. The two share nothing but the read-only records, and each graph
/// is a function of its starting state and insertion order alone, so
/// they come out bit-identical to a serial fill. On a one-core host the
/// lanes time-slice.
fn fill_lanes(
    join: impl FnOnce() -> Hnsw,
    union: impl FnOnce() -> Hnsw + Send,
    recs: &[&TableRecord],
    [join_span, union_span]: [&'static str; 2],
) -> (Hnsw, Hnsw) {
    std::thread::scope(|s| {
        let union_lane = s.spawn(|| {
            let _g = tsfm_obs::span!(union_span);
            fill_graph(union(), recs, union_features)
        });
        let join_index = {
            let _g = tsfm_obs::span!(join_span);
            fill_graph(join(), recs, join_features)
        };
        // A lane only panics on a bug; re-raise it on the caller.
        (join_index, union_lane.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
    })
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
    /// keep the *last* occurrence. The join and union graphs fill side by
    /// side ([`fill_lanes`]).
    pub fn build(records: &[TableRecord], minhash_k: usize, hnsw_cfg: HnswConfig) -> Self {
        let recs = canonical(records);
        let union_dim = 2 * minhash_k + tsfm_sketch::numeric::NUMERIC_SKETCH_DIM;
        let union_cfg = hnsw_cfg.clone();
        let (join_index, union_index) = fill_lanes(
            move || Hnsw::new(minhash_k, Metric::Cosine, hnsw_cfg),
            move || Hnsw::new(union_dim, Metric::Cosine, union_cfg),
            &recs,
            ["engine.build.join", "engine.build.union"],
        );
        let ids = recs.iter().map(|r| r.table_id().to_string()).collect();
        let mut e = Self::empty(minhash_k, ids, join_index, union_index);
        for (ti, r) in recs.iter().enumerate() {
            e.push_record(ti, r);
        }
        e
    }

    /// Derive the engine over this one's tables minus `removed`, with
    /// `upserts` — the records of changed and added tables — inserted
    /// (module docs, "Spans"). Only `upserts` are read; an id in both
    /// lists is an update. Both graphs are forked, the upserted columns
    /// appended in ascending-id order (duplicate ids keep the last record)
    /// on the two lanes [`QueryEngine::build`] uses, and the spans of
    /// removed and replaced tables turn dead.
    ///
    /// `None` when the result would hold dead nodes on
    /// [`DEAD_REBUILD_DIVISOR`]⁻¹ or more of its nodes: the caller builds
    /// from the live records instead.
    pub fn update(&self, removed: &[String], upserts: &[TableRecord]) -> Option<Self> {
        let upserts = canonical(upserts);
        let mut dies = vec![false; self.ids.len()];
        for id in removed.iter().map(String::as_str).chain(upserts.iter().map(|r| r.table_id())) {
            if let Some(ti) = self.table_idx(id) {
                dies[ti] = true;
            }
        }
        let dead = self.col_owner.iter().filter(|&&t| t == DEAD || dies[t]).count();
        let nodes = self.col_owner.len()
            + upserts.iter().map(|r| r.sketch.columns.len()).sum::<usize>();
        if dead * DEAD_REBUILD_DIVISOR >= nodes.max(1) {
            return None;
        }
        let (join_index, union_index) = fill_lanes(
            || self.join_index.clone(),
            || self.union_index.clone(),
            &upserts,
            ["engine.update.join", "engine.update.union"],
        );
        let mut ids: Vec<String> =
            self.ids.iter().zip(&dies).filter(|(_, &d)| !d).map(|(id, _)| id.clone()).collect();
        ids.extend(upserts.iter().map(|r| r.table_id().to_string()));
        ids.sort_unstable();
        // Old dense index → new one; a dying table's nodes go dead.
        let remap: Vec<usize> = self
            .ids
            .iter()
            .zip(&dies)
            .map(|(id, &d)| if d { DEAD } else { dense_idx(&ids, id).unwrap_or(DEAD) })
            .collect();
        let owner = |t: usize| if t == DEAD { DEAD } else { remap[t] };
        let mut e = Self {
            minhash_k: self.minhash_k,
            spans: self.spans.iter().map(|s| Span { table: owner(s.table), ..*s }).collect(),
            col_owner: self.col_owner.iter().map(|&t| owner(t)).collect(),
            col_names: self.col_names.clone(),
            join_index,
            union_index,
            content_lsh: self.content_lsh.clone(),
            ids,
        };
        for r in upserts {
            e.push_record(dense_idx(&e.ids, r.table_id()).unwrap_or(DEAD), r);
        }
        Some(e)
    }

    /// Build from pre-built HNSW graphs and per-span metadata alone — no
    /// [`TableRecord`]s (the catalog's index-cache path). `meta` lists
    /// every span in node order, as [`QueryEngine::spans`] emits them.
    /// Duplicate live ids, snapshot widths, node counts, and dimensions
    /// are all validated so a garbled cache surfaces as a typed
    /// [`StoreError::Corrupt`], never a panic.
    pub fn from_meta(
        meta: Vec<SpanMeta>,
        minhash_k: usize,
        join_index: Hnsw,
        union_index: Hnsw,
    ) -> StoreResult<Self> {
        let ncols: usize = meta.iter().map(|m| m.column_names.len()).sum();
        check_graphs(ncols, minhash_k, &join_index, &union_index)?;
        let mut ids: Vec<String> = meta.iter().filter_map(|m| m.table_id.clone()).collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(StoreError::corrupt(
                "TSFMIDX1",
                format!("engine metadata lists table {:?} twice", w[0]),
            ));
        }
        let mut e = Self::empty(minhash_k, ids, join_index, union_index);
        for m in meta {
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
            let ti = m.table_id.as_deref().and_then(|id| e.table_idx(id)).unwrap_or(DEAD);
            e.push_span(ti, m.content_snapshot, m.column_names);
        }
        Ok(e)
    }

    /// An engine over `ids` and the given graphs with no spans yet; every
    /// constructor then adds spans in node order with
    /// [`QueryEngine::push_span`].
    fn empty(minhash_k: usize, ids: Vec<String>, join_index: Hnsw, union_index: Hnsw) -> Self {
        let (bands, rows) = content_banding(minhash_k);
        Self {
            minhash_k,
            ids,
            spans: Vec::new(),
            col_owner: Vec::new(),
            col_names: Vec::new(),
            join_index,
            union_index,
            content_lsh: MinHashLsh::new(bands, rows),
        }
    }

    /// Append the span of dense table `table` (or [`DEAD`]): its LSH entry
    /// and one owner and name per column. Its graph nodes are the next
    /// ones, added by the caller in the same order.
    fn push_span(
        &mut self,
        table: usize,
        snapshot: MinHash,
        names: impl IntoIterator<Item = String>,
    ) {
        self.spans.push(Span { table, first_node: self.col_names.len() });
        self.content_lsh.add(snapshot);
        for name in names {
            self.col_owner.push(table);
            self.col_names.push(name);
        }
    }

    /// [`QueryEngine::push_span`] for a record's table.
    fn push_record(&mut self, table: usize, r: &TableRecord) {
        let names = r.sketch.columns.iter().map(|c| c.name.clone());
        self.push_span(table, r.sketch.content_snapshot.clone(), names);
    }

    /// Every span in node order, as [`SpanMeta`] persists it — live table
    /// id (`None` when dead), content snapshot, column names — borrowed
    /// from the engine's own state.
    pub fn spans(&self) -> impl ExactSizeIterator<Item = (Option<&str>, &MinHash, &[String])> {
        (0..self.spans.len()).map(|s| {
            let ti = self.spans[s].table;
            let id = (ti != DEAD).then(|| self.ids[ti].as_str());
            (id, self.content_lsh.signature(s), &self.col_names[self.span_nodes(s)])
        })
    }

    /// The graph nodes of span `s`.
    fn span_nodes(&self, s: usize) -> Range<usize> {
        let end = self.spans.get(s + 1).map_or(self.col_names.len(), |next| next.first_node);
        self.spans[s].first_node..end
    }

    /// Whether this engine is what [`QueryEngine::build`] makes of its
    /// live records: one span per table, in id order, none dead.
    pub fn is_canonical(&self) -> bool {
        self.spans.len() == self.ids.len()
            && self.spans.iter().enumerate().all(|(s, span)| span.table == s)
    }

    /// Graph nodes whose table was removed or replaced since the last
    /// canonical build.
    pub fn dead_columns(&self) -> usize {
        self.col_owner.iter().filter(|&&t| t == DEAD).count()
    }

    /// Heap bytes of the two graphs ([`Hnsw::heap_bytes`]): vectors, norm
    /// roots and link rows — what the engine's indexes hold in memory.
    pub fn index_bytes(&self) -> usize {
        self.join_index.heap_bytes() + self.union_index.heap_bytes()
    }

    /// Number of live tables.
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
        dense_idx(&self.ids, id)
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
    /// `1` runs the serial path inline. A panicking worker fails the
    /// whole batch with a typed [`StoreError::Internal`].
    pub fn search_batch_with_threads(
        &self,
        sketches: &[TableSketch],
        req: &DiscoveryRequest,
        threads: usize,
    ) -> StoreResult<Vec<DiscoveryResponse>> {
        crate::parallel_map(sketches.len(), threads, |i| self.search(&sketches[i], req))?
            .into_iter()
            .collect()
    }

    /// Fig.-6 ranking: per query column, retrieve `k·3` nearest live
    /// corpus columns, collapse to tables, rank by (matching columns,
    /// distance).
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
        let beam = |q: &[f32]| -> Vec<ColumnHit> {
            index
                .search_filtered(q, k_cols, &|col| self.col_owner[col] != DEAD)
                .into_iter()
                .map(|(col, d)| ColumnHit { table: self.col_owner[col], column: col, distance: d })
                .collect()
        };
        // The per-column loop is the query hot path: only the profiled
        // variant pays the stage-timing wrappers, so unprofiled queries
        // keep the tight original shape.
        let per_col: Vec<Vec<ColumnHit>> = if prof.enabled() {
            let mut per_col = Vec::with_capacity(query_cols.len());
            for c in &query_cols {
                prof.time("features", || features(c, &mut buf));
                per_col.push(prof.time("beam", || beam(&buf)));
            }
            per_col
        } else {
            query_cols
                .iter()
                .map(|c| {
                    features(c, &mut buf);
                    beam(&buf)
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


    /// Top `k` live tables by estimated row-set Jaccard. Every LSH
    /// candidate is scored, so dead spans and the query table itself drop
    /// out before the cut, and ties break by dense table index — the
    /// ranking a fresh build over the live tables gives, whatever order an
    /// update appended their spans in.
    fn subset_search(&self, sketch: &TableSketch, req: &DiscoveryRequest) -> Vec<TableHit> {
        let exclude = if req.exclude_self() { self.table_idx(&sketch.table_id) } else { None };
        let mut hits: Vec<(usize, f64)> = self
            .content_lsh
            .search(&sketch.content_snapshot, usize::MAX)
            .into_iter()
            .map(|(s, j)| (self.spans[s].table, j))
            .filter(|&(ti, _)| ti != DEAD && Some(ti) != exclude)
            .collect();
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        hits.truncate(req.k());
        hits.into_iter()
            .map(|(ti, score)| TableHit {
                table_id: self.ids[ti].clone(),
                matching_columns: 0,
                score,
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

/// `records` in ascending table-id order, keeping only the last record of
/// any duplicated id.
fn canonical(records: &[TableRecord]) -> Vec<&TableRecord> {
    let by_id: std::collections::BTreeMap<&str, &TableRecord> =
        records.iter().map(|r| (r.table_id(), r)).collect();
    by_id.into_values().collect()
}

/// Position of `id` in the ascending id list `ids`.
fn dense_idx(ids: &[String], id: &str) -> Option<usize> {
    ids.binary_search_by(|x| x.as_str().cmp(id)).ok()
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

    /// Every span of `e` as the index cache persists it.
    fn metas(e: &QueryEngine) -> Vec<SpanMeta> {
        e.spans()
            .map(|(id, snap, names)| SpanMeta {
                table_id: id.map(str::to_string),
                content_snapshot: snap.clone(),
                column_names: names.to_vec(),
            })
            .collect()
    }

    /// What a reopen from the index cache reconstructs.
    fn reopen(e: &QueryEngine) -> QueryEngine {
        QueryEngine::from_meta(
            metas(e),
            e.minhash_k(),
            tsfm_search::Hnsw::from_snapshot(e.join_index().snapshot()).unwrap(),
            tsfm_search::Hnsw::from_snapshot(e.union_index().snapshot()).unwrap(),
        )
        .unwrap()
    }

    fn assert_same_answers(a: &QueryEngine, b: &QueryEngine, queries: &[&TableSketch]) {
        assert_eq!(a.table_ids(), b.table_ids());
        for mode in QueryMode::ALL {
            let r = DiscoveryRequest::builder(mode)
                .k(3)
                .explain(mode != QueryMode::Subset)
                .build()
                .unwrap();
            for q in queries {
                let (x, y) = (a.search(q, &r).unwrap(), b.search(q, &r).unwrap());
                assert_eq!(x.hits, y.hits, "mode {mode}");
                assert_eq!(x.explanations, y.explanations, "mode {mode}");
            }
        }
    }

    #[test]
    fn from_meta_matches_fresh_build() {
        let (recs, cfg) = corpus();
        let built = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        let queries: Vec<&TableSketch> = recs.iter().map(|r| &r.sketch).collect();
        assert_same_answers(&built, &reopen(&built), &queries);
        // An updated engine, dead spans and all, round-trips exactly too.
        let (recs, cfg) = wide_corpus();
        let (removed, upserts) = churn(&cfg);
        let base = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        let updated = base.update(&removed, &upserts).expect("20 of 340 nodes dead");
        let restored = reopen(&updated);
        assert_eq!(metas(&restored), metas(&updated));
        assert_eq!(restored.dead_columns(), updated.dead_columns());
        let queries: Vec<&TableSketch> = recs.iter().chain(&upserts).map(|r| &r.sketch).collect();
        assert_same_answers(&updated, &restored, &queries);
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
        // A live id listed twice.
        let mut meta = metas(&built);
        meta[1].table_id = meta[0].table_id.clone();
        let (j, u) = graphs();
        let Err(err) = QueryEngine::from_meta(meta, cfg.minhash_k, j, u) else {
            panic!("duplicate live ids must be rejected")
        };
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("twice"), "{err}");
        // A dropped table leaves the graphs with too many nodes.
        let mut meta = metas(&built);
        meta.pop();
        let (j, u) = graphs();
        let Err(err) = QueryEngine::from_meta(meta, cfg.minhash_k, j, u) else {
            panic!("undersized meta must be rejected")
        };
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        // A snapshot of the wrong width is caught before the LSH asserts.
        let mut meta = metas(&built);
        meta[0].content_snapshot = MinHash { sig: vec![1, 2] };
        let (j, u) = graphs();
        let Err(err) = QueryEngine::from_meta(meta, cfg.minhash_k, j, u) else {
            panic!("wrong-width snapshot must be rejected")
        };
        assert!(err.to_string().contains("snapshot width"), "{err}");
    }

    #[test]
    fn with_graphs_matches_fresh_build() {
        let (recs, cfg) = corpus();
        let built = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        let restored = reopen(&built);
        // The persisted graphs are served as handed over, not rebuilt.
        assert_eq!(restored.join_index().snapshot(), built.join_index().snapshot());
        assert_eq!(restored.union_index().snapshot(), built.union_index().snapshot());
        assert_eq!(metas(&restored), metas(&built));
        for mode in QueryMode::ALL {
            assert_eq!(
                built.search(&recs[0].sketch, &req(mode, 3)).unwrap().hits,
                restored.search(&recs[0].sketch, &req(mode, 3)).unwrap().hits
            );
        }
    }

    #[test]
    fn with_graphs_rejects_mismatched_graphs() {
        let (recs, cfg) = corpus();
        let built = QueryEngine::build(&recs, cfg.minhash_k, Default::default());
        let empty = tsfm_search::Hnsw::new(cfg.minhash_k, Metric::Cosine, Default::default());
        let join = tsfm_search::Hnsw::from_snapshot(built.join_index().snapshot()).unwrap();
        let Err(err) = QueryEngine::from_meta(metas(&built), cfg.minhash_k, join, empty) else {
            panic!("mismatched graphs must be rejected")
        };
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    /// A `wide_corpus`-shaped table whose columns are named `{prefix}{c}`
    /// and hold values shifted by `shift`.
    fn wide_record(id: &str, prefix: &str, shift: usize, cfg: &SketchConfig) -> TableRecord {
        let mut table = Table::new(id, id);
        for c in 0..5 {
            let vals = (0..30).map(|i| Value::Str(format!("v{c}-{}", shift + i)));
            table.push_column(Column::new(format!("{prefix}{c}"), vals.collect()));
        }
        TableRecord::from_sketch(TableSketch::build(&table, cfg), 0)
    }

    /// Remove t03 and t10, replace t20 and t21 (columns renamed `d*`), add
    /// u00 and u01: 20 of 340 nodes dead.
    fn churn(cfg: &SketchConfig) -> (Vec<String>, Vec<TableRecord>) {
        let removed = vec!["t03".to_string(), "t10".to_string()];
        let upserts = [("u01", 500), ("t21", 300), ("u00", 400), ("t20", 200)]
            .iter()
            .map(|&(id, shift)| {
                let prefix = if id.starts_with('t') { "d" } else { "c" };
                wide_record(id, prefix, shift, cfg)
            })
            .collect();
        (removed, upserts)
    }

    #[test]
    fn update_forks_inserts_changed_and_hides_dead() {
        let (recs, cfg) = wide_corpus();
        let k = cfg.minhash_k;
        let base = QueryEngine::build(&recs, k, HnswConfig::default());
        assert!(base.is_canonical());
        let (removed, upserts) = churn(&cfg);
        let updated = base.update(&removed, &upserts).expect("well under a quarter dead");
        assert!(!updated.is_canonical());
        assert_eq!((updated.len(), updated.dead_columns()), (64, 20));
        assert_eq!(updated.join_index().link_cache_bytes(), 0, "engine holds no build state");

        // The graphs are the base's plus the upserted columns in id order.
        let (mut join, mut union) = (base.join_index().clone(), base.union_index().clone());
        let mut buf = Vec::new();
        for r in canonical(&upserts) {
            for c in &r.sketch.columns {
                join_features(c, &mut buf);
                join.add(&buf);
                union_features(c, &mut buf);
                union.add(&buf);
            }
        }
        assert_eq!(updated.join_index().snapshot(), join.snapshot());
        assert_eq!(updated.union_index().snapshot(), union.snapshot());

        // No removed table and no replaced version is ever returned.
        let live: Vec<TableRecord> = recs
            .iter()
            .filter(|r| !["t03", "t10", "t20", "t21"].contains(&r.table_id()))
            .chain(&upserts)
            .cloned()
            .collect();
        let fresh = QueryEngine::build(&live, k, HnswConfig::default());
        assert_eq!(updated.table_ids(), fresh.table_ids());
        for q in recs.iter().chain(&upserts).map(|r| &r.sketch) {
            for mode in QueryMode::ALL {
                let r = DiscoveryRequest::builder(mode)
                    .k(10)
                    .exclude_self(false)
                    .explain(mode != QueryMode::Subset)
                    .build()
                    .unwrap();
                let resp = updated.search(q, &r).unwrap();
                assert!(resp.hits.iter().all(|h| h.table_id != "t03" && h.table_id != "t10"));
                for ex in resp.explanations.iter().flatten() {
                    if ex.table_id == "t20" || ex.table_id == "t21" {
                        let replaced = ex.matches.iter().all(|m| m.corpus_column.starts_with('d'));
                        assert!(replaced, "{ex:?}");
                    }
                }
                // Subset ranks every live candidate exactly: same as fresh.
                if mode == QueryMode::Subset {
                    assert_eq!(resp.hits, fresh.search(q, &r).unwrap().hits);
                }
            }
        }
    }

    #[test]
    fn update_declines_at_a_quarter_dead() {
        let (recs, cfg) = wide_corpus();
        let base = QueryEngine::build(&recs, cfg.minhash_k, HnswConfig::default());
        let ids = |n: usize| -> Vec<String> { (0..n).map(|t| format!("t{t:02}")).collect() };
        // 15 tables × 5 columns = 75 of 320 nodes dead: under a quarter.
        let grown = base.update(&ids(15), &[]).expect("75 of 320 dead");
        assert_eq!((grown.len(), grown.dead_columns()), (49, 75));
        assert!(base.update(&ids(16), &[]).is_none(), "80 of 320 is a quarter");
        // Dead nodes accumulate across updates.
        assert!(grown.update(&["t40".to_string()], &[]).is_none());
    }

    /// An update runs beside queries on the engine it forks (the catalog
    /// serving its previous snapshot): neither disturbs the other. Here so
    /// the nightly TSan job sees the forked lanes and the batch fan-out
    /// overlap; the barrier makes them start together.
    #[test]
    fn update_beside_search_batch_on_previous_engine() {
        let (recs, cfg) = wide_corpus();
        let serving = QueryEngine::build(&recs, cfg.minhash_k, HnswConfig::default());
        let (removed, upserts) = churn(&cfg);
        let sketches: Vec<TableSketch> = recs.iter().take(16).map(|r| r.sketch.clone()).collect();
        let r = req(QueryMode::Join, 5);
        let want: Vec<Vec<TableHit>> =
            sketches.iter().map(|s| serving.search(s, &r).unwrap().hits).collect();
        let start = std::sync::Barrier::new(2);
        let updated = std::thread::scope(|s| {
            let updater = s.spawn(|| {
                start.wait();
                serving.update(&removed, &upserts)
            });
            start.wait();
            for _ in 0..4 {
                let got = serving.search_batch_with_threads(&sketches, &r, 2).unwrap();
                let got: Vec<Vec<TableHit>> = got.into_iter().map(|b| b.hits).collect();
                assert_eq!(got, want);
            }
            updater.join().unwrap().expect("under a quarter dead")
        });
        let serial = serving.update(&removed, &upserts).expect("under a quarter dead");
        assert_eq!(updated.join_index().snapshot(), serial.join_index().snapshot());
        assert_eq!(updated.union_index().snapshot(), serial.union_index().snapshot());
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
