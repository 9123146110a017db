//! Hierarchical Navigable Small World graphs (Malkov & Yashunin, 2020) —
//! the ANN index DeepJoin uses for joinable-column search.
//!
//! Standard construction: each node draws a level from a geometric
//! distribution; greedy search descends from the top layer to layer 1 and
//! a best-first beam (`ef`) explores layer 0. Neighbour lists keep the `M`
//! closest candidates (simple selection, no pruning heuristic — adequate
//! for the corpus sizes here and easier to validate against brute force).
//!
//! ## Hot-path layout
//!
//! Node vectors live in one contiguous row-major `f32` arena with a cached
//! squared norm per row, so a cosine distance is a single fused dot
//! product over adjacent memory ([`Metric::distance_prenorm`]). Queries
//! track visited nodes with an epoch-stamped list and reuse their
//! candidate/result heaps via [`SearchScratch`]; [`Hnsw::search`] hands
//! scratch out from a per-thread pool, so batched fan-outs (e.g.
//! `tsfm_store`'s `search_batch`) allocate nothing per query after warmup.
//!
//! ## Build-side state: the link-distance cache
//!
//! Connecting a new node pushes it onto each chosen neighbour's list and
//! trims that list back to the `m_max` closest. The distance of every
//! link on the list was already computed when the link was made — by the
//! beam search that found it — so [`Hnsw::add`] keeps it beside the link
//! (`link_dists[node][layer][i]` parallels `neighbors[layer][i]`) and
//! trims by sorting the cached pairs instead of re-deriving `m_max + 1`
//! distances per neighbour per insert. A cached value is the distance the
//! trim used to recompute, to the bit: `dist(query = v_id, n)` and
//! `dist_nodes(n, id)` are the same IEEE expression over the same rows
//! with commutative operands swapped.
//!
//! The cache is *build-side* state, kept apart from the nodes that
//! queries read, with this lifetime:
//!
//! * it is not part of [`HnswSnapshot`] / `TSFMHNS1`;
//! * [`Hnsw::from_snapshot`] leaves it empty and allocates nothing for
//!   it; the first insert that links to an imported node fills that
//!   node's row (`dist_nodes` over its current lists), so a restart pays
//!   nothing and insert-after-import continues the identical graph;
//! * [`Hnsw::release_link_cache`] drops it (and the insert scratch) once
//!   a build is done — `QueryEngine::build` calls it before returning, so
//!   a serving process does not hold ~100 B per column it never reads.
//!   Inserting afterwards is still correct: rows refill on first touch.
//!
//! An insert also allocates nothing per layer or per neighbour: the beam
//! result, the trim buffer and (through the thread's [`SearchScratch`])
//! the heaps are reused, the query is the caller's slice, and lists are
//! trimmed in place.
//!
//! All of this is bit-for-bit behavior-preserving — graphs and query
//! results are pinned by `tests/determinism.rs`, and the `TSFMHNS1`
//! serialization (which never stored norms or link distances) is
//! unchanged.
//!
//! ## Dead nodes
//!
//! The graph has no delete. A caller that retires a vector (a removed or
//! replaced table in `tsfm_store`) leaves its node in place as a *dead*
//! node and says which ids are live through the predicate of
//! [`Hnsw::search_filtered`] — hnswlib's `mark_deleted` behaviour, with
//! the liveness kept by the caller instead of inside the graph. A dead
//! node still routes: greedy descent and the layer-0 beam expand it like
//! any other candidate. It is only never admitted to the results heap, so
//! a query still gets `k` live results whenever `k` live nodes are
//! reachable, and the beam's stop test compares against live results
//! only. [`Hnsw::search`] is the same search with an always-true
//! predicate; on a graph without dead nodes both return bit-identical
//! results. Each dead node costs routing work and a slot that a live
//! neighbour could hold, so a caller rebuilds once dead nodes reach
//! [`DEAD_REBUILD_DIVISOR`]⁻¹ of the graph. A clone ([`Clone`]) carries
//! the nodes and RNG state but no build-side state, so forking a serving
//! graph and inserting into the fork continues exactly as inserting into
//! the original would.

use crate::knn::Metric;
use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

/// Registry handles resolved once so the insert/search hot paths pay one
/// atomic add per call instead of a name lookup in the global registry.
struct HnswCounters {
    inserts: Arc<tsfm_obs::metrics::Counter>,
    searches: Arc<tsfm_obs::metrics::Counter>,
}

fn hnsw_counters() -> &'static HnswCounters {
    static C: OnceLock<HnswCounters> = OnceLock::new();
    C.get_or_init(|| {
        let reg = tsfm_obs::metrics::global();
        HnswCounters {
            inserts: reg.counter("tsfm_hnsw_inserts_total", "HNSW vectors inserted"),
            searches: reg.counter("tsfm_hnsw_searches_total", "HNSW beam searches"),
        }
    })
}

/// Ordered (distance, id) pair for the results max-heap: the greatest item
/// is the farthest candidate, and among equal distances the *largest* id,
/// so popping the overflow always discards the same element regardless of
/// heap-internal ordering.
#[derive(PartialEq)]
struct HeapItem(f32, usize);

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.1.cmp(&other.1))
    }
}

/// Ordered (distance, id) pair for the candidates min-heap: the greatest
/// item is the *closest* candidate, and among equal distances the
/// *smallest* id. `Reverse<HeapItem>` would flip the id tie-break too,
/// expanding equal-distance nodes in descending-id order; this wrapper
/// keeps exploration order ascending by id so neighbour lists are a pure
/// function of insertion order (see `tests/determinism.rs`).
#[derive(PartialEq)]
struct MinItem(f32, usize);

impl Eq for MinItem {}

impl PartialOrd for MinItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MinItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .0
            .partial_cmp(&self.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(other.1.cmp(&self.1))
    }
}

/// HNSW construction/search parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HnswConfig {
    /// Max neighbours per node on layers ≥ 1 (layer 0 keeps `2·m`).
    pub m: usize,
    pub ef_construction: usize,
    pub ef_search: usize,
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self { m: 12, ef_construction: 64, ef_search: 48, seed: 0x45f7 }
    }
}

/// A graph whose dead nodes (module docs, "Dead nodes") reach
/// `1 / DEAD_REBUILD_DIVISOR` of all its nodes is rebuilt from its live
/// vectors instead of grown further — the same quarter at which
/// `tsfm_store` compacts loose churn into shards.
///
/// Measured by `tests::quarter_dead_graph_keeps_recall` at exactly this
/// limit: 2 400 random 48-d cosine vectors, 800 more inserted and 800 of
/// the first 2 400 dead (a quarter of 3 200 nodes), default config, 50
/// queries. Against an exact scan (`BruteForceIndex`) of the 2 400 live
/// vectors, recall@10 is 0.958 for the grown graph with its dead nodes
/// filtered in the beam, beside 0.966 for a fresh build over the same
/// live vectors.
pub const DEAD_REBUILD_DIVISOR: usize = 4;

#[derive(Clone)]
struct Node {
    /// Neighbour lists per layer, `neighbors[l]` for layer `l`.
    neighbors: Vec<Vec<usize>>,
}

/// What only [`Hnsw::add`] uses (module docs, "Build-side state"): the
/// link-distance cache and the insert's reusable buffers. `Default` is
/// the released state and owns no heap memory.
#[derive(Default)]
struct BuildState {
    /// `link_dists[n][l][i]` = distance from `n` to `neighbors[l][i]` of
    /// node `n`. An empty row means "not filled yet" (every node has at
    /// least layer 0, so a filled row is never empty).
    link_dists: Vec<Vec<Vec<f32>>>,
    /// Beam result of the layer being connected, ascending by distance.
    found: Vec<(usize, f32)>,
    /// `(neighbour, distance)` pairs of the list being trimmed.
    trim: Vec<(usize, f32)>,
}

/// A complete, serializable copy of an [`Hnsw`]'s state (`tsfm_store`
/// persists it as the `TSFMHNS1` section of the index cache).
#[derive(Debug, Clone, PartialEq)]
pub struct HnswSnapshot {
    pub cfg: HnswConfig,
    pub dim: usize,
    pub metric: Metric,
    /// Row-major vector buffer, `dim` floats per node.
    pub data: Vec<f32>,
    /// `neighbors[id][layer]` = neighbour ids of `id` on `layer`.
    pub neighbors: Vec<Vec<Vec<usize>>>,
    pub entry: Option<usize>,
    pub max_level: usize,
    pub rng_state: u64,
}

/// Reusable per-query search state: the epoch-stamped visited list and
/// the candidate/result heaps. One `begin` bumps the epoch, which marks
/// every previous query's stamps stale in O(1) — no clearing, no
/// rehashing, no allocation once the list has grown to the index size.
///
/// [`Hnsw::search`] takes scratch from a per-thread pool automatically;
/// callers that manage their own threads can hold a `SearchScratch` and
/// use [`Hnsw::search_with_scratch`] directly. A scratch may be reused
/// freely across queries and across indexes.
#[derive(Default)]
pub struct SearchScratch {
    /// `stamps[id] == epoch` ⇔ `id` visited by the current query.
    stamps: Vec<u32>,
    epoch: u32,
    candidates: BinaryHeap<MinItem>,
    results: BinaryHeap<HeapItem>,
}

impl SearchScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new query over an index of `n` nodes.
    fn begin(&mut self, n: usize) {
        self.candidates.clear();
        self.results.clear();
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wrapped: old stamps could alias the new epoch.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Mark `id` visited; `true` if it was not already.
    #[inline]
    fn visit(&mut self, id: usize) -> bool {
        if self.stamps[id] == self.epoch {
            false
        } else {
            self.stamps[id] = self.epoch;
            true
        }
    }
}

thread_local! {
    /// The per-thread scratch pool behind [`Hnsw::search`]: each worker
    /// thread of a batch fan-out reuses one visited list and one pair of
    /// heaps across all its queries.
    static SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::new());
}

/// The index. Ids are dense insertion order, matching
/// [`crate::knn::BruteForceIndex`] so the two are interchangeable.
pub struct Hnsw {
    cfg: HnswConfig,
    dim: usize,
    metric: Metric,
    /// Row-major vector arena, `dim` floats per node.
    data: Vec<f32>,
    /// Cached squared norm per node (see [`Metric::norm_cache`]); not
    /// serialized — recomputed on snapshot import.
    norms: Vec<f32>,
    nodes: Vec<Node>,
    entry: Option<usize>,
    max_level: usize,
    rng_state: u64,
    /// Insert-only state; never read by a query, never serialized.
    build: BuildState,
}

/// A fork of the graph: nodes, vectors, norms and RNG state, but not the
/// build-side state (module docs) — like [`Hnsw::from_snapshot`], the
/// clone refills link-distance rows on first touch, so inserting into it
/// continues the identical graph.
impl Clone for Hnsw {
    fn clone(&self) -> Self {
        Self {
            cfg: self.cfg.clone(),
            dim: self.dim,
            metric: self.metric,
            data: self.data.clone(),
            norms: self.norms.clone(),
            nodes: self.nodes.clone(),
            entry: self.entry,
            max_level: self.max_level,
            rng_state: self.rng_state,
            build: BuildState::default(),
        }
    }
}

/// Ascending by distance, ties by ascending id — the one order beam
/// results and trimmed neighbour lists are kept in.
fn by_distance_then_id(a: &(usize, f32), b: &(usize, f32)) -> std::cmp::Ordering {
    a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
}

impl Hnsw {
    pub fn new(dim: usize, metric: Metric, cfg: HnswConfig) -> Self {
        let rng_state = cfg.seed | 1;
        Self {
            cfg,
            dim,
            metric,
            data: Vec::new(),
            norms: Vec::new(),
            nodes: Vec::new(),
            entry: None,
            max_level: 0,
            rng_state,
            build: BuildState::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn vector(&self, id: usize) -> &[f32] {
        &self.data[id * self.dim..(id + 1) * self.dim]
    }

    /// Distance from a query (with its precomputed squared norm) to a
    /// stored node: one dot product over the arena row plus the cached
    /// node norm.
    #[inline]
    fn dist(&self, q: &[f32], q_norm: f32, id: usize) -> f32 {
        self.metric.distance_prenorm(q, q_norm, self.vector(id), self.norms[id])
    }

    /// Distance between two stored nodes, both norms cached.
    #[inline]
    fn dist_nodes(&self, a: usize, b: usize) -> f32 {
        self.metric.distance_prenorm(self.vector(a), self.norms[a], self.vector(b), self.norms[b])
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn random_level(&mut self) -> usize {
        // Geometric with p related to 1/ln(M): level = floor(-ln(u)·mL).
        let u = ((self.next_rand() >> 40) as f64 + 0.5) / (1u64 << 24) as f64;
        let ml = 1.0 / (self.cfg.m.max(2) as f64).ln();
        (-u.ln() * ml).floor() as usize
    }

    /// Greedy descent on one layer: move to the closest neighbour until no
    /// improvement.
    fn greedy(&self, q: &[f32], q_norm: f32, mut cur: usize, layer: usize) -> usize {
        let mut cur_d = self.dist(q, q_norm, cur);
        loop {
            let mut improved = false;
            for &n in &self.nodes[cur].neighbors[layer] {
                let d = self.dist(q, q_norm, n);
                if d < cur_d {
                    cur = n;
                    cur_d = d;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Best-first beam search on one layer; overwrites `out` with up to
    /// `ef` closest nodes that `keep` admits, ascending. Every reached
    /// node is expanded; only admitted ones enter the results heap (module
    /// docs, "Dead nodes"). With an always-true `keep` this is exactly the
    /// original `HashSet`-visited implementation: the epoch stamps
    /// replicate `insert`-returns-false semantics, and the heaps see the
    /// same push/pop sequence.
    #[allow(clippy::too_many_arguments)]
    fn search_layer(
        &self,
        q: &[f32],
        q_norm: f32,
        entry: usize,
        ef: usize,
        layer: usize,
        keep: impl Fn(usize) -> bool,
        scratch: &mut SearchScratch,
        out: &mut Vec<(usize, f32)>,
    ) {
        let entry_d = self.dist(q, q_norm, entry);
        scratch.begin(self.nodes.len());
        scratch.visit(entry);
        // candidates: min-heap by (distance, id); results: max-heap.
        scratch.candidates.push(MinItem(entry_d, entry));
        if keep(entry) {
            scratch.results.push(HeapItem(entry_d, entry));
        }
        while let Some(MinItem(cd, c)) = scratch.candidates.pop() {
            // An empty results heap (ef == 0, or no admitted node reached
            // yet) must not terminate the whole query.
            let worst = scratch.results.peek().map_or(f32::INFINITY, |h| h.0);
            if cd > worst && scratch.results.len() >= ef {
                break;
            }
            let neighbors = &self.nodes[c].neighbors[layer];
            // Touch the first cache line of every unvisited neighbour's
            // arena row before the distance loop: the loads overlap
            // instead of serializing on one miss per distance call. Pure
            // reads — results are unchanged. (dim 0 has no rows to touch.)
            if self.dim > 0 {
                for &n in neighbors {
                    if scratch.stamps[n] != scratch.epoch {
                        std::hint::black_box(self.data[n * self.dim]);
                    }
                }
            }
            for &n in neighbors {
                if !scratch.visit(n) {
                    continue;
                }
                let d = self.dist(q, q_norm, n);
                let worst = scratch.results.peek().map_or(f32::INFINITY, |h| h.0);
                if scratch.results.len() < ef || d < worst {
                    scratch.candidates.push(MinItem(d, n));
                    if keep(n) {
                        scratch.results.push(HeapItem(d, n));
                        if scratch.results.len() > ef {
                            scratch.results.pop();
                        }
                    }
                }
            }
        }
        out.clear();
        out.extend(scratch.results.drain().map(|HeapItem(d, i)| (i, d)));
        out.sort_by(by_distance_then_id);
    }

    /// Max neighbours a node keeps on `layer`.
    fn m_max(&self, layer: usize) -> usize {
        if layer == 0 {
            self.cfg.m * 2
        } else {
            self.cfg.m
        }
    }

    /// One empty list per layer `0..=level`. A list holds at most
    /// `m_max + 1` entries (one push, then the trim), so sizing it once
    /// means it never reallocates.
    fn empty_lists<T>(&self, level: usize) -> Vec<Vec<T>> {
        (0..=level).map(|l| Vec::with_capacity(self.m_max(l) + 1)).collect()
    }

    /// Insert a vector, returning its id.
    pub fn add(&mut self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dim, "vector dim");
        let _g = tsfm_obs::span!("hnsw.insert");
        hnsw_counters().inserts.inc();
        let id = self.nodes.len();
        let level = self.random_level();
        let q_norm = self.metric.norm_cache(v);
        self.data.extend_from_slice(v);
        self.norms.push(q_norm);
        self.nodes.push(Node { neighbors: self.empty_lists(level) });

        let Some(mut cur) = self.entry else {
            self.entry = Some(id);
            self.max_level = level;
            return id;
        };

        // Descend layers above the new node's level greedily.
        for l in ((level + 1)..=self.max_level).rev() {
            cur = self.greedy(v, q_norm, cur, l);
        }
        // Taken out so its buffers can be borrowed beside `&mut self`;
        // put back below.
        let mut build = std::mem::take(&mut self.build);
        let BuildState { link_dists, found, trim } = &mut build;
        // Rows of nodes that arrived without distances (imported, or
        // inserted before a release) start empty and fill on first touch.
        link_dists.resize_with(id, Vec::new);
        link_dists.push(self.empty_lists(level));
        // Connect on each layer from min(level, max_level) down to 0.
        for l in (0..=level.min(self.max_level)).rev() {
            SCRATCH.with(|s| {
                let ef = self.cfg.ef_construction;
                self.search_layer(v, q_norm, cur, ef, l, |_| true, &mut s.borrow_mut(), found);
            });
            let m_max = self.m_max(l);
            for &(n, d) in found.iter().take(m_max) {
                self.nodes[id].neighbors[l].push(n);
                link_dists[id][l].push(d);
                if link_dists[n].is_empty() {
                    link_dists[n] = self.link_distances(n);
                }
                // `d` is dist(v, n), bit-equal to dist_nodes(n, id).
                let links = &mut self.nodes[n].neighbors[l];
                let dists = &mut link_dists[n][l];
                links.push(id);
                dists.push(d);
                // Trim the neighbour's list if it overflowed.
                if links.len() > m_max {
                    trim.clear();
                    trim.extend(links.iter().copied().zip(dists.iter().copied()));
                    trim.sort_by(by_distance_then_id);
                    trim.truncate(m_max);
                    links.clear();
                    links.extend(trim.iter().map(|&(x, _)| x));
                    dists.clear();
                    dists.extend(trim.iter().map(|&(_, dx)| dx));
                }
            }
            if let Some(&(best, _)) = found.first() {
                cur = best;
            }
        }
        self.build = build;
        if level > self.max_level {
            self.max_level = level;
            self.entry = Some(id);
        }
        id
    }

    /// The link-distance row of a node that has none yet: the distance of
    /// every link on every layer, exactly as the trim would derive it.
    fn link_distances(&self, n: usize) -> Vec<Vec<f32>> {
        let layers = &self.nodes[n].neighbors;
        layers.iter().map(|links| links.iter().map(|&x| self.dist_nodes(n, x)).collect()).collect()
    }

    /// Drop the build-side state (module docs, "Build-side state"). Call
    /// once a graph is built and will only be searched; a later
    /// [`Hnsw::add`] still continues the identical graph.
    pub fn release_link_cache(&mut self) {
        self.build = BuildState::default();
    }

    /// Heap bytes the build-side state holds: 0 for a graph that came
    /// from [`Hnsw::from_snapshot`] or was released and not inserted into
    /// since.
    pub fn link_cache_bytes(&self) -> usize {
        use std::mem::size_of;
        let b = &self.build;
        let rows: usize = b
            .link_dists
            .iter()
            .map(|row| {
                row.capacity() * size_of::<Vec<f32>>()
                    + row.iter().map(|d| d.capacity() * size_of::<f32>()).sum::<usize>()
            })
            .sum();
        b.link_dists.capacity() * size_of::<Vec<Vec<f32>>>()
            + rows
            + (b.found.capacity() + b.trim.capacity()) * size_of::<(usize, f32)>()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn metric(&self) -> Metric {
        self.metric
    }

    pub fn config(&self) -> &HnswConfig {
        &self.cfg
    }

    /// The row-major vector arena, [`Hnsw::dim`] floats per node.
    pub fn vectors(&self) -> &[f32] {
        &self.data
    }

    /// Per node in id order, its neighbour lists by layer — borrowed, for
    /// serializers that walk the graph once ([`Hnsw::snapshot`] clones).
    pub fn layers(&self) -> impl ExactSizeIterator<Item = &[Vec<usize>]> {
        self.nodes.iter().map(|n| n.neighbors.as_slice())
    }

    pub fn entry(&self) -> Option<usize> {
        self.entry
    }

    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// State of the level generator: the next insert draws from here.
    pub fn rng_state(&self) -> u64 {
        self.rng_state
    }

    /// Export the full graph state for persistence. Together with
    /// [`Hnsw::from_snapshot`] this round-trips exactly: an imported index
    /// answers every query identically and continues inserting with the
    /// same RNG stream as the original.
    pub fn snapshot(&self) -> HnswSnapshot {
        HnswSnapshot {
            cfg: self.cfg.clone(),
            dim: self.dim,
            metric: self.metric,
            data: self.data.clone(),
            neighbors: self.nodes.iter().map(|n| n.neighbors.clone()).collect(),
            entry: self.entry,
            max_level: self.max_level,
            rng_state: self.rng_state,
        }
    }

    /// Rebuild an index from an exported snapshot, validating internal
    /// consistency (vector buffer size, neighbour ids, entry point) so a
    /// corrupt snapshot is rejected instead of panicking later.
    pub fn from_snapshot(s: HnswSnapshot) -> Result<Self, String> {
        if s.dim == 0 {
            return Err("snapshot dim must be positive".into());
        }
        if s.data.len() % s.dim != 0 {
            return Err(format!(
                "vector buffer length {} is not a multiple of dim {}",
                s.data.len(),
                s.dim
            ));
        }
        let n = s.data.len() / s.dim;
        if s.neighbors.len() != n {
            return Err(format!("{} nodes but {} neighbour lists", n, s.neighbors.len()));
        }
        for (id, layers) in s.neighbors.iter().enumerate() {
            if layers.is_empty() {
                return Err(format!("node {id} has no layers"));
            }
            for (l, layer) in layers.iter().enumerate() {
                if let Some(&bad) = layer.iter().find(|&&x| x >= n) {
                    return Err(format!("node {id} links to out-of-range node {bad}"));
                }
                // Search follows layer-l links assuming the target also has
                // a layer l; a link to a shorter node would panic later.
                if let Some(&bad) =
                    layer.iter().find(|&&x| s.neighbors[x].len() <= l)
                {
                    return Err(format!(
                        "node {id} links to node {bad} on layer {l}, which it lacks"
                    ));
                }
            }
        }
        match (s.entry, n) {
            (None, 0) => {}
            (Some(e), n) if n > 0 && e < n => {
                // Greedy descent starts at `entry` on layer `max_level`.
                if s.neighbors[e].len() <= s.max_level {
                    return Err(format!(
                        "entry node {e} has {} layers but max_level is {}",
                        s.neighbors[e].len(),
                        s.max_level
                    ));
                }
            }
            (entry, n) => return Err(format!("entry {entry:?} invalid for {n} nodes")),
        }
        // Norms are an in-memory cache only — `TSFMHNS1` never stores
        // them — so recompute from the arena.
        let norms = (0..n).map(|i| s.metric.norm_cache(&s.data[i * s.dim..(i + 1) * s.dim])).collect();
        Ok(Self {
            cfg: s.cfg,
            dim: s.dim,
            metric: s.metric,
            data: s.data,
            norms,
            nodes: s.neighbors.into_iter().map(|neighbors| Node { neighbors }).collect(),
            entry: s.entry,
            max_level: s.max_level,
            rng_state: s.rng_state,
            build: BuildState::default(),
        })
    }

    /// Approximate top-k by ascending distance, using the calling
    /// thread's scratch pool: the beam of [`Hnsw::search_filtered`] with
    /// every node live.
    pub fn search(&self, q: &[f32], k: usize) -> Vec<(usize, f32)> {
        SCRATCH.with(|s| self.beam(q, k, |_| true, &mut s.borrow_mut()))
    }

    /// Approximate top-k among the nodes `keep` admits; the rest are dead
    /// nodes — routed through, never returned (module docs, "Dead
    /// nodes"). `keep` is a trait object so the beam is compiled here,
    /// beside the distance kernels it inlines, rather than in each
    /// caller's crate: a generic instantiated downstream measured up to
    /// 14 % slower per query (8 192 nodes, 80-d, 2 vCPUs), the trait
    /// object within noise of [`Hnsw::search`].
    pub fn search_filtered(
        &self,
        q: &[f32],
        k: usize,
        keep: &dyn Fn(usize) -> bool,
    ) -> Vec<(usize, f32)> {
        SCRATCH.with(|s| self.beam(q, k, keep, &mut s.borrow_mut()))
    }

    /// [`Hnsw::search`] with caller-managed scratch. Results are
    /// identical regardless of the scratch's history; reusing one scratch
    /// across queries (and indexes) just avoids the per-query allocations.
    pub fn search_with_scratch(
        &self,
        q: &[f32],
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Vec<(usize, f32)> {
        self.beam(q, k, |_| true, scratch)
    }

    /// The one query path: greedy descent to layer 1, then the layer-0
    /// beam admitting only what `keep` accepts.
    fn beam(
        &self,
        q: &[f32],
        k: usize,
        keep: impl Fn(usize) -> bool,
        scratch: &mut SearchScratch,
    ) -> Vec<(usize, f32)> {
        let _g = tsfm_obs::span!("hnsw.search");
        hnsw_counters().searches.inc();
        let Some(mut cur) = self.entry else {
            return Vec::new();
        };
        let q_norm = self.metric.norm_cache(q);
        for l in (1..=self.max_level).rev() {
            cur = self.greedy(q, q_norm, cur, l);
        }
        let ef = self.cfg.ef_search.max(k);
        let mut out = Vec::new();
        self.search_layer(q, q_norm, cur, ef, 0, keep, scratch, &mut out);
        out.truncate(k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::BruteForceIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vecs(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect()
    }

    #[test]
    fn dim_zero_degenerate_but_safe() {
        // A zero-dimensional index is useless but must not panic (the
        // prefetch touch has no arena row to read).
        let mut h = Hnsw::new(0, Metric::Euclidean, HnswConfig::default());
        for _ in 0..3 {
            h.add(&[]);
        }
        let hits = h.search(&[], 2);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|&(_, d)| d == 0.0));
    }

    #[test]
    fn empty_and_single() {
        let mut h = Hnsw::new(3, Metric::Euclidean, HnswConfig::default());
        assert!(h.search(&[0.0; 3], 5).is_empty());
        h.add(&[1.0, 2.0, 3.0]);
        let hits = h.search(&[1.0, 2.0, 3.0], 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 0);
    }

    #[test]
    fn exact_on_small_sets() {
        // With ef >= n the beam search must be exact.
        let vecs = random_vecs(40, 8, 1);
        let mut h = Hnsw::new(
            8,
            Metric::Euclidean,
            HnswConfig { ef_search: 64, ef_construction: 64, ..Default::default() },
        );
        let mut bf = BruteForceIndex::new(8, Metric::Euclidean);
        for v in &vecs {
            h.add(v);
            bf.add(v);
        }
        for q in random_vecs(10, 8, 2) {
            let a: Vec<usize> = h.search(&q, 5).into_iter().map(|(i, _)| i).collect();
            let b: Vec<usize> = bf.search(&q, 5).into_iter().map(|(i, _)| i).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn high_recall_on_larger_sets() {
        let vecs = random_vecs(800, 16, 3);
        let mut h = Hnsw::new(16, Metric::Cosine, HnswConfig::default());
        let mut bf = BruteForceIndex::new(16, Metric::Cosine);
        for v in &vecs {
            h.add(v);
            bf.add(v);
        }
        let queries = random_vecs(30, 16, 4);
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in &queries {
            let approx: std::collections::HashSet<usize> =
                h.search(q, 10).into_iter().map(|(i, _)| i).collect();
            for (i, _) in bf.search(q, 10) {
                total += 1;
                if approx.contains(&i) {
                    hit += 1;
                }
            }
        }
        let recall = hit as f64 / total as f64;
        assert!(recall > 0.9, "HNSW recall@10 too low: {recall}");
    }

    /// `search` is the filtered search with nothing filtered, to the bit;
    /// a real filter never lets a filtered id through and still fills k.
    #[test]
    fn filtered_search_admits_only_kept_ids() {
        let vecs = random_vecs(500, 16, 7);
        let mut h = Hnsw::new(16, Metric::Cosine, HnswConfig::default());
        for v in &vecs {
            h.add(v);
        }
        for q in random_vecs(40, 16, 8) {
            let plain = h.search(&q, 30);
            let all = h.search_filtered(&q, 30, &|_| true);
            assert_eq!(
                plain.iter().map(|&(i, d)| (i, d.to_bits())).collect::<Vec<_>>(),
                all.iter().map(|&(i, d)| (i, d.to_bits())).collect::<Vec<_>>()
            );
            let odd = h.search_filtered(&q, 30, &|id| id % 2 == 1);
            assert_eq!(odd.len(), 30, "250 live nodes are enough to fill k");
            assert!(odd.iter().all(|&(id, _)| id % 2 == 1), "{odd:?}");
            assert!(odd.windows(2).all(|w| w[0].1 <= w[1].1));
        }
    }

    /// A fork holds no build-side state and grows exactly like the graph
    /// it was cloned from.
    #[test]
    fn clone_inserts_like_the_original() {
        let vecs = random_vecs(300, 8, 9);
        let mut a = Hnsw::new(8, Metric::Cosine, HnswConfig::default());
        for v in &vecs[..200] {
            a.add(v);
        }
        let mut b = a.clone();
        assert_eq!(b.link_cache_bytes(), 0);
        for v in &vecs[200..] {
            a.add(v);
            b.add(v);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    /// The measurement behind [`DEAD_REBUILD_DIVISOR`]: a graph grown to
    /// a quarter dead nodes, searched with them filtered, against a fresh
    /// build over the same live vectors, both scored against an exact
    /// scan of the live set.
    #[test]
    fn quarter_dead_graph_keeps_recall() {
        let (dim, base, k) = (48, 2400, 10);
        let vecs = random_vecs(base + base / 3, dim, 3);
        let dead = |id: usize| id < base && id % 3 == 0;
        let cfg = HnswConfig::default();
        let mut grown = Hnsw::new(dim, Metric::Cosine, cfg.clone());
        for v in &vecs {
            grown.add(v);
        }
        let live: Vec<usize> = (0..vecs.len()).filter(|&i| !dead(i)).collect();
        assert_eq!((vecs.len() - live.len()) * DEAD_REBUILD_DIVISOR, vecs.len());
        let mut fresh = Hnsw::new(dim, Metric::Cosine, cfg);
        let mut exact = BruteForceIndex::new(dim, Metric::Cosine);
        for &i in &live {
            fresh.add(&vecs[i]);
            exact.add(&vecs[i]);
        }
        let (mut grown_hits, mut fresh_hits, mut total) = (0usize, 0usize, 0usize);
        for q in random_vecs(50, dim, 4) {
            let truth: Vec<usize> = exact.search(&q, k).into_iter().map(|(i, _)| live[i]).collect();
            let g: Vec<usize> =
                grown.search_filtered(&q, k, &|id| !dead(id)).into_iter().map(|(i, _)| i).collect();
            let f: Vec<usize> = fresh.search(&q, k).into_iter().map(|(i, _)| live[i]).collect();
            assert!(g.iter().all(|&id| !dead(id)));
            total += truth.len();
            grown_hits += truth.iter().filter(|id| g.contains(id)).count();
            fresh_hits += truth.iter().filter(|id| f.contains(id)).count();
        }
        let (grown_recall, fresh_recall) =
            (grown_hits as f64 / total as f64, fresh_hits as f64 / total as f64);
        eprintln!("recall@10: quarter dead {grown_recall:.3}, fresh build {fresh_recall:.3}");
        assert!(grown_recall >= fresh_recall - 0.05, "{grown_recall} vs {fresh_recall}");
    }

    #[test]
    fn distances_ascending() {
        let vecs = random_vecs(100, 4, 5);
        let mut h = Hnsw::new(4, Metric::Euclidean, HnswConfig::default());
        for v in &vecs {
            h.add(v);
        }
        let hits = h.search(&[0.0; 4], 10);
        for w in hits.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }
}
