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
//! Node vectors live in one contiguous row-major `f32` arena with the
//! root of each row's squared norm cached beside it, and a query computes
//! its own root once, so a cosine distance is one dot product and one
//! division (`Metric::distance_rooted`).
//!
//! Links are flat `u32` rows, one layout for building, searching, cloning
//! and loading:
//!
//! * layer 0: one `Vec<u32>` with a fixed stride of `2·m` per node, and a
//!   one-byte length per node;
//! * layers ≥ 1: one pool of `m`-slot lists with a one-byte length each.
//!   A node's level is fixed when it is inserted, so its lists are
//!   appended once, in id order; the nodes that have any (one in `m`) are
//!   found by binary search over their sorted ids.
//!
//! Per node that is `8·m` bytes of layer-0 row, one length byte and, on
//! average, `1/(m−1)` upper lists plus their index — about five bytes at
//! `m` = 12. Nothing is allocated per node or per list, so a fork
//! ([`Clone`], which `QueryEngine::update` uses) is a few `memcpy`s and a
//! load fills rows sized once.
//!
//! Expanding a node marks every unvisited neighbour first and then scores
//! the batch four rows at a time with [`knn::dot4`](crate::knn::dot4);
//! the heaps then see the neighbours in the original list order. Both
//! keep every bit: a `dot4` lane is `dot`'s own single-accumulator sum in
//! ascending index, and a node's visit mark depends only on the list, not
//! on the heap decisions taken between neighbours. Greedy descent scores
//! its current node's list the same way.
//!
//! Queries track visited nodes with an epoch-stamped list and reuse their
//! heaps and batch buffers via [`SearchScratch`]; [`Hnsw::search`] hands
//! scratch out from a per-thread pool, so batched fan-outs (e.g.
//! `tsfm_store`'s `search_batch`) allocate nothing per query after warmup.
//!
//! ## Build-side state: the link-distance cache
//!
//! Connecting a new node pushes it onto each chosen neighbour's list and
//! trims that list back to the `m_max` closest. The distance of every
//! link on the list was already computed when the link was made — by the
//! beam search that found it — so [`Hnsw::add`] keeps it in flat `f32`
//! rows parallel to the link rows, with a "filled" flag per node, and a
//! full list takes its new link by sorting the `m_max + 1` cached
//! `(id, distance)` pairs through one reused buffer and writing back the
//! `m_max` closest — the order the list keeps, which decides exploration
//! order later. A cached value is the distance the trim would otherwise
//! recompute, to the bit: `dist(query = v_id, n)` and `dist_nodes(n, id)`
//! are the same IEEE expression over the same rows with commutative
//! operands swapped.
//!
//! The cache is *build-side* state, kept apart from the rows that queries
//! read, with this lifetime:
//!
//! * it is not part of [`HnswSnapshot`] / `TSFMHNS1`;
//! * a loaded graph ([`Hnsw::from_snapshot`], [`HnswLoader`]) and a fork
//!   start without it; the first insert sizes the rows, and each node's
//!   row is filled on first touch (`dist_nodes` over its current lists),
//!   so a restart pays nothing and insert-after-import continues the
//!   identical graph;
//! * [`Hnsw::release_link_cache`] drops it (and the insert scratch) once
//!   a build is done — `QueryEngine::build` calls it before returning, so
//!   a serving process does not hold ~100 B per column it never reads.
//!   Inserting afterwards is still correct: rows refill on first touch.
//!
//! An insert also allocates nothing per layer or per neighbour beyond
//! amortized row growth: the beam result, the trim buffer and (through
//! the thread's [`SearchScratch`]) the heaps are reused, the query is the
//! caller's slice, and lists are trimmed in place.
//!
//! All of this is bit-for-bit behavior-preserving — graphs and query
//! results are pinned by `tests/determinism.rs` and, at the served shape
//! (8 192 nodes, d = 32 and 80, duplicate groups), by
//! `tests/served_shape_pins.rs`; the `TSFMHNS1` serialization (u64 ids,
//! no norms, no link distances) is unchanged byte for byte.
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
//! the rows and RNG state but no build-side state, so forking a serving
//! graph and inserting into the fork continues exactly as inserting into
//! the original would.

use crate::knn::{cosine_from_dot, dot4, sq_euclidean, Metric};
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
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
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
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

/// HNSW construction/search parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HnswConfig {
    /// Max neighbours per node on layers ≥ 1 (layer 0 keeps `2·m`); at
    /// most [`MAX_M`].
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

/// The largest `m` a graph may have. A list's length is one byte and
/// layer 0 keeps `2·m` links, so 127 would fit; 64 also bounds what a
/// loaded graph allocates per node before its lists are read (`8·m`
/// bytes of layer-0 row). Every graph this workspace builds uses the
/// default, 12.
pub const MAX_M: usize = 64;

/// The most layers a node may have. [`Hnsw::add`] draws levels of at most
/// 25 (the geometric draw's floor over a 24-bit uniform, at `m` = 2), so
/// only a corrupt snapshot reaches this.
const MAX_LAYERS: usize = 64;

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

/// Where one node's list on one layer lives: slots `start..start + cap`
/// of `Links::row0` (layer 0) or `Links::up_row`, with its length at
/// `len_at` of `len0` / `up_len`. The link-distance rows are parallel, so
/// the same place addresses a list's distances.
#[derive(Clone, Copy)]
struct Place {
    upper: bool,
    start: usize,
    cap: usize,
    len_at: usize,
}

impl Place {
    /// This list's slots in `row0` or `up`, whichever holds its layer:
    /// the link rows or the distance rows parallel to them.
    fn slots<'a, T>(self, row0: &'a mut [T], up: &'a mut [T]) -> &'a mut [T] {
        let row = if self.upper { up } else { row0 };
        &mut row[self.start..self.start + self.cap]
    }
}

/// Every node's links in flat rows (module docs, "Hot-path layout").
#[derive(Clone)]
struct Links {
    /// Slots per list on layers ≥ 1; layer 0 has `2·m`.
    m: usize,
    /// Layer 0: node `i`'s links are `row0[i·2m..][..len0[i]]`.
    row0: Vec<u32>,
    len0: Vec<u8>,
    /// Ids of the nodes with a layer above 0, ascending.
    up_nodes: Vec<u32>,
    /// `up_first[k]` is the first upper list of `up_nodes[k]`, whose
    /// level is `up_first[k + 1] − up_first[k]`; one entry more than
    /// `up_nodes`.
    up_first: Vec<u32>,
    /// Upper list `j` (a node's layers 1, 2, … in order) is
    /// `up_row[j·m..][..up_len[j]]`.
    up_row: Vec<u32>,
    up_len: Vec<u8>,
}

impl Links {
    fn new(m: usize) -> Self {
        Self {
            m,
            row0: Vec::new(),
            len0: Vec::new(),
            up_nodes: Vec::new(),
            up_first: vec![0],
            up_row: Vec::new(),
            up_len: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.len0.len()
    }

    /// Append node `len()` with layers `0..=level`, all lists empty.
    fn push_node(&mut self, level: usize) {
        let id = self.len() as u32;
        self.row0.resize(self.row0.len() + 2 * self.m, 0);
        self.len0.push(0);
        if level > 0 {
            let lists = self.up_len.len() + level;
            self.up_nodes.push(id);
            self.up_first.push(lists as u32);
            self.up_row.resize(lists * self.m, 0);
            self.up_len.resize(lists, 0);
        }
    }

    /// Index of `id` in `up_nodes`, if it has a layer above 0.
    fn upper_index(&self, id: usize) -> Option<usize> {
        let k = self.up_nodes.partition_point(|&x| (x as usize) < id);
        (self.up_nodes.get(k).copied() == Some(id as u32)).then_some(k)
    }

    /// The top layer of node `id`.
    fn level(&self, id: usize) -> usize {
        self.upper_index(id).map_or(0, |k| (self.up_first[k + 1] - self.up_first[k]) as usize)
    }

    /// The list of `id` on `layer`, which the node must have.
    #[inline]
    fn place(&self, id: usize, layer: usize) -> Place {
        if layer == 0 {
            let cap = 2 * self.m;
            Place { upper: false, start: id * cap, cap, len_at: id }
        } else {
            // Only nodes with `layer` are ever asked for it: validated on
            // load, and links on a layer only point at nodes that have it.
            let k = self.up_nodes.partition_point(|&x| (x as usize) < id);
            let j = self.up_first[k] as usize + layer - 1;
            Place { upper: true, start: j * self.m, cap: self.m, len_at: j }
        }
    }

    #[inline]
    fn len_of(&self, p: Place) -> usize {
        usize::from(if p.upper { self.up_len[p.len_at] } else { self.len0[p.len_at] })
    }

    #[inline]
    fn get(&self, p: Place) -> &[u32] {
        let row = if p.upper { &self.up_row } else { &self.row0 };
        &row[p.start..p.start + self.len_of(p)]
    }

    #[inline]
    fn links(&self, id: usize, layer: usize) -> &[u32] {
        self.get(self.place(id, layer))
    }

    /// The whole slot range of a list and its length cell.
    fn slots_mut(&mut self, p: Place) -> (&mut [u32], &mut u8) {
        let len = if p.upper { &mut self.up_len[p.len_at] } else { &mut self.len0[p.len_at] };
        (p.slots(&mut self.row0, &mut self.up_row), len)
    }

    fn heap_bytes(&self) -> usize {
        (self.row0.capacity() + self.up_nodes.capacity() + self.up_first.capacity() + self.up_row.capacity())
            * std::mem::size_of::<u32>()
            + self.len0.capacity()
            + self.up_len.capacity()
    }
}

/// What only [`Hnsw::add`] uses (module docs, "Build-side state"): the
/// link-distance cache and the insert's reusable buffers. `Default` is
/// the released state and owns no heap memory.
#[derive(Default)]
struct BuildState {
    /// `filled[n]`: node `n`'s distance rows hold the distance of each of
    /// its links. Shorter than the graph after a load or a release.
    filled: Vec<bool>,
    /// Parallel to `Links::row0` and `Links::up_row`: the distance
    /// from the list's node to each link.
    dist0: Vec<f32>,
    dist_up: Vec<f32>,
    /// Beam result of the layer being connected, ascending by distance.
    found: Vec<(usize, f32)>,
    /// `(neighbour, distance)` pairs of the list being trimmed.
    trim: Vec<(usize, f32)>,
}

impl BuildState {
    /// Size the distance rows and flags to the graph's, new rows unfilled.
    fn fit(&mut self, links: &Links) {
        self.dist0.resize(links.row0.len(), 0.0);
        self.dist_up.resize(links.up_row.len(), 0.0);
        self.filled.resize(links.len(), false);
    }
}

/// A complete, serializable copy of an [`Hnsw`]'s state (`tsfm_store`
/// persists the same content as the `TSFMHNS1` section of the index
/// cache). A transfer shape only: [`Hnsw::from_snapshot`] loads it into
/// the flat rows.
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

/// Reusable per-query search state: the epoch-stamped visited list, the
/// candidate/result heaps and the batch of neighbours being scored. One
/// `begin` bumps the epoch, which marks every previous query's stamps
/// stale in O(1) — no clearing, no rehashing, no allocation once the
/// list has grown to the index size.
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
    /// The neighbours of the expanded node that get scored, in list
    /// order, and their distances.
    batch: Vec<u32>,
    scores: Vec<f32>,
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
    /// Cached norm root per node (`Metric::root_cache`); not serialized
    /// — recomputed on load.
    roots: Vec<f32>,
    links: Links,
    entry: Option<usize>,
    max_level: usize,
    rng_state: u64,
    /// Insert-only state; never read by a query, never serialized.
    build: BuildState,
}

/// A fork of the graph: rows, vectors, roots and RNG state, but not the
/// build-side state (module docs) — like a loaded graph, the clone
/// refills link-distance rows on first touch, so inserting into it
/// continues the identical graph.
impl Clone for Hnsw {
    fn clone(&self) -> Self {
        Self {
            cfg: self.cfg.clone(),
            dim: self.dim,
            metric: self.metric,
            data: self.data.clone(),
            roots: self.roots.clone(),
            links: self.links.clone(),
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
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// Why `m` or a node count cannot be a graph's: `m` above [`MAX_M`], or
/// more nodes than `u32` ids can name. Checked before anything is sized
/// by either.
fn check_shape(m: usize, nodes: usize) -> Result<(), String> {
    if m > MAX_M {
        return Err(format!("m {m} is above the cap of {MAX_M}"));
    }
    if nodes > u32::MAX as usize {
        return Err(format!("{nodes} nodes do not fit u32 ids"));
    }
    Ok(())
}

impl Hnsw {
    /// An empty index. Panics if `cfg.m` is above [`MAX_M`].
    pub fn new(dim: usize, metric: Metric, cfg: HnswConfig) -> Self {
        assert!(cfg.m <= MAX_M, "HNSW m {} is above the cap of {MAX_M}", cfg.m);
        let rng_state = cfg.seed | 1;
        Self {
            links: Links::new(cfg.m),
            cfg,
            dim,
            metric,
            data: Vec::new(),
            roots: Vec::new(),
            entry: None,
            max_level: 0,
            rng_state,
            build: BuildState::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.links.len()
    }

    pub fn is_empty(&self) -> bool {
        self.links.len() == 0
    }

    #[inline]
    fn vector(&self, id: usize) -> &[f32] {
        &self.data[id * self.dim..(id + 1) * self.dim]
    }

    /// Distance from a query (with its norm root) to a stored node.
    #[inline]
    fn dist(&self, q: &[f32], q_root: f32, id: usize) -> f32 {
        self.metric.distance_rooted(q, q_root, self.vector(id), self.roots[id])
    }

    /// Distance between two stored nodes, both roots cached.
    #[inline]
    fn dist_nodes(&self, a: usize, b: usize) -> f32 {
        self.metric.distance_rooted(self.vector(a), self.roots[a], self.vector(b), self.roots[b])
    }

    /// `out[i]` = distance from the query to node `ids[i]`, each to the
    /// bit what [`Hnsw::dist`] gives. Cosine rows go through
    /// [`dot4`] four at a time (module docs, "Hot-path layout").
    fn score(&self, q: &[f32], q_root: f32, ids: &[u32], out: &mut Vec<f32>) {
        out.clear();
        match self.metric {
            Metric::Cosine => {
                for quad in ids.chunks(4) {
                    // A short last batch repeats its first row in the
                    // spare lanes, whose products are dropped.
                    let row = |i: usize| self.vector(quad.get(i).map_or(quad[0], |&id| id) as usize);
                    let dots = dot4(q, [row(0), row(1), row(2), row(3)]);
                    for (&id, d) in quad.iter().zip(dots) {
                        out.push(cosine_from_dot(d, q_root, self.roots[id as usize]));
                    }
                }
            }
            Metric::Euclidean => {
                out.extend(ids.iter().map(|&id| sq_euclidean(q, self.vector(id as usize))));
            }
        }
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
    /// improvement. Each step scores the current node's whole list, then
    /// walks it in order — the comparisons of the one-at-a-time loop.
    fn greedy(
        &self,
        q: &[f32],
        q_root: f32,
        mut cur: usize,
        layer: usize,
        scratch: &mut SearchScratch,
    ) -> usize {
        let mut cur_d = self.dist(q, q_root, cur);
        loop {
            let links = self.links.links(cur, layer);
            self.score(q, q_root, links, &mut scratch.scores);
            let mut improved = false;
            for (&n, &d) in links.iter().zip(&scratch.scores) {
                if d < cur_d {
                    cur = n as usize;
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
        q_root: f32,
        entry: usize,
        ef: usize,
        layer: usize,
        keep: impl Fn(usize) -> bool,
        scratch: &mut SearchScratch,
        out: &mut Vec<(usize, f32)>,
    ) {
        let entry_d = self.dist(q, q_root, entry);
        scratch.begin(self.len());
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
            // Mark first, score the batch, then run the heap logic in
            // list order: a mark depends only on the list, so this visits
            // and pushes exactly what the one-at-a-time loop did.
            scratch.batch.clear();
            for &n in self.links.links(c, layer) {
                if scratch.visit(n as usize) {
                    scratch.batch.push(n);
                }
            }
            self.score(q, q_root, &scratch.batch, &mut scratch.scores);
            for (&n, &d) in scratch.batch.iter().zip(&scratch.scores) {
                let n = n as usize;
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

    /// Insert a vector, returning its id.
    pub fn add(&mut self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dim, "vector dim");
        let id = self.len();
        assert!(id < u32::MAX as usize, "HNSW node ids are u32");
        let _g = tsfm_obs::span!("hnsw.insert");
        hnsw_counters().inserts.inc();
        let level = self.random_level();
        let q_root = self.metric.root_cache(v);
        self.data.extend_from_slice(v);
        self.roots.push(q_root);
        self.links.push_node(level);

        let Some(mut cur) = self.entry else {
            self.entry = Some(id);
            self.max_level = level;
            return id;
        };

        // Descend layers above the new node's level greedily.
        SCRATCH.with(|s| {
            let s = &mut s.borrow_mut();
            for l in ((level + 1)..=self.max_level).rev() {
                cur = self.greedy(v, q_root, cur, l, s);
            }
        });
        // Taken out so its buffers can be borrowed beside `&mut self`;
        // put back below.
        let mut build = std::mem::take(&mut self.build);
        // Rows of nodes that arrived without distances (loaded, forked,
        // or inserted before a release) start unfilled and fill on first
        // touch; the new node's rows fill as its links are made.
        build.fit(&self.links);
        build.filled[id] = true;
        // Connect on each layer from min(level, max_level) down to 0.
        for l in (0..=level.min(self.max_level)).rev() {
            SCRATCH.with(|s| {
                let ef = self.cfg.ef_construction;
                self.search_layer(v, q_root, cur, ef, l, |_| true, &mut s.borrow_mut(), &mut build.found);
            });
            let m_max = self.m_max(l);
            for i in 0..build.found.len().min(m_max) {
                let (n, d) = build.found[i];
                // At most `m_max` links: the new node's list never trims.
                self.link(&mut build, id, l, n, d);
                if !build.filled[n] {
                    self.fill_distances(&mut build, n);
                }
                // `d` is dist(v, n), bit-equal to dist_nodes(n, id).
                self.link(&mut build, n, l, id, d);
            }
            if let Some(&(best, _)) = build.found.first() {
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

    /// Add `to` at distance `d` to the list of `from` on `layer`. A full
    /// list sorts its `m_max + 1` cached pairs and keeps the closest
    /// `m_max`, in that order.
    fn link(&mut self, build: &mut BuildState, from: usize, layer: usize, to: usize, d: f32) {
        let p = self.links.place(from, layer);
        let (row, len) = self.links.slots_mut(p);
        let dists = p.slots(&mut build.dist0, &mut build.dist_up);
        let n = usize::from(*len);
        if n < p.cap {
            row[n] = to as u32;
            dists[n] = d;
            *len += 1;
            return;
        }
        let trim = &mut build.trim;
        trim.clear();
        trim.extend(row.iter().map(|&x| x as usize).zip(dists.iter().copied()));
        trim.push((to, d));
        trim.sort_by(by_distance_then_id);
        for ((slot, dist), &(x, dx)) in row.iter_mut().zip(dists.iter_mut()).zip(trim.iter()) {
            *slot = x as u32;
            *dist = dx;
        }
    }

    /// Fill the link-distance rows of a node that has none yet: the
    /// distance of every link on every layer, exactly as the trim would
    /// derive it.
    fn fill_distances(&self, build: &mut BuildState, n: usize) {
        for l in 0..=self.links.level(n) {
            let p = self.links.place(n, l);
            let dists = p.slots(&mut build.dist0, &mut build.dist_up);
            for (slot, &x) in dists.iter_mut().zip(self.links.get(p)) {
                *slot = self.dist_nodes(n, x as usize);
            }
        }
        build.filled[n] = true;
    }

    /// Drop the build-side state (module docs, "Build-side state"). Call
    /// once a graph is built and will only be searched; a later
    /// [`Hnsw::add`] still continues the identical graph.
    pub fn release_link_cache(&mut self) {
        self.build = BuildState::default();
    }

    /// Heap bytes the build-side state holds: 0 for a graph that was
    /// loaded, forked or released and not inserted into since.
    pub fn link_cache_bytes(&self) -> usize {
        use std::mem::size_of;
        let b = &self.build;
        b.filled.capacity()
            + (b.dist0.capacity() + b.dist_up.capacity()) * size_of::<f32>()
            + (b.found.capacity() + b.trim.capacity()) * size_of::<(usize, f32)>()
    }

    /// Heap bytes of the whole index: vectors, norm roots, link rows and
    /// the build-side state ([`Hnsw::link_cache_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        (self.data.capacity() + self.roots.capacity()) * std::mem::size_of::<f32>()
            + self.links.heap_bytes()
            + self.link_cache_bytes()
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

    /// Per node in id order, its link rows by layer, `0..=level` —
    /// borrowed, for serializers that walk the graph once
    /// ([`Hnsw::snapshot`] copies).
    pub fn layers(
        &self,
    ) -> impl ExactSizeIterator<Item = impl ExactSizeIterator<Item = &[u32]> + '_> + '_ {
        (0..self.len()).map(move |id| (0..self.links.level(id) + 1).map(move |l| self.links.links(id, l)))
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
            neighbors: self
                .layers()
                .map(|layers| layers.map(|row| row.iter().map(|&x| x as usize).collect()).collect())
                .collect(),
            entry: self.entry,
            max_level: self.max_level,
            rng_state: self.rng_state,
        }
    }

    /// Rebuild an index from an exported snapshot through [`HnswLoader`],
    /// which validates it (vector buffer size, list lengths, neighbour
    /// ids, entry point) so a corrupt snapshot is rejected instead of
    /// panicking later.
    pub fn from_snapshot(s: HnswSnapshot) -> Result<Self, String> {
        let nodes = s.neighbors.len();
        let mut loader = HnswLoader::new(s.cfg, s.dim, s.metric, s.data)?;
        if nodes != loader.nodes() {
            return Err(format!("{} nodes but {nodes} neighbour lists", loader.nodes()));
        }
        for layers in &s.neighbors {
            loader.node(layers.len())?;
            for layer in layers {
                loader.list(layer.iter().map(|&x| x as u64))?;
            }
        }
        loader.finish(s.entry, s.max_level, s.rng_state)
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
        let q_root = self.metric.root_cache(q);
        for l in (1..=self.max_level).rev() {
            cur = self.greedy(q, q_root, cur, l, scratch);
        }
        let ef = self.cfg.ef_search.max(k);
        let mut out = Vec::new();
        self.search_layer(q, q_root, cur, ef, 0, keep, scratch, &mut out);
        out.truncate(k);
        out
    }
}

/// Loads a graph node by node straight into the flat rows — the one
/// path by which [`Hnsw::from_snapshot`] and `tsfm_store`'s `TSFMHNS1`
/// decoder build an index — and validates it on the way, so corrupt input
/// is an `Err`, never a panic later:
///
/// * [`HnswLoader::new`] rejects `m` above [`MAX_M`], a node count above
///   `u32::MAX`, a zero `dim` and a ragged vector buffer before it sizes
///   any row (the rows it sizes are bounded by the vectors it was given);
/// * [`HnswLoader::node`] rejects zero or more than 64 layers and more
///   nodes than vectors;
/// * [`HnswLoader::list`] rejects a list longer than its layer's
///   `m_max`, a link to a node that does not exist, and more lists than
///   the node declared;
/// * [`HnswLoader::finish`] rejects missing nodes or lists, a layer-`l`
///   link to a node without layer `l` (greedy descent would index past
///   its lists), and an entry point that is out of range or lower than
///   `max_level`.
pub struct HnswLoader {
    graph: Hnsw,
    /// Nodes the vector buffer holds.
    nodes: usize,
    /// Node being loaded (`graph.len() − 1`) and its next layer.
    layer: usize,
}

impl HnswLoader {
    /// Start loading the `data.len() / dim` nodes whose vectors `data`
    /// holds.
    pub fn new(cfg: HnswConfig, dim: usize, metric: Metric, data: Vec<f32>) -> Result<Self, String> {
        if dim == 0 {
            return Err("snapshot dim must be positive".into());
        }
        if data.len() % dim != 0 {
            return Err(format!(
                "vector buffer length {} is not a multiple of dim {dim}",
                data.len()
            ));
        }
        let nodes = data.len() / dim;
        check_shape(cfg.m, nodes)?;
        let mut graph = Hnsw::new(dim, metric, cfg);
        // Norms are an in-memory cache only — `TSFMHNS1` never stores
        // them — so recompute from the arena.
        graph.roots = data.chunks_exact(dim).map(|v| metric.root_cache(v)).collect();
        graph.data = data;
        let links = &mut graph.links;
        links.row0.reserve_exact(nodes * 2 * links.m);
        links.len0.reserve_exact(nodes);
        Ok(Self { graph, nodes, layer: 0 })
    }

    /// Nodes the vector buffer holds: how many [`HnswLoader::node`]
    /// calls [`HnswLoader::finish`] expects.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Start the next node, which has `layers` layers (`0..layers`); its
    /// lists follow, layer 0 first.
    pub fn node(&mut self, layers: usize) -> Result<(), String> {
        let id = self.graph.len();
        if id == self.nodes {
            return Err(format!("more neighbour lists than the {} nodes", self.nodes));
        }
        self.check_complete()?;
        if layers == 0 {
            return Err(format!("node {id} has no layers"));
        }
        if layers > MAX_LAYERS {
            return Err(format!("unreasonable layer count {layers}"));
        }
        self.graph.links.push_node(layers - 1);
        self.layer = 0;
        Ok(())
    }

    /// The current node's list on its next layer.
    pub fn list(&mut self, ids: impl ExactSizeIterator<Item = u64>) -> Result<(), String> {
        let g = &mut self.graph;
        let Some(id) = g.len().checked_sub(1) else {
            return Err("a neighbour list before any node".into());
        };
        let l = self.layer;
        if l > g.links.level(id) {
            return Err(format!("node {id} has more lists than layers"));
        }
        let m_max = g.m_max(l);
        if ids.len() > m_max {
            return Err(format!("node {id} lists {} links on layer {l}, above m_max {m_max}", ids.len()));
        }
        let p = g.links.place(id, l);
        let (row, len) = g.links.slots_mut(p);
        *len = ids.len() as u8;
        for (slot, x) in row.iter_mut().zip(ids) {
            if x >= self.nodes as u64 {
                return Err(format!("node {id} links to out-of-range node {x}"));
            }
            *slot = x as u32;
        }
        self.layer += 1;
        Ok(())
    }

    /// The last node started got all its lists.
    fn check_complete(&self) -> Result<(), String> {
        match self.graph.len().checked_sub(1) {
            Some(id) if self.layer <= self.graph.links.level(id) => {
                Err(format!("node {id} is missing the list of layer {}", self.layer))
            }
            _ => Ok(()),
        }
    }

    /// Check the whole graph and hand it over.
    pub fn finish(self, entry: Option<usize>, max_level: usize, rng_state: u64) -> Result<Hnsw, String> {
        if self.graph.len() != self.nodes {
            return Err(format!("{} nodes but {} neighbour lists", self.nodes, self.graph.len()));
        }
        self.check_complete()?;
        let mut g = self.graph;
        // Search follows layer-l links assuming the target also has a
        // layer l; a link to a shorter node would panic later. Layer 0 is
        // every node's.
        let links = &g.links;
        for (k, &id) in links.up_nodes.iter().enumerate() {
            let levels = (links.up_first[k + 1] - links.up_first[k]) as usize;
            for l in 1..=levels {
                if let Some(&bad) = links.links(id as usize, l).iter().find(|&&x| links.level(x as usize) < l) {
                    return Err(format!("node {id} links to node {bad} on layer {l}, which it lacks"));
                }
            }
        }
        match (entry, g.len()) {
            (None, 0) => {}
            (Some(e), n) if n > 0 && e < n => {
                // Greedy descent starts at `entry` on layer `max_level`.
                let levels = links.level(e) + 1;
                if levels <= max_level {
                    return Err(format!(
                        "entry node {e} has {levels} layers but max_level is {max_level}"
                    ));
                }
            }
            (entry, n) => return Err(format!("entry {entry:?} invalid for {n} nodes")),
        }
        // The upper pool grew list by list; layer 0 was sized up front.
        let links = &mut g.links;
        for v in [&mut links.up_nodes, &mut links.up_first, &mut links.up_row] {
            v.shrink_to_fit();
        }
        links.up_len.shrink_to_fit();
        g.entry = entry;
        g.max_level = max_level;
        g.rng_state = rng_state;
        Ok(g)
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

    /// Flat rows, not nested lists: at 8 192 nodes a fork (exact
    /// capacities, as a restart's load has) holds at most a layer-0 row
    /// of `2·m` u32s plus 8 bytes per node for everything else — lengths,
    /// the upper-layer pool and its index. Nested per-layer `Vec`s, kept
    /// or mirrored, cost 24 bytes per list header alone.
    #[test]
    fn adjacency_bytes_per_node_stay_flat() {
        let (n, dim) = (8192, 4);
        let mut h = Hnsw::new(dim, Metric::Cosine, HnswConfig::default());
        for v in random_vecs(n, dim, 12) {
            h.add(&v);
        }
        let fork = h.clone();
        assert_eq!(fork.link_cache_bytes(), 0);
        let vectors_and_roots = (n * dim + n) * std::mem::size_of::<f32>();
        let per_node = (fork.heap_bytes() - vectors_and_roots) as f64 / n as f64;
        let m = h.config().m;
        assert!(per_node <= (4 * 2 * m + 8) as f64, "{per_node:.1} B of links per node");
        let loaded = Hnsw::from_snapshot(h.snapshot()).expect("valid snapshot");
        assert_eq!(loaded.heap_bytes(), fork.heap_bytes(), "a load allocates what a fork does");
    }

    /// Input the flat rows cannot hold is an `Err` before anything is
    /// sized by it.
    #[test]
    fn loader_rejects_long_lists_large_m_and_too_many_nodes() {
        let mut h = Hnsw::new(2, Metric::Cosine, HnswConfig::default());
        for v in random_vecs(30, 2, 13) {
            h.add(&v);
        }
        let mut s = h.snapshot();
        s.neighbors[0][0] = (0..25).map(|i| i % 30).collect();
        let err = Hnsw::from_snapshot(s).map(|_| ()).unwrap_err();
        assert!(err.contains("above m_max 24"), "{err}");

        let mut s = h.snapshot();
        s.cfg.m = MAX_M + 1;
        let err = Hnsw::from_snapshot(s).map(|_| ()).unwrap_err();
        assert!(err.contains("cap"), "{err}");

        assert!(check_shape(12, u32::MAX as usize).is_ok());
        let err = check_shape(12, u32::MAX as usize + 1).unwrap_err();
        assert!(err.contains("u32"), "{err}");

        let mut s = h.snapshot();
        s.neighbors[3].truncate(1);
        s.neighbors[3].extend(std::iter::repeat(Vec::new()).take(MAX_LAYERS));
        assert!(Hnsw::from_snapshot(s).is_err(), "too many layers");
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
