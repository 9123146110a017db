//! Determinism guarantees for the ANN layer, mirroring
//! `crates/sketch/tests/determinism.rs`: an HNSW graph must be a pure
//! function of `(config, insertion sequence)` — independent of process,
//! hasher randomization, or platform — because `tsfm_store` persists the
//! graph and expects a rebuilt index to answer queries identically.

use tsfm_search::{Hnsw, HnswConfig, Metric, SearchScratch};
use tsfm_table::hash::splitmix64;

/// Deterministic pseudo-random vectors on a coarse grid. Grid coordinates
/// are exactly representable in f32, so every distance computation is
/// bit-identical across platforms; the coarse grid also forces frequent
/// exact distance ties, exercising the id tie-breaks.
fn grid_vecs(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|j| {
                    let h = splitmix64(seed ^ ((i as u64) << 20) ^ j as u64);
                    (h % 8) as f32 / 4.0 - 1.0
                })
                .collect()
        })
        .collect()
}

fn build(vecs: &[Vec<f32>], dim: usize) -> Hnsw {
    let mut h = Hnsw::new(dim, Metric::Euclidean, HnswConfig::default());
    for v in vecs {
        h.add(v);
    }
    h
}

/// Fold the full graph structure into one u64.
fn fingerprint(h: &Hnsw) -> u64 {
    let s = h.snapshot();
    let mut acc: u64 = splitmix64(s.max_level as u64 ^ 0x6a09_e667);
    acc = splitmix64(acc ^ s.entry.map_or(u64::MAX, |e| e as u64));
    for layers in &s.neighbors {
        acc = splitmix64(acc ^ layers.len() as u64);
        for layer in layers {
            acc = splitmix64(acc ^ layer.len() as u64);
            for &n in layer {
                acc = splitmix64(acc ^ n as u64);
            }
        }
    }
    acc
}

#[test]
fn identical_graphs_across_independent_builds() {
    let vecs = grid_vecs(300, 8, 11);
    let a = build(&vecs, 8);
    let b = build(&vecs, 8);
    assert_eq!(a.snapshot(), b.snapshot(), "same inserts must give the same graph");
}

/// Pinned fingerprint: fails if hasher randomization, iteration order, or
/// an algorithm change alters the graph — any of which would silently
/// invalidate every HNSW graph `tsfm_store` has persisted.
#[test]
fn graph_fingerprint_pinned() {
    let h = build(&grid_vecs(300, 8, 11), 8);
    assert_eq!(
        fingerprint(&h),
        0x9e2b_2b46_6e48_b605,
        "HNSW construction changed — stored indexes would no longer match"
    );
}

/// Ties in distance (ubiquitous on the coarse grid) must resolve by id,
/// making search results reproducible across runs.
#[test]
fn search_results_pinned_under_ties() {
    let vecs = grid_vecs(300, 8, 11);
    let h = build(&vecs, 8);
    let queries = grid_vecs(10, 8, 99);
    let mut acc: u64 = 0;
    for q in &queries {
        for (id, _) in h.search(q, 10) {
            acc = splitmix64(acc ^ id as u64);
        }
    }
    assert_eq!(acc, 0xb1aa_d61d_484d_f142, "search order changed under distance ties");
}

#[test]
fn snapshot_roundtrip_preserves_everything() {
    let vecs = grid_vecs(200, 6, 5);
    let original = build(&vecs, 6);
    let restored = Hnsw::from_snapshot(original.snapshot()).expect("valid snapshot");
    assert_eq!(original.snapshot(), restored.snapshot());
    for q in grid_vecs(20, 6, 77) {
        assert_eq!(original.search(&q, 7), restored.search(&q, 7));
    }
    // Inserting after restore continues the identical RNG stream.
    let mut a = original;
    let mut b = restored;
    for v in grid_vecs(20, 6, 13) {
        a.add(&v);
        b.add(&v);
    }
    assert_eq!(a.snapshot(), b.snapshot());
}

/// The engine's join/union indexes run under cosine; pin that metric's
/// graph and search results too, so a distance-kernel change (e.g. the
/// cached-norm arena rewrite) that is not bit-identical to the reference
/// fused loop fails loudly instead of silently invalidating stored graphs.
#[test]
fn cosine_graph_and_search_pinned() {
    let vecs = grid_vecs(300, 8, 23);
    let mut h = Hnsw::new(8, Metric::Cosine, HnswConfig::default());
    for v in &vecs {
        h.add(v);
    }
    assert_eq!(
        fingerprint(&h),
        0xc60d_d869_074a_99d0,
        "cosine HNSW construction changed — stored indexes would no longer match"
    );
    let mut acc: u64 = 0;
    for q in &grid_vecs(10, 8, 57) {
        for (id, d) in h.search(q, 10) {
            acc = splitmix64(acc ^ id as u64);
            acc = splitmix64(acc ^ d.to_bits() as u64);
        }
    }
    assert_eq!(acc, 0x458c_85ba_42d4_39a8, "cosine distances or ranking changed bit-for-bit");
}

/// Scratch reuse must be invisible: a dirty scratch (carrying stamps and
/// heap capacity from arbitrary earlier queries, even against a different
/// index) answers every query identically to a fresh one and to the
/// thread-pooled `search`.
#[test]
fn scratch_reuse_is_invisible() {
    let big = build(&grid_vecs(300, 8, 11), 8);
    let small = build(&grid_vecs(40, 8, 19), 8);
    let mut dirty = SearchScratch::new();
    // Dirty the scratch thoroughly on the big index first.
    for q in grid_vecs(25, 8, 31) {
        big.search_with_scratch(&q, 10, &mut dirty);
    }
    for q in grid_vecs(25, 8, 43) {
        let mut fresh = SearchScratch::new();
        // Interleave across two indexes of different sizes to exercise
        // stamp-list growth and stale stamps.
        for h in [&small, &big] {
            assert_eq!(
                h.search_with_scratch(&q, 10, &mut dirty),
                h.search_with_scratch(&q, 10, &mut fresh),
                "dirty scratch changed results"
            );
            assert_eq!(h.search(&q, 10), h.search_with_scratch(&q, 10, &mut dirty));
        }
    }
}

#[test]
fn corrupt_snapshots_rejected() {
    let h = build(&grid_vecs(50, 4, 3), 4);

    let mut s = h.snapshot();
    s.data.pop(); // buffer no longer a multiple of dim
    assert!(Hnsw::from_snapshot(s).is_err());

    let mut s = h.snapshot();
    s.neighbors[0][0].push(10_000); // dangling link
    assert!(Hnsw::from_snapshot(s).is_err());

    let mut s = h.snapshot();
    s.entry = Some(999);
    assert!(Hnsw::from_snapshot(s).is_err());

    let mut s = h.snapshot();
    s.neighbors.pop(); // node count mismatch
    assert!(Hnsw::from_snapshot(s).is_err());

    let mut s = h.snapshot();
    s.max_level = s.neighbors[s.entry.unwrap()].len() + 3; // search would panic
    assert!(Hnsw::from_snapshot(s).is_err());

    // A layer-l link to a node without that layer would panic in greedy().
    let mut s = h.snapshot();
    if let Some(shallow) = s.neighbors.iter().position(|l| l.len() == 1) {
        let deep = s.neighbors.iter().position(|l| l.len() > 1).unwrap();
        s.neighbors[deep][1].push(shallow);
        assert!(Hnsw::from_snapshot(s).is_err());
    }
}

/// The parent algorithm as an oracle: releasing the link-distance cache
/// after every insert makes each trim re-derive its distances with
/// `dist_nodes`, which is what `add` did before the cache existed.
fn build_recomputing(vecs: &[Vec<f32>], dim: usize, metric: Metric) -> Hnsw {
    let mut h = Hnsw::new(dim, metric, HnswConfig::default());
    for v in vecs {
        h.add(v);
        h.release_link_cache();
    }
    h
}

/// The link-distance cache is build-side state: absent after an import or
/// a release, refilled per node on first touch, and invisible in the
/// graph. 300 nodes overflow every layer-0 list (2·m = 24), so the 120
/// later inserts trim imported / released nodes through the lazy fill.
#[test]
fn insert_after_import_or_release_continues_the_identical_graph() {
    for metric in [Metric::Euclidean, Metric::Cosine] {
        let vecs = grid_vecs(420, 8, 29);
        let (head, tail) = vecs.split_at(300);
        let mut uninterrupted = Hnsw::new(8, metric, HnswConfig::default());
        for v in &vecs {
            uninterrupted.add(v);
        }
        assert!(uninterrupted.link_cache_bytes() > 0, "a build keeps its link distances");

        let mut built = Hnsw::new(8, metric, HnswConfig::default());
        for v in head {
            built.add(v);
        }
        let mut imported = Hnsw::from_snapshot(built.snapshot()).expect("valid snapshot");
        assert_eq!(imported.link_cache_bytes(), 0, "import allocates nothing for the cache");
        imported.search(&vecs[0], 10);
        assert_eq!(imported.link_cache_bytes(), 0, "nor does searching");
        built.release_link_cache();
        assert_eq!(built.link_cache_bytes(), 0, "release frees all of it");

        for v in tail {
            imported.add(v);
            built.add(v);
        }
        assert_eq!(imported.snapshot(), uninterrupted.snapshot(), "{metric:?}: import → insert");
        assert_eq!(built.snapshot(), uninterrupted.snapshot(), "{metric:?}: release → insert");
        assert_eq!(
            build_recomputing(&vecs, 8, metric).snapshot(),
            uninterrupted.snapshot(),
            "{metric:?}: cached distances differ from recomputed ones"
        );
    }
}

/// Zero-norm rows (cosine distance exactly 1.0 to everything) and exact
/// duplicates (distance ties on every list they share) through the
/// cached-distance trim: ties must still break by id. Pinned on the
/// parent of the link-distance cache.
#[test]
fn zero_norm_and_duplicate_vectors_trim_by_id() {
    let mut vecs = grid_vecs(90, 6, 41);
    vecs.extend(vec![vec![0.0; 6]; 40]); // zero-norm
    vecs.extend(vec![vecs[3].clone(); 40]); // duplicates of one row
    vecs.extend(grid_vecs(90, 6, 43));
    vecs.extend(vec![vec![0.0; 6]; 20]);
    vecs.extend(vec![vecs[7].clone(); 20]);
    for (metric, pinned) in
        [(Metric::Cosine, 0x6a99_1fa3_f85f_c9afu64), (Metric::Euclidean, 0x700f_774c_c53c_60f9)]
    {
        let mut h = Hnsw::new(6, metric, HnswConfig::default());
        for v in &vecs {
            h.add(v);
        }
        assert_eq!(h.snapshot(), build_recomputing(&vecs, 6, metric).snapshot(), "{metric:?}");
        assert_eq!(fingerprint(&h), pinned, "{metric:?}: {:#018x}", fingerprint(&h));
    }
}
