//! Pins at the shape the store serves: 8 192 cosine nodes at the join
//! feature width (d = 32) and the union feature width (d = 80), the
//! default config, MinHash-like rows with groups of bit-identical vectors
//! and a few all-zero rows, as the join lake has. The constants were
//! captured before the flat-adjacency rewrite of `Hnsw` and must never be
//! edited: a layout or kernel change that moves one bit of a graph, a
//! distance or a result order fails here.
//!
//! `tests/determinism.rs` pins small grids; this file pins what a grid
//! cannot reach — lists that overflow on every layer thousands of times,
//! multi-layer descents, duplicate groups larger than `2·m`, and a fork
//! that refills its link distances lazily while it grows.

use tsfm_search::{Hnsw, HnswConfig, Metric};
use tsfm_table::hash::splitmix64;

const NODES: usize = 8192;
const FORK_INSERTS: usize = 300;
const QUERIES: usize = 200;
const K: usize = 30;

/// A signature slot as `MinHash::extend_f32_features` maps it: the low
/// 24 bits of the hash, scaled to [−1, 1).
fn slot(h: u64) -> f32 {
    (h & 0xFF_FFFF) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
}

/// `n` MinHash-like rows. About 1 % are all-zero (an empty column), about
/// 2 % copy row 5 (one group of ~160 bit-identical rows), about 17 % copy
/// one of the first 400 rows (many small groups), and the rest share a
/// per-row fraction of their slots with one of 48 domains.
fn lake_vecs(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut out: Vec<Vec<f32>> = Vec::with_capacity(n);
    for i in 0..n {
        let h = splitmix64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let kind = h % 100;
        let row = if i > 5 && kind < 2 {
            out[5].clone()
        } else if i > 400 && kind < 19 {
            out[(splitmix64(h) % 400) as usize].clone()
        } else if kind == 99 {
            vec![0.0; dim]
        } else {
            let domain = splitmix64(seed ^ 0xd0 ^ (h % 48));
            let sim = (splitmix64(h ^ 0x51) % 1000) as f64 / 1000.0 * 0.9;
            (0..dim as u64)
                .map(|j| {
                    let coin = (splitmix64(h ^ (j << 40) ^ 0xc0) % 1000) as f64 / 1000.0;
                    if coin < sim {
                        slot(splitmix64(domain ^ j))
                    } else {
                        slot(splitmix64(h ^ (j << 32) ^ 0x5107))
                    }
                })
                .collect()
        };
        out.push(row);
    }
    out
}

fn build(vecs: &[Vec<f32>], dim: usize) -> Hnsw {
    let mut h = Hnsw::new(dim, Metric::Cosine, HnswConfig::default());
    for v in vecs {
        h.add(v);
    }
    h
}

/// The whole graph: entry, top level, RNG state and every list in order.
fn graph_fingerprint(h: &Hnsw) -> u64 {
    let s = h.snapshot();
    let mut acc = splitmix64(s.max_level as u64 ^ 0x6a09_e667);
    acc = splitmix64(acc ^ s.entry.map_or(u64::MAX, |e| e as u64));
    acc = splitmix64(acc ^ s.rng_state);
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

fn fold_hits(mut acc: u64, hits: &[(usize, f32)]) -> u64 {
    acc = splitmix64(acc ^ hits.len() as u64);
    for &(id, d) in hits {
        acc = splitmix64(acc ^ id as u64);
        acc = splitmix64(acc ^ u64::from(d.to_bits()));
    }
    acc
}

/// Half the queries are stored rows (a by-id request searches with its
/// own columns), half are unseen rows from another seed.
fn queries(vecs: &[Vec<f32>], dim: usize) -> Vec<Vec<f32>> {
    let unseen = lake_vecs(QUERIES / 2, dim, 0x7e57);
    (0..QUERIES / 2)
        .map(|i| vecs[(splitmix64(i as u64 ^ 0x11) % vecs.len() as u64) as usize].clone())
        .chain(unseen)
        .collect()
}

fn result_fingerprint(h: &Hnsw, queries: &[Vec<f32>]) -> u64 {
    queries.iter().fold(0, |acc, q| fold_hits(acc, &h.search(q, K)))
}

/// Fork the built graph as `QueryEngine::update` does (clone, no
/// build-side state), insert 300 more rows, and fold the fork's graph
/// plus 50 searches with every seventh node dead.
fn fork_fingerprint(h: &Hnsw, extra: &[Vec<f32>], queries: &[Vec<f32>]) -> u64 {
    let mut fork = h.clone();
    for v in extra {
        fork.add(v);
    }
    let dead = |id: usize| id % 7 == 0;
    queries[..50]
        .iter()
        .fold(graph_fingerprint(&fork), |acc, q| fold_hits(acc, &fork.search_filtered(q, K, &|id| !dead(id))))
}

fn check(dim: usize, seed: u64, pinned: [u64; 3]) {
    let vecs = lake_vecs(NODES + FORK_INSERTS, dim, seed);
    let (base, extra) = vecs.split_at(NODES);
    let h = build(base, dim);
    let qs = queries(base, dim);
    let got = [graph_fingerprint(&h), result_fingerprint(&h, &qs), fork_fingerprint(&h, extra, &qs)];
    assert_eq!(
        got,
        pinned,
        "d = {dim}: graph / results / fork changed: [{:#018x}, {:#018x}, {:#018x}]",
        got[0],
        got[1],
        got[2]
    );
}

#[test]
fn join_width_graph_results_and_fork_pinned() {
    check(32, 0x4a01, [0x4dd5_e58c_f987_c3d1, 0xb7b0_0e2f_287a_25d2, 0xc74f_ac93_75aa_7c36]);
}

#[test]
fn union_width_graph_results_and_fork_pinned() {
    check(80, 0x4a02, [0x943a_3c28_d78a_e6ec, 0x0981_ed9d_d4f5_c2db, 0x4ee5_3539_45ac_36ef]);
}
