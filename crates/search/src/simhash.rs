//! SimHash LSH over dense embeddings — WarpGate's indexing scheme:
//! random-hyperplane bit signatures, banded buckets for candidate
//! generation, cosine re-ranking.

use crate::knn::Metric;
use std::collections::{HashMap, HashSet};

/// SimHash index parameters: `bits = bands * band_bits`.
#[derive(Debug, Clone)]
pub struct SimHashConfig {
    pub bands: usize,
    pub band_bits: usize,
    pub seed: u64,
}

impl Default for SimHashConfig {
    fn default() -> Self {
        Self { bands: 8, band_bits: 8, seed: 0x51a4 }
    }
}

pub struct SimHashLsh {
    cfg: SimHashConfig,
    dim: usize,
    /// `bits` hyperplanes, row-major `[bits, dim]`.
    planes: Vec<f32>,
    buckets: Vec<HashMap<u64, Vec<u32>>>,
    vecs: Vec<Vec<f32>>,
}

impl SimHashLsh {
    pub fn new(dim: usize, cfg: SimHashConfig) -> Self {
        let bits = cfg.bands * cfg.band_bits;
        // Deterministic pseudo-Gaussian hyperplanes (sum of uniforms).
        let mut state = cfg.seed | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40) as f32 / (1u64 << 24) as f32
        };
        let planes = (0..bits * dim)
            .map(|_| (next() + next() + next() + next() - 2.0) * 1.732)
            .collect();
        Self {
            buckets: vec![HashMap::new(); cfg.bands],
            cfg,
            dim,
            planes,
            vecs: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.vecs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vecs.is_empty()
    }

    /// The bit signature of a vector.
    pub fn signature(&self, v: &[f32]) -> Vec<bool> {
        assert_eq!(v.len(), self.dim, "vector dim");
        let bits = self.cfg.bands * self.cfg.band_bits;
        (0..bits)
            .map(|b| {
                let row = &self.planes[b * self.dim..(b + 1) * self.dim];
                let dot: f32 = row.iter().zip(v).map(|(&p, &x)| p * x).sum();
                dot >= 0.0
            })
            .collect()
    }

    fn band_key(&self, sig: &[bool], band: usize) -> u64 {
        let mut key: u64 = 0;
        for &bit in &sig[band * self.cfg.band_bits..(band + 1) * self.cfg.band_bits] {
            key = (key << 1) | bit as u64;
        }
        key
    }

    pub fn add(&mut self, v: &[f32]) -> usize {
        let sig = self.signature(v);
        let id = self.vecs.len() as u32;
        for b in 0..self.cfg.bands {
            let key = self.band_key(&sig, b);
            self.buckets[b].entry(key).or_default().push(id);
        }
        self.vecs.push(v.to_vec());
        id as usize
    }

    /// Top-k candidates (band collisions) re-ranked by cosine distance
    /// (ascending). Falls back to scanning everything when the buckets
    /// yield fewer than `k` candidates.
    pub fn search(&self, q: &[f32], k: usize) -> Vec<(usize, f32)> {
        let sig = self.signature(q);
        let mut cands: HashSet<usize> = HashSet::new();
        for b in 0..self.cfg.bands {
            if let Some(ids) = self.buckets[b].get(&self.band_key(&sig, b)) {
                cands.extend(ids.iter().map(|&i| i as usize));
            }
        }
        if cands.len() < k {
            cands.extend(0..self.vecs.len());
        }
        let mut hits: Vec<(usize, f32)> = cands
            .into_iter()
            .map(|id| (id, Metric::Cosine.distance(q, &self.vecs[id])))
            .collect();
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        hits.truncate(k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn similar_vectors_share_signature_bits() {
        let idx = SimHashLsh::new(16, SimHashConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        let v: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut near = v.clone();
        for x in &mut near {
            *x += rng.gen_range(-0.01..0.01);
        }
        let far: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let s = idx.signature(&v);
        let sn = idx.signature(&near);
        let sf = idx.signature(&far);
        let ham = |a: &[bool], b: &[bool]| a.iter().zip(b).filter(|(x, y)| x != y).count();
        assert!(ham(&s, &sn) < ham(&s, &sf), "near vector closer in hamming");
    }

    #[test]
    fn search_finds_planted_neighbor() {
        let mut idx = SimHashLsh::new(8, SimHashConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let target: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let tid = idx.add(&target);
        for _ in 0..200 {
            let v: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            idx.add(&v);
        }
        let mut q = target.clone();
        for x in &mut q {
            *x *= 1.02;
        }
        let hits = idx.search(&q, 3);
        assert_eq!(hits[0].0, tid, "planted neighbor must rank first");
    }

    #[test]
    fn fallback_when_buckets_sparse() {
        let mut idx = SimHashLsh::new(4, SimHashConfig { bands: 2, band_bits: 16, seed: 1 });
        idx.add(&[1.0, 0.0, 0.0, 0.0]);
        idx.add(&[0.0, 1.0, 0.0, 0.0]);
        // A query in an empty bucket still returns k results.
        let hits = idx.search(&[-1.0, -1.0, 1.0, 1.0], 2);
        assert_eq!(hits.len(), 2);
    }
}
