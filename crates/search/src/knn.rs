//! Exact (brute-force) k-nearest-neighbour index over dense vectors.
//!
//! The corpora in this reproduction are thousands of vectors, where exact
//! scan is both fastest to build and a correctness oracle for the
//! approximate indexes ([`crate::hnsw`], [`crate::simhash`]).

/// Inner product, unrolled four elements per iteration with a **single**
/// accumulator so the addition sequence — and therefore every bit of the
/// `f32` result — matches the naive element-by-element loop. Splitting
/// one product across several partial accumulators would be faster but
/// changes float rounding, which would silently invalidate every
/// persisted HNSW graph. [`dot4`] gets the overlap another way: four
/// products, one chain each.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        acc += x[0] * y[0];
        acc += x[1] * y[1];
        acc += x[2] * y[2];
        acc += x[3] * y[3];
    }
    for (&x, &y) in ra.iter().zip(rb) {
        acc += x * y;
    }
    acc
}

/// Four inner products of `q`, one against each of `rows`, in one pass
/// over `q`. Lane `j` is `dot(q, rows[j])` to the bit: it has its own
/// single accumulator and adds `q[i]·rows[j][i]` in ascending `i`, the
/// exact sequence of [`dot`]. What changes is only that the four
/// dependency chains are independent, so their adds overlap in the
/// pipeline instead of each waiting on the one before.
#[inline]
pub fn dot4(q: &[f32], rows: [&[f32]; 4]) -> [f32; 4] {
    let n = q.len();
    let [r0, r1, r2, r3] = rows;
    debug_assert!(r0.len() == n && r1.len() == n && r2.len() == n && r3.len() == n);
    let (r0, r1, r2, r3) = (&r0[..n], &r1[..n], &r2[..n], &r3[..n]);
    let mut acc = [0.0f32; 4];
    for (i, &x) in q.iter().enumerate() {
        acc[0] += x * r0[i];
        acc[1] += x * r1[i];
        acc[2] += x * r2[i];
        acc[3] += x * r3[i];
    }
    acc
}

/// Squared L2 norm — `dot(a, a)` with the same single-accumulator
/// unrolling, bit-identical to the naive sum of squares.
#[inline]
pub fn norm_sq(a: &[f32]) -> f32 {
    dot(a, a)
}

/// Squared Euclidean distance, single-accumulator unroll (bit-identical
/// to the naive loop).
#[inline]
pub fn sq_euclidean(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        let d0 = x[0] - y[0];
        acc += d0 * d0;
        let d1 = x[1] - y[1];
        acc += d1 * d1;
        let d2 = x[2] - y[2];
        acc += d2 * d2;
        let d3 = x[3] - y[3];
        acc += d3 * d3;
    }
    for (&x, &y) in ra.iter().zip(rb) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Cosine distance `1 − dot / (√a·√b)` from an inner product and the two
/// vectors' norm roots; exactly 1 when either vector is all zeros.
#[inline]
pub(crate) fn cosine_from_dot(dot: f32, a_root: f32, b_root: f32) -> f32 {
    if a_root == 0.0 || b_root == 0.0 {
        1.0
    } else {
        1.0 - dot / (a_root * b_root)
    }
}

/// Distance metric for dense indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Cosine distance `1 − cos(a, b)`.
    Cosine,
    /// Squared Euclidean distance.
    Euclidean,
}

impl Metric {
    /// Stable on-disk tag (used by `tsfm_store`'s binary formats). Never
    /// renumber existing variants.
    pub fn tag(self) -> u8 {
        match self {
            Metric::Cosine => 0,
            Metric::Euclidean => 1,
        }
    }

    /// Inverse of [`Metric::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<Metric> {
        match tag {
            0 => Some(Metric::Cosine),
            1 => Some(Metric::Euclidean),
            _ => None,
        }
    }

    pub fn distance(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::Cosine => self.distance_prenorm(a, norm_sq(a), b, norm_sq(b)),
            Metric::Euclidean => sq_euclidean(a, b),
        }
    }

    /// [`Metric::distance`] with both squared norms supplied by the
    /// caller: indexes cache `norm_sq` per stored vector and per query, so
    /// a cosine distance costs one dot product over adjacent memory
    /// instead of three accumulations. Bit-identical to `distance` (each
    /// accumulator of the old fused loop summed independently, so hoisting
    /// the norms out does not change any rounding).
    #[inline]
    pub fn distance_prenorm(self, a: &[f32], a_norm_sq: f32, b: &[f32], b_norm_sq: f32) -> f32 {
        self.distance_rooted(a, a_norm_sq.sqrt(), b, b_norm_sq.sqrt())
    }

    /// [`Metric::distance_prenorm`] with the norms' square roots cached
    /// instead (`Metric::root_cache`): the same IEEE expression, because
    /// `sqrt` is correctly rounded and a root is zero exactly when its
    /// squared norm is, minus two `sqrt` per evaluation.
    #[inline]
    pub(crate) fn distance_rooted(self, a: &[f32], a_root: f32, b: &[f32], b_root: f32) -> f32 {
        match self {
            Metric::Cosine => cosine_from_dot(dot(a, b), a_root, b_root),
            Metric::Euclidean => sq_euclidean(a, b),
        }
    }

    /// The squared-norm cache entry for one vector under this metric:
    /// only cosine consumes it, so Euclidean indexes store zeros.
    #[inline]
    pub fn norm_cache(self, v: &[f32]) -> f32 {
        match self {
            Metric::Cosine => norm_sq(v),
            Metric::Euclidean => 0.0,
        }
    }

    /// The norm-root cache entry for one vector: `sqrt(norm_sq(v))` under
    /// cosine, zero under Euclidean (which never reads it).
    #[inline]
    pub(crate) fn root_cache(self, v: &[f32]) -> f32 {
        self.norm_cache(v).sqrt()
    }
}

/// A brute-force index: ids are assigned densely in insertion order.
/// Vectors live in one contiguous row-major arena with per-row cached
/// squared norms, so a scan is a straight sweep of adjacent memory.
pub struct BruteForceIndex {
    dim: usize,
    metric: Metric,
    data: Vec<f32>,
    norms: Vec<f32>,
}

impl BruteForceIndex {
    pub fn new(dim: usize, metric: Metric) -> Self {
        Self { dim, metric, data: Vec::new(), norms: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Insert a vector, returning its id.
    pub fn add(&mut self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dim, "vector dim");
        self.data.extend_from_slice(v);
        self.norms.push(self.metric.norm_cache(v));
        self.len() - 1
    }

    pub fn get(&self, id: usize) -> &[f32] {
        &self.data[id * self.dim..(id + 1) * self.dim]
    }

    /// Exact top-k by ascending distance. Ties break by id for
    /// reproducibility.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<(usize, f32)> {
        assert_eq!(query.len(), self.dim, "query dim");
        let qn = self.metric.norm_cache(query);
        let mut hits: Vec<(usize, f32)> = (0..self.len())
            .map(|i| (i, self.metric.distance_prenorm(query, qn, self.get(i), self.norms[i])))
            .collect();
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        hits.truncate(k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_distance_basics() {
        let m = Metric::Cosine;
        assert!(m.distance(&[1.0, 0.0], &[1.0, 0.0]).abs() < 1e-6);
        assert!((m.distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-6);
        assert!((m.distance(&[1.0, 0.0], &[-1.0, 0.0]) - 2.0).abs() < 1e-6);
        assert_eq!(m.distance(&[0.0, 0.0], &[1.0, 0.0]), 1.0, "zero vector safe");
    }

    #[test]
    fn euclidean_distance() {
        let m = Metric::Euclidean;
        assert_eq!(m.distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn search_orders_by_distance() {
        let mut idx = BruteForceIndex::new(2, Metric::Euclidean);
        idx.add(&[0.0, 0.0]);
        idx.add(&[1.0, 0.0]);
        idx.add(&[5.0, 0.0]);
        let hits = idx.search(&[0.9, 0.0], 3);
        assert_eq!(hits[0].0, 1);
        assert_eq!(hits[1].0, 0);
        assert_eq!(hits[2].0, 2);
        assert_eq!(idx.search(&[0.0, 0.0], 1).len(), 1);
    }

    /// The pre-optimization distance kernels, verbatim: one fused loop
    /// accumulating dot and both norms (cosine), and the element-wise
    /// squared-difference sum (Euclidean).
    fn reference_distance(metric: Metric, a: &[f32], b: &[f32]) -> f32 {
        match metric {
            Metric::Cosine => {
                let mut dot = 0.0f32;
                let mut na = 0.0f32;
                let mut nb = 0.0f32;
                for (&x, &y) in a.iter().zip(b) {
                    dot += x * y;
                    na += x * x;
                    nb += y * y;
                }
                if na == 0.0 || nb == 0.0 {
                    1.0
                } else {
                    1.0 - dot / (na.sqrt() * nb.sqrt())
                }
            }
            Metric::Euclidean => {
                let mut s = 0.0f32;
                for (&x, &y) in a.iter().zip(b) {
                    let d = x - y;
                    s += d * d;
                }
                s
            }
        }
    }

    /// The unrolled cached-norm kernels must agree with the reference
    /// fused loops to the last bit — the arena HNSW persists graphs built
    /// from these distances. Exercises every unroll remainder (len % 4).
    #[test]
    fn unrolled_kernels_bit_identical_to_reference() {
        use tsfm_table::hash::splitmix64;
        for dim in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 33] {
            for seed in 0u64..20 {
                let v = |salt: u64| -> Vec<f32> {
                    (0..dim)
                        .map(|j| {
                            let h = splitmix64(seed ^ salt ^ ((j as u64) << 32));
                            (h % 1000) as f32 / 250.0 - 2.0
                        })
                        .collect()
                };
                let (a, b) = (v(0x1111), v(0x2222));
                for metric in [Metric::Cosine, Metric::Euclidean] {
                    let fast = metric.distance(&a, &b);
                    let prenorm = metric.distance_prenorm(
                        &a,
                        metric.norm_cache(&a),
                        &b,
                        metric.norm_cache(&b),
                    );
                    let reference = reference_distance(metric, &a, &b);
                    assert_eq!(
                        fast.to_bits(),
                        reference.to_bits(),
                        "{metric:?} dim={dim} seed={seed}: distance() drifted"
                    );
                    assert_eq!(
                        prenorm.to_bits(),
                        reference.to_bits(),
                        "{metric:?} dim={dim} seed={seed}: distance_prenorm() drifted"
                    );
                }
                // Zero-vector guard unchanged.
                let z = vec![0.0f32; dim];
                assert_eq!(
                    Metric::Cosine.distance(&a, &z),
                    reference_distance(Metric::Cosine, &a, &z)
                );
            }
        }
    }

    #[test]
    fn deterministic_tie_break() {
        let mut idx = BruteForceIndex::new(1, Metric::Euclidean);
        idx.add(&[1.0]);
        idx.add(&[1.0]);
        let hits = idx.search(&[1.0], 2);
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits[1].0, 1);
    }
}
