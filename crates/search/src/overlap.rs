//! Set-overlap search: a Josie-style exact top-k engine and MinHash-based
//! approximate indexes (banded LSH and an LSH Forest).
//!
//! * [`JosieIndex`] — exact top-k set overlap/containment via an inverted
//!   index over value hashes (JOSIE's result semantics; its cost-based
//!   candidate pruning is unnecessary at this corpus scale).
//! * [`MinHashLsh`] — classic banded LSH over MinHash signatures, candidate
//!   generation + exact-signature re-ranking (the LSH Ensemble stand-in).
//! * [`LshForest`] — prefix-tree LSH Forest (Bawa et al.) supporting top-k
//!   without a similarity threshold, as used by the paper's LSHForest
//!   baseline.

use std::collections::{BTreeMap, HashMap, HashSet};
use tsfm_sketch::MinHash;

/// Exact top-k overlap search over sets of hashed values.
pub struct JosieIndex {
    postings: HashMap<u64, Vec<u32>>,
    set_sizes: Vec<usize>,
}

impl Default for JosieIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl JosieIndex {
    pub fn new() -> Self {
        Self { postings: HashMap::new(), set_sizes: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.set_sizes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.set_sizes.is_empty()
    }

    /// Add a set (deduplicated internally), returning its id.
    pub fn add<I: IntoIterator<Item = u64>>(&mut self, elements: I) -> usize {
        let id = self.set_sizes.len() as u32;
        let set: HashSet<u64> = elements.into_iter().collect();
        for &e in &set {
            self.postings.entry(e).or_default().push(id);
        }
        self.set_sizes.push(set.len());
        id as usize
    }

    /// Exact top-k by overlap `|Q ∩ S|` (descending; ties by id).
    pub fn top_k_overlap<I: IntoIterator<Item = u64>>(
        &self,
        query: I,
        k: usize,
    ) -> Vec<(usize, usize)> {
        let q: HashSet<u64> = query.into_iter().collect();
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for e in &q {
            if let Some(post) = self.postings.get(e) {
                for &id in post {
                    *counts.entry(id).or_insert(0) += 1;
                }
            }
        }
        let mut hits: Vec<(usize, usize)> =
            counts.into_iter().map(|(id, c)| (id as usize, c)).collect();
        hits.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hits.truncate(k);
        hits
    }

    /// Exact top-k by containment `|Q ∩ S| / |Q|` of the query in each set
    /// — LSH Ensemble's relevance notion for joinable-table search.
    pub fn top_k_containment<I: IntoIterator<Item = u64>>(
        &self,
        query: I,
        k: usize,
    ) -> Vec<(usize, f64)> {
        let q: Vec<u64> = query.into_iter().collect::<HashSet<_>>().into_iter().collect();
        let qn = q.len().max(1) as f64;
        self.top_k_overlap(q, k)
            .into_iter()
            .map(|(id, c)| (id, c as f64 / qn))
            .collect()
    }
}

/// Banded MinHash LSH: signatures are split into `bands` bands of `rows`
/// slots; sets sharing any band bucket become candidates, then candidates
/// are re-ranked by full-signature Jaccard estimate.
#[derive(Clone)]
pub struct MinHashLsh {
    bands: usize,
    rows: usize,
    buckets: Vec<HashMap<u64, Vec<u32>>>,
    sigs: Vec<MinHash>,
}

impl MinHashLsh {
    /// `bands * rows` must equal the signature width.
    pub fn new(bands: usize, rows: usize) -> Self {
        assert!(bands > 0 && rows > 0);
        Self { bands, rows, buckets: vec![HashMap::new(); bands], sigs: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// The signature stored under `id` (as returned by [`MinHashLsh::add`]).
    pub fn signature(&self, id: usize) -> &MinHash {
        &self.sigs[id]
    }

    fn band_key(&self, sig: &MinHash, band: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &v in &sig.sig[band * self.rows..(band + 1) * self.rows] {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    pub fn add(&mut self, sig: MinHash) -> usize {
        assert_eq!(sig.k(), self.bands * self.rows, "signature width");
        let id = self.sigs.len() as u32;
        for b in 0..self.bands {
            let key = self.band_key(&sig, b);
            self.buckets[b].entry(key).or_default().push(id);
        }
        self.sigs.push(sig);
        id as usize
    }

    /// Candidate ids sharing at least one band bucket with the query.
    pub fn candidates(&self, sig: &MinHash) -> HashSet<usize> {
        let mut out = HashSet::new();
        for b in 0..self.bands {
            if let Some(ids) = self.buckets[b].get(&self.band_key(sig, b)) {
                out.extend(ids.iter().map(|&i| i as usize));
            }
        }
        out
    }

    /// Top-k candidates re-ranked by estimated Jaccard (descending).
    pub fn search(&self, sig: &MinHash, k: usize) -> Vec<(usize, f64)> {
        let mut hits: Vec<(usize, f64)> = self
            .candidates(sig)
            .into_iter()
            .map(|id| (id, self.sigs[id].jaccard(sig)))
            .collect();
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        hits.truncate(k);
        hits
    }
}

/// LSH Forest: `trees` independent prefix orderings of the signature;
/// top-k candidates are collected by descending longest-common-prefix
/// depth, then re-ranked by full-signature Jaccard.
pub struct LshForest {
    trees: Vec<Tree>,
    sigs: Vec<MinHash>,
    depth: usize,
}

struct Tree {
    /// Which signature slots this tree reads, in order.
    perm: Vec<usize>,
    /// Sorted (key, id); key = permuted signature prefix of `depth` slots.
    entries: BTreeMap<Vec<u64>, Vec<u32>>,
}

impl LshForest {
    pub fn new(trees: usize, depth: usize, sig_width: usize, seed: u64) -> Self {
        assert!(depth <= sig_width);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let trees = (0..trees)
            .map(|_| {
                let mut perm: Vec<usize> = (0..sig_width).collect();
                // Fisher-Yates with the local xorshift.
                for i in (1..perm.len()).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    perm.swap(i, j);
                }
                perm.truncate(depth);
                Tree { perm, entries: BTreeMap::new() }
            })
            .collect();
        Self { trees, sigs: Vec::new(), depth }
    }

    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    fn key_for(tree: &Tree, sig: &MinHash) -> Vec<u64> {
        tree.perm.iter().map(|&i| sig.sig[i]).collect()
    }

    pub fn add(&mut self, sig: MinHash) -> usize {
        let id = self.sigs.len() as u32;
        for t in &mut self.trees {
            let key = Self::key_for(t, &sig);
            t.entries.entry(key).or_default().push(id);
        }
        self.sigs.push(sig);
        id as usize
    }

    /// Top-k by longest-prefix candidacy, re-ranked by Jaccard estimate.
    pub fn search(&self, sig: &MinHash, k: usize) -> Vec<(usize, f64)> {
        let mut cands: HashSet<usize> = HashSet::new();
        // Descend from the full depth; stop once enough candidates.
        for d in (0..=self.depth).rev() {
            for t in &self.trees {
                let prefix = &Self::key_for(t, sig)[..d];
                // Range scan over keys sharing the prefix.
                let lo = prefix.to_vec();
                let mut hi = prefix.to_vec();
                hi.push(u64::MAX);
                for (_, ids) in t.entries.range(lo..=hi) {
                    cands.extend(ids.iter().map(|&i| i as usize));
                }
            }
            if cands.len() >= k * 3 {
                break;
            }
        }
        let mut hits: Vec<(usize, f64)> =
            cands.into_iter().map(|id| (id, self.sigs[id].jaccard(sig))).collect();
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        hits.truncate(k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsfm_sketch::MinHasher;
    use tsfm_table::hash::hash_str;

    fn hashes(prefix: &str, range: std::ops::Range<usize>) -> Vec<u64> {
        range.map(|i| hash_str(&format!("{prefix}{i}"))).collect()
    }

    #[test]
    fn josie_exact_topk() {
        let mut idx = JosieIndex::new();
        idx.add(hashes("x", 0..100)); // overlap 50
        idx.add(hashes("x", 25..75)); // overlap 50
        idx.add(hashes("y", 0..100)); // overlap 0
        idx.add(hashes("x", 40..60)); // overlap 10
        let hits = idx.top_k_overlap(hashes("x", 0..50), 3);
        assert_eq!(hits[0], (0, 50));
        assert_eq!(hits[1], (1, 25));
        assert_eq!(hits[2], (3, 10));
    }

    #[test]
    fn josie_containment() {
        let mut idx = JosieIndex::new();
        idx.add(hashes("x", 0..100));
        let hits = idx.top_k_containment(hashes("x", 0..50), 1);
        assert_eq!(hits[0].0, 0);
        assert!((hits[0].1 - 1.0).abs() < 1e-12, "query fully contained");
    }

    #[test]
    fn josie_empty_query() {
        let mut idx = JosieIndex::new();
        idx.add(hashes("x", 0..10));
        assert!(idx.top_k_overlap(Vec::new(), 5).is_empty());
    }

    #[test]
    fn minhash_lsh_finds_similar() {
        let mh = MinHasher::new(64, 0);
        let mut idx = MinHashLsh::new(16, 4);
        // 20 similar sets and 50 dissimilar.
        for i in 0..20 {
            let sig = mh.signature((0..100).map(|j| {
                if j < 90 {
                    format!("shared{j}")
                } else {
                    format!("own{i}_{j}")
                }
            }));
            idx.add(sig);
        }
        for i in 0..50 {
            idx.add(mh.signature((0..100).map(|j| format!("noise{i}_{j}"))));
        }
        let q = mh.signature((0..90).map(|j| format!("shared{j}")));
        let hits = idx.search(&q, 20);
        assert!(hits.len() >= 15, "most similar sets retrieved: {}", hits.len());
        for (id, j) in &hits[..10] {
            assert!(*id < 20, "top hits are the similar sets");
            assert!(*j > 0.5);
        }
    }

    #[test]
    fn lsh_forest_topk_without_threshold() {
        let mh = MinHasher::new(64, 0);
        let mut forest = LshForest::new(6, 8, 64, 9);
        // Graded similarity: set i shares 100-i elements with the query.
        for i in 0..30 {
            let sig = mh.signature((0..100).map(|j| {
                if j < 100 - i * 3 {
                    format!("q{j}")
                } else {
                    format!("o{i}_{j}")
                }
            }));
            forest.add(sig);
        }
        let q = mh.signature((0..100).map(|j| format!("q{j}")));
        let hits = forest.search(&q, 5);
        assert_eq!(hits.len(), 5);
        // The most-overlapping sets (small i) should dominate the top.
        assert!(hits[0].0 <= 2, "top hit {:?}", hits[0]);
        for w in hits.windows(2) {
            assert!(w[0].1 >= w[1].1, "descending similarity");
        }
    }

    #[test]
    fn lsh_banding_width_enforced() {
        let mh = MinHasher::new(32, 0);
        let mut idx = MinHashLsh::new(8, 4);
        idx.add(mh.signature(["a", "b"]));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    #[should_panic(expected = "signature width")]
    fn lsh_wrong_width_panics() {
        let mh = MinHasher::new(16, 0);
        let mut idx = MinHashLsh::new(8, 4);
        idx.add(mh.signature(["a"]));
    }
}
