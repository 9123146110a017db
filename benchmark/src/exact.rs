//! The exact rankings served results are scored against.
//!
//! `recall_at_10` compares the served top-10 with the exact ranking *on
//! the same sketches*: for join/union, per query column the `3k` nearest
//! corpus columns by cosine from a [`BruteForceIndex`] over the public
//! sketch features, collapsed to tables by [`tsfm_search::near_tables`]
//! (the Fig.-6 ranking the engine itself uses); for subset, the exact
//! [`MinHash::jaccard`] against every table's content snapshot. Ties at
//! the cut count for the served answer in every mode. So the number
//! isolates what the approximate indexes (HNSW beam, LSH banding) lose,
//! and repeats exactly for a seed.

use std::sync::Arc;
use tsfm_search::{near_tables, BruteForceIndex, ColumnHit, Metric};
use tsfm_sketch::numeric::NUMERIC_SKETCH_DIM;
use tsfm_sketch::{ColumnSketch, MinHash, TableSketch};
use tsfm_store::QueryMode;

/// Per-query-column over-retrieval of the Fig.-6 algorithm (`k·3`).
const OVER_RETRIEVE: usize = 3;

fn join_features(c: &ColumnSketch, out: &mut Vec<f32>) {
    out.clear();
    c.cell_minhash.extend_f32_features(out);
}

fn union_features(c: &ColumnSketch, out: &mut Vec<f32>) {
    out.clear();
    c.extend_minhash_features(out);
    out.extend(c.numeric.to_f32_features());
}

pub struct Reference {
    /// Table ids, ascending — the engine's canonical order, so ties in
    /// the Fig.-6 ranking break the same way.
    ids: Vec<String>,
    /// Column index → owning table's index.
    owner: Vec<usize>,
    join: BruteForceIndex,
    union: BruteForceIndex,
    snapshots: Vec<MinHash>,
}

impl Reference {
    /// `sketches` must be in ascending table-id order.
    pub fn build(sketches: &[Arc<TableSketch>]) -> Reference {
        let k = sketches.first().map_or(0, |s| s.content_snapshot.k());
        let mut join = BruteForceIndex::new(k, Metric::Cosine);
        let mut union = BruteForceIndex::new(2 * k + NUMERIC_SKETCH_DIM, Metric::Cosine);
        let mut owner = Vec::new();
        let mut buf = Vec::new();
        for (ti, s) in sketches.iter().enumerate() {
            for c in &s.columns {
                join_features(c, &mut buf);
                join.add(&buf);
                union_features(c, &mut buf);
                union.add(&buf);
                owner.push(ti);
            }
        }
        Reference {
            ids: sketches.iter().map(|s| s.table_id.clone()).collect(),
            owner,
            join,
            union,
            snapshots: sketches.iter().map(|s| s.content_snapshot.clone()).collect(),
        }
    }

    pub fn columns(&self) -> usize {
        self.owner.len()
    }

    /// Share of the exact top-`k` for `query` that `served` (table ids,
    /// rank order) contains; `None` when the exact ranking is empty (a
    /// subset query no table overlaps). The query table itself, when it
    /// is in the corpus, is excluded — as the served request excludes it.
    pub fn recall(
        &self,
        query: &TableSketch,
        mode: QueryMode,
        served: &[String],
        k: usize,
    ) -> Option<f64> {
        let exclude = self.ids.binary_search(&query.table_id).ok();
        let served = &served[..served.len().min(k)];
        match mode {
            QueryMode::Join | QueryMode::Union => {
                let (index, features): (_, fn(&ColumnSketch, &mut Vec<f32>)) = match mode {
                    QueryMode::Join => (&self.join, join_features),
                    _ => (&self.union, union_features),
                };
                // Corpora full of near-duplicate columns tie at the 3k-th
                // place all the time, and which of the tied columns an index
                // returns is arbitrary: keep every column as near as the
                // 3k-th, and count a served table when its exact rank key is
                // as good as the k-th table's.
                let mut buf = Vec::new();
                let per_col: Vec<Vec<ColumnHit>> = query
                    .columns
                    .iter()
                    .map(|c| {
                        features(c, &mut buf);
                        let all = index.search(&buf, index.len());
                        let cut = all.get(k * OVER_RETRIEVE - 1).or(all.last()).map_or(0.0, |h| h.1);
                        all.into_iter()
                            .take_while(|&(_, d)| d <= cut)
                            .map(|(col, d)| ColumnHit { table: self.owner[col], column: col, distance: d })
                            .collect()
                    })
                    .collect();
                let ranked = near_tables(&per_col, exclude);
                let top = k.min(ranked.len());
                let kth = ranked.get(top.checked_sub(1)?)?;
                let found = served
                    .iter()
                    .filter_map(|s| self.ids.binary_search(s).ok())
                    .filter_map(|t| ranked.iter().find(|r| r.table == t))
                    .filter(|r| {
                        r.matching_columns > kth.matching_columns
                            || (r.matching_columns == kth.matching_columns
                                && r.distance_sum <= kth.distance_sum)
                    })
                    .count();
                Some(found.min(top) as f64 / top as f64)
            }
            QueryMode::Subset => {
                // MinHash Jaccards are multiples of 1/k, so ties at the
                // cut are common: a served table counts when its exact
                // score reaches the k-th best.
                let score = |i: usize| query.content_snapshot.jaccard(&self.snapshots[i]);
                let mut scores: Vec<f64> = (0..self.ids.len())
                    .filter(|&i| Some(i) != exclude)
                    .map(score)
                    .filter(|&j| j > 0.0)
                    .collect();
                scores.sort_by(|a, b| b.total_cmp(a));
                scores.truncate(k);
                let cut = *scores.last()?;
                let found = served
                    .iter()
                    .filter_map(|s| self.ids.binary_search(s).ok())
                    .filter(|&i| Some(i) != exclude && score(i) >= cut)
                    .count();
                Some(found.min(scores.len()) as f64 / scores.len() as f64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsfm_sketch::SketchConfig;
    use tsfm_table::csv::table_from_csv;

    fn sketch(id: &str, text: &str) -> Arc<TableSketch> {
        Arc::new(TableSketch::build(&table_from_csv(id, id, text), &SketchConfig::default()))
    }

    #[test]
    fn a_perfect_answer_has_recall_one_and_a_wrong_one_less() {
        let a = sketch("a", "city,pop\nvienna,1\ngraz,2\nlinz,3\n");
        let b = sketch("b", "city,pop\nvienna,1\ngraz,2\nbern,9\n");
        let c = sketch("c", "fruit,kg\napple,5\npear,6\nplum,7\n");
        let r = Reference::build(&[a.clone(), b, c]);
        assert_eq!(r.columns(), 6);
        for mode in QueryMode::ALL {
            // `a` overlaps `b` in every sense and `c` in none.
            let best = r.recall(&a, mode, &["b".to_string(), "c".to_string()], 1).unwrap();
            assert_eq!(best, 1.0, "{mode}");
            let worst = r.recall(&a, mode, &["c".to_string()], 1).unwrap();
            assert_eq!(worst, 0.0, "{mode}");
        }
    }
}
