//! The paper's table-ranking algorithm (Fig. 6).
//!
//! Given per-query-column nearest-column hits (`KNNSEARCH` with `k·3`
//! over-retrieval), the algorithm:
//! 1. `COLUMNNEARTABLES` — per column, collapse hits to tables keeping each
//!    table's *closest* matching column distance;
//! 2. `NEARTABLES` — union the per-column table sets;
//! 3. `RANK1` — prefer tables matching more query columns;
//! 4. `RANK2` — break ties by the smaller sum of column distances.

use std::collections::HashMap;

/// One retrieved column: which table owns it, which corpus column it is
/// (a dense index into the searched column space, kept for ranking
/// provenance), and the embedding distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnHit {
    pub table: usize,
    /// Dense index of the retrieved corpus column.
    pub column: usize,
    pub distance: f32,
}

/// Aggregated candidate table.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedTable {
    pub table: usize,
    /// RANK1 key: number of query columns with a match in this table.
    pub matching_columns: usize,
    /// RANK2 key: sum of the per-column minimum distances.
    pub distance_sum: f32,
}

/// `COLUMNNEARTABLES` for one query column: table → min distance.
pub fn column_near_tables(hits: &[ColumnHit]) -> HashMap<usize, f32> {
    let mut best: HashMap<usize, f32> = HashMap::new();
    for h in hits {
        best.entry(h.table)
            .and_modify(|d| {
                if h.distance < *d {
                    *d = h.distance;
                }
            })
            .or_insert(h.distance);
    }
    best
}

/// `NEARTABLES` + `RANK1`/`RANK2`: rank candidate tables for a query table
/// given each of its columns' hits. `exclude` drops the query table itself
/// from the ranking (a query trivially matches itself).
pub fn near_tables(per_column_hits: &[Vec<ColumnHit>], exclude: Option<usize>) -> Vec<RankedTable> {
    let mut counts: HashMap<usize, (usize, f32)> = HashMap::new();
    for hits in per_column_hits {
        for (table, d) in column_near_tables(hits) {
            if Some(table) == exclude {
                continue;
            }
            let e = counts.entry(table).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += d;
        }
    }
    let mut out: Vec<RankedTable> = counts
        .into_iter()
        .map(|(table, (matching_columns, distance_sum))| RankedTable {
            table,
            matching_columns,
            distance_sum,
        })
        .collect();
    out.sort_by(|a, b| {
        b.matching_columns
            .cmp(&a.matching_columns)
            .then(a.distance_sum.total_cmp(&b.distance_sum))
            .then(a.table.cmp(&b.table))
    });
    out
}

/// Convenience: ranked table ids only.
pub fn ranked_table_ids(per_column_hits: &[Vec<ColumnHit>], exclude: Option<usize>) -> Vec<usize> {
    near_tables(per_column_hits, exclude).into_iter().map(|r| r.table).collect()
}

/// Provenance of one matching query column inside a ranked table: which
/// corpus column produced the per-column minimum distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnProvenance {
    /// Index of the query column (position in `per_column_hits`).
    pub query_column: usize,
    /// Dense index of the closest matching corpus column.
    pub corpus_column: usize,
    pub distance: f32,
}

/// A [`RankedTable`] plus the per-column matches behind its rank.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedTableDetail {
    pub table: usize,
    pub matching_columns: usize,
    pub distance_sum: f32,
    /// One entry per matching query column, in query-column order.
    pub matches: Vec<ColumnProvenance>,
}

/// [`near_tables`] with full provenance: identical ranking (same RANK1 /
/// RANK2 / id tie-break ordering), but every candidate table also carries
/// which corpus column each matching query column collapsed to. Ties
/// between equally-distant corpus columns break toward the smaller dense
/// index so explanations are deterministic.
pub fn near_tables_with_provenance(
    per_column_hits: &[Vec<ColumnHit>],
    exclude: Option<usize>,
) -> Vec<RankedTableDetail> {
    let mut agg: HashMap<usize, RankedTableDetail> = HashMap::new();
    for (qc, hits) in per_column_hits.iter().enumerate() {
        // COLUMNNEARTABLES, keeping the winning corpus column per table.
        let mut best: HashMap<usize, (f32, usize)> = HashMap::new();
        for h in hits {
            best.entry(h.table)
                .and_modify(|(d, col)| {
                    if h.distance < *d || (h.distance == *d && h.column < *col) {
                        *d = h.distance;
                        *col = h.column;
                    }
                })
                .or_insert((h.distance, h.column));
        }
        for (table, (distance, corpus_column)) in best {
            if Some(table) == exclude {
                continue;
            }
            let e = agg.entry(table).or_insert_with(|| RankedTableDetail {
                table,
                matching_columns: 0,
                distance_sum: 0.0,
                matches: Vec::new(),
            });
            e.matching_columns += 1;
            e.distance_sum += distance;
            e.matches.push(ColumnProvenance { query_column: qc, corpus_column, distance });
        }
    }
    let mut out: Vec<RankedTableDetail> = agg.into_values().collect();
    out.sort_by(|a, b| {
        b.matching_columns
            .cmp(&a.matching_columns)
            .then(a.distance_sum.total_cmp(&b.distance_sum))
            .then(a.table.cmp(&b.table))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(table: usize, distance: f32) -> ColumnHit {
        ColumnHit { table, column: 0, distance }
    }

    fn hit_col(table: usize, column: usize, distance: f32) -> ColumnHit {
        ColumnHit { table, column, distance }
    }

    #[test]
    fn column_near_tables_keeps_min() {
        let hits = vec![hit(1, 0.5), hit(1, 0.2), hit(2, 0.3)];
        let m = column_near_tables(&hits);
        assert_eq!(m[&1], 0.2);
        assert_eq!(m[&2], 0.3);
    }

    #[test]
    fn rank1_prefers_more_matching_columns() {
        // Table 5 matches both query columns (faraway); table 7 matches one
        // (very close). RANK1 puts 5 first.
        let per_col = vec![
            vec![hit(5, 0.9), hit(7, 0.01)],
            vec![hit(5, 0.9)],
        ];
        let ranked = near_tables(&per_col, None);
        assert_eq!(ranked[0].table, 5);
        assert_eq!(ranked[0].matching_columns, 2);
        assert_eq!(ranked[1].table, 7);
    }

    #[test]
    fn rank2_breaks_ties_by_distance() {
        let per_col = vec![vec![hit(1, 0.5), hit(2, 0.1)]];
        let ranked = near_tables(&per_col, None);
        assert_eq!(ranked[0].table, 2);
        assert_eq!(ranked[1].table, 1);
    }

    #[test]
    fn excludes_query_table() {
        let per_col = vec![vec![hit(0, 0.0), hit(1, 0.5)]];
        let ids = ranked_table_ids(&per_col, Some(0));
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn multiple_columns_same_table_counted_once_per_query_column() {
        // Two corpus columns of table 3 match query column 0; table 3 must
        // count once for that query column, with the min distance.
        let per_col = vec![vec![hit(3, 0.4), hit(3, 0.1)]];
        let ranked = near_tables(&per_col, None);
        assert_eq!(ranked[0].matching_columns, 1);
        assert!((ranked[0].distance_sum - 0.1).abs() < 1e-6);
    }

    #[test]
    fn deterministic_tie_break_by_id() {
        let per_col = vec![vec![hit(9, 0.5), hit(4, 0.5)]];
        let ids = ranked_table_ids(&per_col, None);
        assert_eq!(ids, vec![4, 9]);
    }

    #[test]
    fn provenance_matches_ranking_and_names_winning_columns() {
        // Query col 0 matches table 5 via corpus col 50 (0.2 beats 0.9 from
        // col 51); query col 1 matches table 5 via col 52 and table 7 via
        // col 70.
        let per_col = vec![
            vec![hit_col(5, 51, 0.9), hit_col(5, 50, 0.2)],
            vec![hit_col(5, 52, 0.3), hit_col(7, 70, 0.1)],
        ];
        let plain = near_tables(&per_col, None);
        let detailed = near_tables_with_provenance(&per_col, None);
        assert_eq!(plain.len(), detailed.len());
        for (p, d) in plain.iter().zip(&detailed) {
            assert_eq!((p.table, p.matching_columns), (d.table, d.matching_columns));
            assert!((p.distance_sum - d.distance_sum).abs() < 1e-6);
        }
        let t5 = detailed.iter().find(|d| d.table == 5).unwrap();
        assert_eq!(
            t5.matches,
            vec![
                ColumnProvenance { query_column: 0, corpus_column: 50, distance: 0.2 },
                ColumnProvenance { query_column: 1, corpus_column: 52, distance: 0.3 },
            ]
        );
        let t7 = detailed.iter().find(|d| d.table == 7).unwrap();
        assert_eq!(t7.matches.len(), 1);
        assert_eq!(t7.matches[0].corpus_column, 70);
    }

    #[test]
    fn provenance_tie_breaks_toward_smaller_corpus_column() {
        let per_col = vec![vec![hit_col(1, 12, 0.5), hit_col(1, 3, 0.5)]];
        let detailed = near_tables_with_provenance(&per_col, None);
        assert_eq!(detailed[0].matches[0].corpus_column, 3);
    }

    #[test]
    fn provenance_respects_exclude() {
        let per_col = vec![vec![hit_col(0, 1, 0.0), hit_col(1, 9, 0.5)]];
        let detailed = near_tables_with_provenance(&per_col, Some(0));
        assert_eq!(detailed.len(), 1);
        assert_eq!(detailed[0].table, 1);
    }
}
