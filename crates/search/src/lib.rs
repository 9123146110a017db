//! Search infrastructure for data discovery: exact and approximate
//! nearest-neighbour indexes, set-overlap search, the paper's Fig.-6
//! table-ranking algorithm, and the evaluation metrics of §IV.

#![forbid(unsafe_code)]

pub mod hnsw;
pub mod knn;
pub mod metrics;
pub mod overlap;
pub mod rank;
pub mod simhash;

pub use hnsw::{
    Hnsw, HnswConfig, HnswLoader, HnswSnapshot, SearchScratch, DEAD_REBUILD_DIVISOR, MAX_M,
};
pub use knn::{BruteForceIndex, Metric};
pub use metrics::{
    evaluate_search, f1_at_k, f1_curve, multilabel_weighted_f1, precision_at_k, r2_score,
    recall_at_k, weighted_f1, SearchScores,
};
pub use overlap::{JosieIndex, LshForest, MinHashLsh};
pub use rank::{
    column_near_tables, near_tables, near_tables_with_provenance, ranked_table_ids, ColumnHit,
    ColumnProvenance, RankedTable, RankedTableDetail,
};
pub use simhash::{SimHashConfig, SimHashLsh};
