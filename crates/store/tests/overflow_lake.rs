//! A numeric column whose values overflow its statistics must not take
//! the index down. Sixty two-column tables, every third one with a `val`
//! column of twenty `1e308` cells: the column's mean and std overflow to
//! ±inf / NaN. Before the fix, those reached the union feature as NaN,
//! every cosine distance to the column was NaN, and the first query
//! panicked inside the shared index build ("comparison function does not
//! correctly implement a total order"), in every mode.

use std::path::PathBuf;
use tsfm_store::{Catalog, DiscoveryRequest, QueryMode};
use tsfm_table::csv;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsfm_overflow_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Table `i` as CSV: a `name` column and a `val` column, twenty rows.
fn table_csv(i: usize) -> String {
    let mut text = String::from("name,val\n");
    for r in 0..20 {
        let val = if i % 3 == 0 { "1e308".to_string() } else { format!("{}", i * 31 + r) };
        text.push_str(&format!("item{}_{r},{val}\n", i % 7));
    }
    text
}

#[test]
fn an_overflowing_numeric_column_answers_every_mode() {
    let lake = tmp_dir("lake");
    for i in 0..60 {
        std::fs::write(lake.join(format!("t{i:02}.csv")), table_csv(i)).expect("write csv");
    }
    let dir = tmp_dir("catalog");
    let mut cat = Catalog::open(&dir).expect("open");
    assert_eq!(cat.ingest_dir(&lake).expect("ingest").added, 60);
    let searcher = cat.searcher().expect("the index builds");
    for query in [0, 1, 2] {
        let table = csv::table_from_csv("q", "q", &table_csv(query));
        for mode in QueryMode::ALL {
            let req = DiscoveryRequest::builder(mode).k(5).build().expect("request");
            let hits = searcher.search_table(&table, &req).expect("query").hits;
            assert!(!hits.is_empty(), "{} query {query} found nothing", mode.name());
            assert!(hits.iter().all(|h| h.score.is_finite()), "{} query {query}: {hits:?}", mode.name());
        }
    }
    let _ = std::fs::remove_dir_all(&lake);
    let _ = std::fs::remove_dir_all(&dir);
}
