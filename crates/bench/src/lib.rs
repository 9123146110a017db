//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§IV). Each `src/bin/exp_*.rs` binary prints the rows/series
//! of one artefact; this library holds the shared pipeline.

#![forbid(unsafe_code)]

pub mod scale;
pub mod searchexp;
pub mod tasks;
pub mod unionexp;

pub use scale::Scale;

/// Render a results row: name then fixed-width numeric columns.
pub fn row(name: &str, values: &[f64]) -> String {
    let mut s = format!("{name:<24}");
    for v in values {
        s.push_str(&format!(" {v:>8.3}"));
    }
    s
}

/// Print one search-table row: Mean F1 (%), P@k, R@k.
pub fn print_search_row(
    name: &str,
    retrieved: &[Vec<usize>],
    gold: &[std::collections::BTreeSet<usize>],
    k: usize,
) {
    let s = tsfm_search::evaluate_search(retrieved, gold, k);
    println!(
        "{name:<20} {:>8.2} {:>6.2} {:>6.2}",
        100.0 * s.mean_f1,
        s.mean_precision,
        s.mean_recall
    );
}

/// Print a Fig.-4/8 style F1@k series.
pub fn print_curve(
    name: &str,
    retrieved: &[Vec<usize>],
    gold: &[std::collections::BTreeSet<usize>],
    ks: &[usize],
) {
    let curve = tsfm_search::f1_curve(retrieved, gold, ks);
    print!("{name:<20}");
    for v in curve {
        print!(" {:>6.3}", v);
    }
    println!();
}
