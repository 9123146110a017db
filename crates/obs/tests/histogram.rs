//! Edge-case and property coverage for [`tsfm_obs::metrics::Histogram`] —
//! the instrument behind the serve latency, so its quantiles back both the
//! `stats` verb and Prometheus exposition.
//!
//! The accuracy contract under test: quantiles are reported from bucket
//! *lower edges*, so they are exact below 64µs and within one log
//! sub-bucket (1/32 ≈ 3.2% relative) above — and they never over-state a
//! latency.

use proptest::prelude::*;
use tsfm_obs::metrics::Histogram;

#[test]
fn empty_histogram_reports_zeros() {
    let h = Histogram::new();
    assert_eq!(h.count(), 0);
    assert_eq!(h.sum(), 0);
    assert_eq!(h.max(), 0);
    assert_eq!(h.mean(), 0.0);
    for q in [0.0, 0.5, 1.0] {
        assert_eq!(h.percentile(q), 0, "empty histogram, q={q}");
    }
}

#[test]
fn quantile_bounds_clamp_to_min_and_max_sample() {
    let h = Histogram::new();
    for v in [3u64, 17, 40, 59] {
        h.record(v);
    }
    // q=0.0 has rank ceil(0) = 0, clamped up to rank 1: the minimum.
    assert_eq!(h.percentile(0.0), 3);
    // q=1.0 is rank n: the maximum (exact — all samples sub-64µs).
    assert_eq!(h.percentile(1.0), 59);
    // Out-of-range q values clamp rather than indexing out of bounds.
    assert_eq!(h.percentile(-1.0), 3);
    assert_eq!(h.percentile(2.0), 59);
}

#[test]
fn single_sample_is_every_quantile() {
    let h = Histogram::new();
    h.record(42);
    for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
        assert_eq!(h.percentile(q), 42, "q={q}");
    }
    assert_eq!(h.mean(), 42.0);
    assert_eq!(h.max(), 42);
}

#[test]
fn values_past_the_top_bucket_clamp() {
    let h = Histogram::new();
    h.record(u64::MAX);
    h.record(1 << 55);
    h.record(7); // one small value so the walk crosses bucket ranges
    assert_eq!(h.count(), 3);
    assert_eq!(h.max(), u64::MAX);
    assert_eq!(h.percentile(0.0), 7);
    // Both huge values share the final clamp bucket; its floor is still
    // astronomically large (≥ 2^40µs ≈ 13 days) and ≤ the true value.
    let top = h.percentile(1.0);
    assert!(top >= 1 << 40, "clamp bucket floor: {top}");
}

/// Exact reference: the `q`-quantile of the sorted samples under the
/// histogram's own rank rule (1-based `ceil(q·n)`, clamped to `[1, n]`).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

proptest! {
    /// Against arbitrary sample sets and quantiles, the histogram answer
    /// is never above the exact answer and never more than one log
    /// sub-bucket (~3.2%) below it; sub-64µs answers are exact.
    #[test]
    fn prop_quantiles_track_exact_sorted_reference(
        values in proptest::collection::vec(0u64..2_000_000, 1..300),
        q in 0.0f64..1.0,
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values;
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, q);
        let got = h.percentile(q);
        prop_assert!(got <= exact, "reported {got} over-states exact {exact}");
        if exact < 64 {
            prop_assert_eq!(got, exact, "sub-64µs quantiles are exact");
        } else {
            let rel = (exact - got) as f64 / exact as f64;
            prop_assert!(
                rel <= 1.0 / 32.0 + 1e-12,
                "got {got}, exact {exact}: relative error {rel:.4} > 1/32"
            );
        }
    }

    /// Count/sum/max always match the raw samples regardless of bucketing.
    #[test]
    fn prop_count_sum_max_are_exact(
        values in proptest::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(h.max(), values.iter().copied().max().unwrap_or(0));
    }
}
