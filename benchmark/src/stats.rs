//! Order statistics used by every timing metric.
//!
//! A timing is reported from at least five in-run repetitions, never a
//! single shot — as their quartile on the metric's better side
//! ([`quiet_quartile`]), because on a shared host interference comes in
//! bursts of seconds and only ever makes a repetition worse; a tail
//! percentile is reported only when the sample supports it (at least ten
//! samples beyond it).

/// Median of `samples` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// Nearest-rank percentile of an ascending-sorted slice, `q` in `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    Some(sorted[rank])
}

/// How many samples a tail percentile needs so that at least `beyond`
/// samples lie above it: `q = 0.99`, `beyond = 10` needs 1 000.
pub fn samples_needed(q: f64, beyond: usize) -> usize {
    (beyond as f64 / (1.0 - q)).ceil() as usize
}

/// The tail percentile `q` of an ascending-sorted sample, or `None` when
/// fewer than ten samples would lie beyond it — a p99 over 300 requests
/// is three samples' worth of luck, not a percentile.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.len() < samples_needed(q, 10) {
        return None;
    }
    percentile_sorted(sorted, q)
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)`. `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let quart = |k: usize| {
        // Position k(n+1)/4, 1-based, clamped.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    Some((quart(1), quart(3)))
}

/// Inter-quartile distance as a share of the median, the spread the
/// acceptance protocol uses. `None` below two samples.
pub fn iqr_over_median(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let med = median(samples)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// What a run reports for a timing measured over in-run repetitions: the
/// quartile on the better side — the first for a time, the third for a
/// rate (of five repetitions, the mean of the best two). A neighbour on
/// the shared host slows some repetitions for seconds at a time and speeds
/// none up, so the median moves whenever half of them are hit (ten-seed
/// spread of `serve_p99_us` 33 %) and this quartile only when nearly all
/// are (10 %; NOISE.md, "In-run estimator"); unlike the single best
/// repetition it is not one lucky sample. A lone sample is itself.
pub fn quiet_quartile(samples: &[f64], better: Better) -> Option<f64> {
    match (samples, quartiles(samples)) {
        ([one], _) => Some(*one),
        (_, Some((q1, q3))) => Some(if better == Better::Lower { q1 } else { q3 }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&v, 0.5), Some(51.0));
        assert_eq!(percentile_sorted(&v, 1.0), Some(100.0));
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(samples_needed(0.99, 10), 1000);
        assert_eq!(samples_needed(0.5, 10), 20);
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(supported_percentile(&short, 0.99), None, "999 samples: 9 beyond p99");
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = supported_percentile(&enough, 0.99).unwrap();
        assert!(enough.iter().filter(|&&x| x > p99).count() >= 10);
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let got = iqr_over_median(&v).unwrap();
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
        assert_eq!(iqr_over_median(&[1.0]), None);
    }

    #[test]
    fn quiet_quartile_ignores_the_disturbed_half() {
        // Five windows, three of them hit by a neighbour: the median moves,
        // the better-side quartile is the mean of the two quiet ones.
        let p99 = [615.0, 464.0, 326.0, 428.0, 324.0];
        assert_eq!(median(&p99), Some(428.0));
        assert_eq!(quiet_quartile(&p99, Better::Lower), Some(325.0));
        let qps = [8915.0, 10133.0, 13006.0, 12305.0, 12978.0];
        assert_eq!(quiet_quartile(&qps, Better::Higher), Some(12992.0));
        // 21 restarts: between the 5th and 6th best.
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(quiet_quartile(&v, Better::Lower), Some(5.5));
        assert_eq!(quiet_quartile(&[7.0], Better::Higher), Some(7.0));
        assert_eq!(quiet_quartile(&[], Better::Lower), None);
    }
}
