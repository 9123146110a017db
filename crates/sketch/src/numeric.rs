//! Numerical sketches (§III-A): distributional statistics per column.

use tsfm_table::hash::hash_str;
use tsfm_table::Column;

/// The fixed feature layout of a numerical sketch. Order matches the paper:
/// `[unique count, NaN count, cell width, p10..p90, mean, std, min, max]`
/// with the two counts normalized by the number of rows.
pub const NUMERIC_SKETCH_DIM: usize = 16;

/// Distributional statistics of one column.
///
/// For string columns the distribution fields (`percentiles`, `mean`, `std`,
/// `min`, `max`) are zero — only uniqueness, null fraction and average cell
/// width (bytes) carry signal, exactly as the paper describes.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericalSketch {
    pub unique_frac: f64,
    pub nan_frac: f64,
    /// Average rendered cell width in bytes (join keys are rarely long).
    pub cell_width: f64,
    /// 10th..90th percentiles (linear interpolation).
    pub percentiles: [f64; 9],
    pub mean: f64,
    pub std: f64,
    pub min: f64,
    pub max: f64,
}

impl NumericalSketch {
    /// Compute the sketch for a column, considering at most `max_rows` rows
    /// (the paper sketches the first 10,000 rows).
    pub fn of_column(col: &Column, max_rows: usize) -> Self {
        let n = col.len().min(max_rows);
        let slice = &col.values[..n];

        let mut hashes: Vec<u64> = Vec::with_capacity(n);
        let mut width_sum = 0usize;
        let mut nan = 0usize;
        let mut non_null = 0usize;
        for v in slice {
            if v.is_null() {
                nan += 1;
                continue;
            }
            non_null += 1;
            let r = v.render();
            width_sum += r.len();
            hashes.push(hash_str(&r));
        }

        let nums: Vec<f64> =
            slice.iter().filter_map(tsfm_table::Value::as_f64).filter(|f| f.is_finite()).collect();
        Self::from_parts(n, nan, non_null, width_sum, hashes, nums)
    }

    /// Build a sketch from per-cell observations gathered elsewhere —
    /// the hash-once path: [`crate::ColumnSketch::build`] renders and
    /// hashes each cell exactly once and shares the same `u64` stream
    /// between the cell MinHash and this sketch's unique count.
    /// [`NumericalSketch::of_column`] is the single-pass reference; the
    /// two are bit-identical given the same window (see
    /// `tests/determinism.rs`).
    ///
    /// * `total_rows` — rows in the sketching window (`min(len, max_rows)`)
    /// * `nan` / `non_null` — null and non-null cell counts in the window
    /// * `width_sum` — total rendered byte width of non-null cells
    /// * `hashes` — stable hash of each non-null cell's rendering, in any
    ///   order; it may arrive already sorted and deduplicated (as
    ///   `ColumnSketch::build` passes it), since only the distinct count
    ///   is read
    /// * `nums` — finite numeric values in window order
    pub fn from_parts(
        total_rows: usize,
        nan: usize,
        non_null: usize,
        width_sum: usize,
        mut hashes: Vec<u64>,
        mut nums: Vec<f64>,
    ) -> Self {
        let total = total_rows.max(1) as f64;
        hashes.sort_unstable();
        hashes.dedup();
        let unique = hashes.len();

        // Ingest filters non-finite values, so Equal is unreachable for
        // distinct elements; it keeps a stray NaN from panicking the
        // whole sketch build.
        nums.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));

        let (mut percentiles, mut mean, mut std, mut min, mut max) =
            ([0.0; 9], 0.0, 0.0, 0.0, 0.0);
        if let (Some(first), Some(last)) = (nums.first(), nums.last()) {
            for (i, p) in (1..=9).zip(percentiles.iter_mut()) {
                *p = percentile(&nums, i as f64 * 10.0);
            }
            mean = nums.iter().sum::<f64>() / nums.len() as f64;
            let var =
                nums.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / nums.len() as f64;
            std = var.sqrt();
            min = *first;
            max = *last;
        }

        NumericalSketch {
            unique_frac: unique as f64 / total,
            nan_frac: nan as f64 / total,
            cell_width: if non_null > 0 { width_sum as f64 / non_null as f64 } else { 0.0 },
            percentiles,
            mean,
            std,
            min,
            max,
        }
    }

    /// Flatten to the paper's fixed vector layout.
    pub fn to_vec(&self) -> [f64; NUMERIC_SKETCH_DIM] {
        let mut v = [0.0; NUMERIC_SKETCH_DIM];
        v[0] = self.unique_frac;
        v[1] = self.nan_frac;
        v[2] = self.cell_width;
        v[3..12].copy_from_slice(&self.percentiles);
        v[12] = self.mean;
        v[13] = self.std;
        v[14] = self.min;
        v[15] = self.max;
        v
    }

    /// Neural-input features: `sign(x)·ln(1+|x|)` per element. Raw
    /// statistics span wild magnitudes (populations vs rates); the signed
    /// log keeps the linear projection trainable. The paper does not
    /// specify a normalization; this choice is documented in DESIGN.md.
    ///
    /// Every feature is finite. A column of huge values overflows its
    /// mean and std to ±inf or NaN (the sketch keeps them as computed);
    /// here ±inf becomes `±ln(1 + f64::MAX)`, the feature of the largest
    /// finite value, and NaN becomes 0 — a NaN feature would make every
    /// cosine distance to the column NaN. Finite statistics map as before,
    /// to the bit.
    pub fn to_f32_features(&self) -> [f32; NUMERIC_SKETCH_DIM] {
        let mut out = [0.0f32; NUMERIC_SKETCH_DIM];
        for (o, x) in out.iter_mut().zip(self.to_vec()) {
            let x = if x.is_nan() { 0.0 } else { x.clamp(-f64::MAX, f64::MAX) };
            *o = (x.signum() * x.abs().ln_1p()) as f32;
        }
        out
    }

    /// Zero sketch (used for padding / non-column tokens).
    pub fn zeros() -> Self {
        NumericalSketch {
            unique_frac: 0.0,
            nan_frac: 0.0,
            cell_width: 0.0,
            percentiles: [0.0; 9],
            mean: 0.0,
            std: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// L1 distance between sketch vectors — a cheap similarity used by the
    /// D3L-style baseline's "numerical column distribution" evidence.
    pub fn l1_distance(&self, other: &Self) -> f64 {
        self.to_vec().iter().zip(other.to_vec()).map(|(a, b)| (a - b).abs()).sum()
    }
}

/// Percentile with linear interpolation between closest ranks.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsfm_table::Value;

    fn int_col(vals: Vec<i64>) -> Column {
        Column::new("c", vals.into_iter().map(Value::Int).collect())
    }

    /// Overflowed statistics give finite features; finite ones keep the
    /// bits of the unclamped formula.
    #[test]
    fn features_are_finite_for_overflowed_statistics() {
        let cells = vec![Value::Float(1e308); 20];
        let s = NumericalSketch::of_column(&Column::new("val", cells), 10_000);
        assert!(!s.mean.is_finite() || !s.std.is_finite(), "the lake that overflows: {s:?}");
        let f = s.to_f32_features();
        assert!(f.iter().all(|x| x.is_finite()), "{f:?}");
        let mut odd = NumericalSketch::zeros();
        odd.mean = f64::INFINITY;
        odd.std = f64::NAN;
        odd.min = f64::NEG_INFINITY;
        odd.max = f64::MAX;
        let f = odd.to_f32_features();
        assert_eq!(f[12], f64::MAX.ln_1p() as f32);
        assert_eq!(f[13], 0.0);
        assert_eq!(f[14], -f[12]);
        assert_eq!(f[15], f[12]);
        let col = int_col((-40..=260).map(|i| i * 7919).collect());
        let s = NumericalSketch::of_column(&col, 10_000);
        for (got, x) in s.to_f32_features().iter().zip(s.to_vec()) {
            assert_eq!(got.to_bits(), ((x.signum() * x.abs().ln_1p()) as f32).to_bits());
        }
    }

    #[test]
    fn percentiles_of_1_to_101() {
        let col = int_col((1..=101).collect());
        let s = NumericalSketch::of_column(&col, 10_000);
        // 1..=101 has p10 = 11, p50 = 51, p90 = 91 exactly.
        assert_eq!(s.percentiles[0], 11.0);
        assert_eq!(s.percentiles[4], 51.0);
        assert_eq!(s.percentiles[8], 91.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 101.0);
        assert_eq!(s.mean, 51.0);
        assert_eq!(s.unique_frac, 1.0);
        assert_eq!(s.nan_frac, 0.0);
    }

    #[test]
    fn interpolation() {
        assert_eq!(percentile(&[0.0, 10.0], 50.0), 5.0);
        assert_eq!(percentile(&[0.0, 10.0], 10.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn null_and_unique_fractions() {
        let col = Column::new(
            "c",
            vec![Value::Int(1), Value::Int(1), Value::Null, Value::Int(2)],
        );
        let s = NumericalSketch::of_column(&col, 10_000);
        assert_eq!(s.nan_frac, 0.25);
        assert_eq!(s.unique_frac, 0.5); // {1,2} over 4 rows
    }

    #[test]
    fn string_columns_have_zero_distribution() {
        let col = Column::new(
            "c",
            vec![Value::Str("hello".into()), Value::Str("hi".into())],
        );
        let s = NumericalSketch::of_column(&col, 10_000);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.percentiles, [0.0; 9]);
        assert_eq!(s.cell_width, 3.5); // (5 + 2) / 2
    }

    #[test]
    fn date_columns_numeric_through_timestamps() {
        let col = Column::new("c", vec![Value::Date(0), Value::Date(86400)]);
        let s = NumericalSketch::of_column(&col, 10_000);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 86400.0);
    }

    #[test]
    fn max_rows_respected() {
        let col = int_col((0..100).collect());
        let s = NumericalSketch::of_column(&col, 10);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.unique_frac, 1.0);
    }

    #[test]
    fn empty_column() {
        let col = Column::new("c", vec![]);
        let s = NumericalSketch::of_column(&col, 10_000);
        assert_eq!(s.to_vec(), NumericalSketch::zeros().to_vec());
    }

    #[test]
    fn feature_scaling_is_signed_log() {
        let col = int_col(vec![-1000, 1000]);
        let s = NumericalSketch::of_column(&col, 10_000);
        let f = s.to_f32_features();
        assert!(f[14] < 0.0, "min keeps sign");
        assert!((f[15] - 1001f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn l1_distance_zero_iff_same() {
        let a = NumericalSketch::of_column(&int_col(vec![1, 2, 3]), 100);
        let b = NumericalSketch::of_column(&int_col(vec![1, 2, 3]), 100);
        let c = NumericalSketch::of_column(&int_col(vec![100, 200]), 100);
        assert_eq!(a.l1_distance(&b), 0.0);
        assert!(a.l1_distance(&c) > 1.0);
    }
}
