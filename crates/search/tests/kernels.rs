//! The four-lane inner product must be four `dot`s to the bit: every
//! HNSW distance the beam scores in batches goes through it, and
//! persisted graphs were built with `dot`.

use proptest::prelude::*;
use tsfm_search::knn::{dot, dot4};
use tsfm_table::hash::splitmix64;

/// `len` values of wildly mixed magnitude and sign, so rounding differs
/// between any two summation orders.
fn row(len: usize, seed: u64) -> Vec<f32> {
    (0..len as u64)
        .map(|i| {
            let h = splitmix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mantissa = (h & 0xFF_FFFF) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0;
            mantissa * 2f32.powi(((h >> 32) % 40) as i32 - 20)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn each_dot4_lane_is_dot_bitwise(len in 0usize..201, seed in 0u64..u64::MAX) {
        let q = row(len, seed);
        let rows: Vec<Vec<f32>> = (1..=4).map(|j| row(len, splitmix64(seed ^ j))).collect();
        let lanes = dot4(&q, [&rows[0], &rows[1], &rows[2], &rows[3]]);
        for (lane, r) in lanes.iter().zip(&rows) {
            prop_assert_eq!(lane.to_bits(), dot(&q, r).to_bits());
        }
        // A lane may repeat another's row (the beam pads a short batch).
        let padded = dot4(&q, [&rows[2], &rows[2], &rows[2], &rows[0]]);
        prop_assert_eq!(padded[1].to_bits(), dot(&q, &rows[2]).to_bits());
        prop_assert_eq!(padded[3].to_bits(), dot(&q, &rows[0]).to_bits());
    }
}

/// Every length 0–200 once, beside the sampled cases above.
#[test]
fn every_length_up_to_200() {
    for len in 0..=200 {
        let q = row(len, 7);
        let rows: Vec<Vec<f32>> = (0..4).map(|j| row(len, 100 + j)).collect();
        let lanes = dot4(&q, [&rows[0], &rows[1], &rows[2], &rows[3]]);
        for (lane, r) in lanes.iter().zip(&rows) {
            assert_eq!(lane.to_bits(), dot(&q, r).to_bits(), "len {len}");
        }
    }
}
