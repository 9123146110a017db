//! Determinism guarantees for the sketch layer: sketches must be identical
//! across independent runs (the stable-hashing promise of
//! `tsfm_table::hash`) and — for the set-based sketches — invariant to
//! row-order permutation, which is what makes precomputed sketches
//! comparable across a data lake.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tsfm_sketch::{
    content_snapshot, words_of, ColumnSketch, MinHasher, NumericalSketch, SketchConfig,
    TableSketch,
};
use tsfm_table::hash::{hash_str, hash_str_seeded, splitmix64};
use tsfm_table::{ColType, Column, Table, Value};

fn sample_table() -> Table {
    let mut t = Table::new("det", "determinism sample").with_description("mixed-type table");
    t.push_column(Column::new(
        "city",
        (0..200).map(|i| Value::Str(format!("city {} ward {}", i % 37, i % 11))).collect(),
    ));
    t.push_column(Column::new("population", (0..200).map(|i| Value::Int(i * 13 % 9973)).collect(),));
    t.push_column(Column::new(
        "density",
        (0..200)
            .map(|i| if i % 17 == 0 { Value::Null } else { Value::Float(i as f64 * 0.73) })
            .collect(),
    ));
    t
}

/// The documented contract of `tsfm_table::hash`: output is stable across
/// processes, platforms, and releases. Pinned values catch accidental
/// algorithm changes that would silently invalidate every stored sketch.
#[test]
fn stable_hash_pinned_values() {
    // Hard-coded expected values: any change to the hash algorithm fails
    // here, because it would silently invalidate every stored sketch.
    let golden: [(&str, u64); 4] = [
        ("", 0xc3817c016ba4ff30),
        ("a", 0x5f29c2aadd9b8527),
        ("abc", 0x29e32c04ec3f9c30),
        ("tabsketchfm", 0x402362a9a479137b),
    ];
    for (s, h) in golden {
        assert_eq!(hash_str(s), h, "hash of {s:?} changed — stored sketches would break");
    }
    assert_ne!(hash_str_seeded("abc", 1), hash_str_seeded("abc", 2));
    assert_eq!(hash_str_seeded("abc", 7), hash_str_seeded("abc", 7));
}

#[test]
fn minhash_identical_across_runs() {
    let values: Vec<String> = (0..500).map(|i| format!("value-{i}")).collect();
    let a = MinHasher::new(64, 42).signature(values.iter());
    let b = MinHasher::new(64, 42).signature(values.iter());
    assert_eq!(a, b, "independently constructed hashers must agree");
}

#[test]
fn minhash_invariant_to_element_order() {
    let mut values: Vec<String> = (0..500).map(|i| format!("value-{i}")).collect();
    let hasher = MinHasher::new(64, 42);
    let before = hasher.signature(values.iter());
    let mut rng = StdRng::seed_from_u64(7);
    values.shuffle(&mut rng);
    let after = hasher.signature(values.iter());
    assert_eq!(before, after, "a MinHash is a set sketch; order must not matter");
}

#[test]
fn numerical_sketch_identical_across_runs_and_row_orders() {
    let t = sample_table();
    for col in &t.columns {
        let a = NumericalSketch::of_column(col, 10_000);
        let b = NumericalSketch::of_column(col, 10_000);
        assert_eq!(a, b, "column {}", col.name);
    }
    let mut rng = StdRng::seed_from_u64(3);
    let shuffled = t.shuffled_rows(&mut rng, "det2");
    for (orig, perm) in t.columns.iter().zip(&shuffled.columns) {
        assert_eq!(
            NumericalSketch::of_column(orig, 10_000),
            NumericalSketch::of_column(perm, 10_000),
            "numerical sketch of {} must be row-order invariant",
            orig.name
        );
    }
}

#[test]
fn table_sketch_identical_across_runs() {
    let t = sample_table();
    let cfg = SketchConfig::default();
    let a = TableSketch::build(&t, &cfg);
    let b = TableSketch::build(&t, &cfg);
    assert_eq!(a.content_snapshot, b.content_snapshot);
    assert_eq!(a.num_rows, b.num_rows);
    assert_eq!(a.num_cols(), b.num_cols());
    for (x, y) in a.columns.iter().zip(&b.columns) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.ty, y.ty);
        assert_eq!(x.cell_minhash, y.cell_minhash);
        assert_eq!(x.word_minhash, y.word_minhash);
        assert_eq!(x.numeric, y.numeric);
        assert_eq!(x.minhash_features(), y.minhash_features());
    }
}

/// The naive multi-pass reference: render every non-null cell to an owned
/// string, MinHash the rendered set, MinHash the word set, and compute the
/// numerical sketch in its own pass — exactly what `ColumnSketch::build`
/// did before the hash-once rewrite.
fn reference_column_sketch(col: &Column, hasher: &MinHasher, max_rows: usize) -> ColumnSketch {
    let n = col.len().min(max_rows);
    let rendered: Vec<String> =
        col.values[..n].iter().filter(|v| !v.is_null()).map(tsfm_table::Value::render).collect();
    let cell_minhash = hasher.signature(rendered.iter());
    let word_minhash = (col.ty == ColType::Str)
        .then(|| hasher.signature(rendered.iter().flat_map(|s| words_of(s))));
    let numeric = NumericalSketch::of_column(col, max_rows);
    ColumnSketch { name: col.name.clone(), ty: col.ty, cell_minhash, word_minhash, numeric }
}

fn assert_column_sketches_identical(fast: &ColumnSketch, reference: &ColumnSketch, what: &str) {
    assert_eq!(fast.cell_minhash, reference.cell_minhash, "{what}: cell MinHash");
    assert_eq!(fast.word_minhash, reference.word_minhash, "{what}: word MinHash");
    assert_eq!(
        fast.numeric.to_vec().map(f64::to_bits),
        reference.numeric.to_vec().map(f64::to_bits),
        "{what}: numerical sketch"
    );
}

/// The hash-once single-pass `ColumnSketch::build` (one render + one hash
/// per cell, shared between the cell MinHash and the numeric unique
/// count) must be bit-identical to the multi-pass reference on a real
/// mixed-type table.
#[test]
fn hash_once_column_sketch_matches_reference() {
    let t = sample_table();
    let cfg = SketchConfig::default();
    let hasher = MinHasher::new(cfg.minhash_k, cfg.seed);
    for col in &t.columns {
        let fast = ColumnSketch::build(col, &hasher, cfg.max_rows);
        let reference = reference_column_sketch(col, &hasher, cfg.max_rows);
        assert_column_sketches_identical(&fast, &reference, &col.name);
    }
    // Window truncation takes the same code path.
    for col in &t.columns {
        let fast = ColumnSketch::build(col, &hasher, 17);
        let reference = reference_column_sketch(col, &hasher, 17);
        assert_column_sketches_identical(&fast, &reference, &col.name);
    }
}

proptest! {
    /// Property form over random columns of every type mix: nulls, ints,
    /// floats (incl. integral-valued ones that render as "x.0"), dates,
    /// multi-word unicode strings, and multi-word ASCII strings with
    /// mixed case and punctuation (the byte-wise word path).
    #[test]
    fn prop_hash_once_matches_reference(seed in 0u64..400, len in 0usize..50, max_rows in 1usize..40) {
        let h = |i: usize, salt: u64| splitmix64(seed ^ salt ^ (i as u64).wrapping_mul(0x9e37));
        let pick = |i: usize, salt: u64, from: &[&'static str]| {
            from[(h(i, salt) % from.len() as u64) as usize]
        };
        let values: Vec<Value> = (0..len)
            .map(|i| match h(i, 1) % 8 {
                0 => Value::Null,
                1 => Value::Int(h(i, 2) as i64 % 10_000),
                2 => Value::Float((h(i, 3) % 2_000) as f64 / 8.0 - 100.0),
                3 => Value::Date((h(i, 4) % 4_000_000_000) as i64 - 1_000_000_000),
                4 => Value::Str(format!("word{} straße-{} ΟΔΟΣ", h(i, 5) % 30, h(i, 6) % 7)),
                5 | 6 => Value::Str(format!(
                    "{}{}{}{} {}{} {}.{}{}{}",
                    pick(i, 8, &["", " ", "-", "(", "..."]),
                    pick(i, 9, &["Main", "HIGH", "oak", "eLm", "X"]),
                    pick(i, 10, &["-", "--", "_", "/", " ", ""]),
                    pick(i, 11, &["Street", "ROAD", "ave", "Way"]),
                    h(i, 12) % 40,
                    pick(i, 13, &[",", ",,", ";", "", ":"]),
                    pick(i, 14, &["APT", "apt", "Unit", "No"]),
                    h(i, 15) % 9,
                    pick(i, 16, &["b", "C", "", "x7"]),
                    pick(i, 17, &["", ".", "!", " ", "#"]),
                )),
                _ => Value::Str(format!("v{}", h(i, 7) % 100)),
            })
            .collect();
        let col = Column::new("c", values);
        let hasher = MinHasher::new(32, 0x7ab5);
        let fast = ColumnSketch::build(&col, &hasher, max_rows);
        let reference = reference_column_sketch(&col, &hasher, max_rows);
        prop_assert_eq!(&fast.cell_minhash, &reference.cell_minhash);
        prop_assert_eq!(&fast.word_minhash, &reference.word_minhash);
        prop_assert_eq!(
            fast.numeric.to_vec().map(f64::to_bits),
            reference.numeric.to_vec().map(f64::to_bits)
        );
    }
}

/// `TableSketch::build` assembles its content snapshot from the column
/// pass's rendered-cell arenas; it must equal the standalone
/// [`content_snapshot`] (which re-renders every row) — including on
/// ragged tables, where short columns read as empty cells, and with a
/// truncating row window.
#[test]
fn arena_content_snapshot_matches_reference() {
    let mut t = Table::new("ragged", "ragged");
    t.push_column(Column::new(
        "a",
        (0..40).map(|i| if i % 5 == 0 { Value::Null } else { Value::Int(i) }).collect(),
    ));
    t.push_column(Column::new(
        "b",
        (0..25).map(|i| Value::Str(format!("w{} x{}", i % 9, i))).collect(),
    ));
    t.push_column(Column::new("c", (0..33).map(|i| Value::Date(i * 86_400 + i)).collect()));
    t.push_column(Column::new("empty", vec![]));
    let cfg = SketchConfig::default();
    let hasher = MinHasher::new(cfg.minhash_k, cfg.seed);
    for max_rows in [10_000, 30, 1] {
        let s = TableSketch::build_with_hasher(&t, &hasher, max_rows);
        assert_eq!(
            s.content_snapshot,
            content_snapshot(&t, &hasher, max_rows),
            "max_rows={max_rows}"
        );
    }
}

/// Fold a full table sketch — every signature slot, numeric statistic bit,
/// and feature value — into one u64.
fn sketch_fingerprint(s: &TableSketch) -> u64 {
    let mut acc = splitmix64(s.num_rows as u64 ^ 0x5ce7);
    for &slot in &s.content_snapshot.sig {
        acc = splitmix64(acc ^ slot);
    }
    for c in &s.columns {
        acc = splitmix64(acc ^ hash_str(&c.name));
        for &slot in &c.cell_minhash.sig {
            acc = splitmix64(acc ^ slot);
        }
        if let Some(w) = &c.word_minhash {
            for &slot in &w.sig {
                acc = splitmix64(acc ^ slot);
            }
        }
        for v in c.numeric.to_vec() {
            acc = splitmix64(acc ^ v.to_bits());
        }
        for f in c.minhash_features() {
            acc = splitmix64(acc ^ f.to_bits() as u64);
        }
    }
    acc
}

/// Pinned fingerprint over the whole sketch bundle: any non-bit-identical
/// change to cell/word/content MinHashes, the numeric statistics, or the
/// f32 feature mapping fails here — exactly the guarantee the hash-once
/// sketcher rewrite must preserve for every sketch already persisted in a
/// catalog.
#[test]
fn table_sketch_fingerprint_pinned() {
    let s = TableSketch::build(&sample_table(), &SketchConfig::default());
    assert_eq!(
        sketch_fingerprint(&s),
        0x3836_41f5_60a1_5369,
        "sketch construction changed — stored sketches would no longer match"
    );
}

/// Row-order permutation must not change any set-based sketch: per-column
/// cell/word MinHashes and the table-level content snapshot (the paper's
/// content snapshot hashes the *set* of row strings).
#[test]
fn table_sketch_set_sketches_invariant_to_row_permutation() {
    let t = sample_table();
    let cfg = SketchConfig::default();
    let mut rng = StdRng::seed_from_u64(11);
    let shuffled = t.shuffled_rows(&mut rng, "det-perm");
    // Sanity: the permutation actually moved rows.
    assert_ne!(t.row_string(0), shuffled.row_string(0));

    let a = TableSketch::build(&t, &cfg);
    let b = TableSketch::build(&shuffled, &cfg);
    assert_eq!(a.content_snapshot, b.content_snapshot, "content snapshot is a row-set sketch");
    for (x, y) in a.columns.iter().zip(&b.columns) {
        assert_eq!(x.cell_minhash, y.cell_minhash, "cell MinHash of {}", x.name);
        assert_eq!(x.word_minhash, y.word_minhash, "word MinHash of {}", x.name);
    }

    let hasher = MinHasher::new(cfg.minhash_k, cfg.seed);
    assert_eq!(
        content_snapshot(&t, &hasher, cfg.max_rows),
        content_snapshot(&shuffled, &hasher, cfg.max_rows),
    );
}
