//! The full sketch bundle for one table, ready to feed the model.
//!
//! This is the ingest hot path. [`ColumnSketch::build`] renders and hashes
//! every cell **exactly once** and feeds the same pre-hashed `u64` stream
//! to the cell MinHash and the numerical sketch's unique count (words are
//! hashed once each for the word MinHash), instead of re-rendering and
//! re-hashing the column per sketch family. Each signature folds every
//! *distinct* hash once: min is idempotent, so repeats change nothing.
//! All sketches are bit-identical to the naive multi-pass construction —
//! pinned by `tests/determinism.rs`.

use crate::for_each_word_hash;
use crate::minhash::{MinHash, MinHasher};
use crate::numeric::NumericalSketch;
use tsfm_table::hash::hash_str;
use tsfm_table::{ColType, Column, Table, Value};

/// Sketching hyper-parameters.
#[derive(Debug, Clone)]
pub struct SketchConfig {
    /// MinHash signature width (paper/datasketch default: 128; experiments
    /// here default to 32 to keep linear projections small).
    pub minhash_k: usize,
    /// Rows considered by all sketches (paper: first 10,000).
    pub max_rows: usize,
    /// Seed of the shared hash family. Must be identical for any two
    /// sketches that will be compared.
    pub seed: u64,
}

impl Default for SketchConfig {
    fn default() -> Self {
        Self { minhash_k: 32, max_rows: 10_000, seed: 0x7ab5_4e7c_9e37_0001 }
    }
}

/// Sketches of a single column.
#[derive(Debug, Clone)]
pub struct ColumnSketch {
    pub name: String,
    pub ty: ColType,
    /// MinHash over rendered cell values (all column types; the paper
    /// minhashes numeric cells too, since "it is often difficult to tell if
    /// a column is truly a float ... or really a categorical value").
    pub cell_minhash: MinHash,
    /// MinHash over the words of the cell values — string columns only.
    pub word_minhash: Option<MinHash>,
    pub numeric: NumericalSketch,
}

/// The rendered cells of one column window, concatenated: `offsets` has
/// one entry per cell plus a terminator, nulls span zero bytes. Built as a
/// by-product of [`ColumnSketch::build`] so the table-level content
/// snapshot can assemble row strings without rendering any cell a second
/// time.
#[derive(Default)]
struct CellArena {
    bytes: String,
    offsets: Vec<u32>,
}

impl CellArena {
    /// The rendered cell `r`, or `""` past the column's end (exactly what
    /// [`tsfm_table::Table::row_string`] appends there).
    fn cell(&self, r: usize) -> &str {
        if r + 1 < self.offsets.len() {
            &self.bytes[self.offsets[r] as usize..self.offsets[r + 1] as usize]
        } else {
            ""
        }
    }
}

impl ColumnSketch {
    /// One pass over the column window: each cell is rendered into a
    /// reused buffer and hashed once, and string columns also hash each
    /// word of the cell. The cell hashes are sorted and deduplicated —
    /// the numerical sketch's unique count needs that anyway — and so are
    /// the word hashes; each distinct element is then folded once into
    /// its MinHash. Min is idempotent, so the signatures equal folding
    /// every occurrence.
    pub fn build(col: &Column, hasher: &MinHasher, max_rows: usize) -> Self {
        Self::build_inner(col, hasher, max_rows, None)
    }

    fn build_inner(
        col: &Column,
        hasher: &MinHasher,
        max_rows: usize,
        mut arena: Option<&mut CellArena>,
    ) -> Self {
        let n = col.len().min(max_rows);
        let slice = &col.values[..n];
        let is_str = col.ty == ColType::Str;
        if let Some(a) = arena.as_deref_mut() {
            a.offsets.reserve(n + 1);
            a.offsets.push(0);
        }

        let mut cell_hashes: Vec<u64> = Vec::with_capacity(n);
        let mut word_hashes: Vec<u64> = Vec::new();
        let mut nums: Vec<f64> = Vec::new();
        let mut width_sum = 0usize;
        let mut nan = 0usize;
        let mut non_null = 0usize;
        let mut render_buf = String::new();
        let mut word_buf = String::new();
        for v in slice {
            if v.is_null() {
                nan += 1;
                if let Some(a) = arena.as_deref_mut() {
                    a.offsets.push(a.bytes.len() as u32);
                }
                continue;
            }
            non_null += 1;
            // Strings render to themselves; everything else goes through
            // the reused buffer (no per-cell allocation either way).
            let r: &str = match v {
                Value::Str(s) => s,
                other => {
                    render_buf.clear();
                    other.render_into(&mut render_buf);
                    &render_buf
                }
            };
            width_sum += r.len();
            cell_hashes.push(hash_str(r));
            if is_str {
                for_each_word_hash(r, &mut word_buf, |w| word_hashes.push(w));
            }
            if let Some(f) = v.as_f64() {
                if f.is_finite() {
                    nums.push(f);
                }
            }
            if let Some(a) = arena.as_deref_mut() {
                a.bytes.push_str(r);
                a.offsets.push(a.bytes.len() as u32);
            }
        }
        cell_hashes.sort_unstable();
        cell_hashes.dedup();
        let cell_minhash = hasher.signature_hashed(cell_hashes.iter().copied());
        let word_minhash = is_str.then(|| {
            word_hashes.sort_unstable();
            word_hashes.dedup();
            hasher.signature_hashed(word_hashes)
        });
        let numeric = NumericalSketch::from_parts(n, nan, non_null, width_sum, cell_hashes, nums);
        ColumnSketch { name: col.name.clone(), ty: col.ty, cell_minhash, word_minhash, numeric }
    }

    /// The model input vector for the MinHash embedding stream: a fixed
    /// `2k`-wide layout `[cell_mh ‖ word_mh]`, zero-padding the word half
    /// for numeric/date columns (the paper's `E_C` vs `E_{C‖W}` made
    /// concrete so that one linear layer serves every token).
    pub fn minhash_features(&self) -> Vec<f32> {
        let mut v = Vec::with_capacity(2 * self.cell_minhash.k());
        self.extend_minhash_features(&mut v);
        v
    }

    /// Append [`ColumnSketch::minhash_features`] to `out` without
    /// allocating (the index-build and query hot paths reuse one buffer
    /// across every column).
    pub fn extend_minhash_features(&self, out: &mut Vec<f32>) {
        self.cell_minhash.extend_f32_features(out);
        match &self.word_minhash {
            Some(w) => w.extend_f32_features(out),
            None => out.extend(std::iter::repeat(0.0).take(self.cell_minhash.k())),
        }
    }
}

/// The complete sketch bundle for one table.
#[derive(Debug, Clone)]
pub struct TableSketch {
    pub table_id: String,
    pub table_name: String,
    pub description: String,
    pub content_snapshot: MinHash,
    pub columns: Vec<ColumnSketch>,
    pub num_rows: usize,
}

impl TableSketch {
    pub fn build(table: &Table, cfg: &SketchConfig) -> Self {
        let hasher = MinHasher::new(cfg.minhash_k, cfg.seed);
        Self::build_with_hasher(table, &hasher, cfg.max_rows)
    }

    /// Build with a caller-owned hasher (amortizes family construction when
    /// sketching a whole lake). The column pass captures each column's
    /// rendered cells in an arena, and the content snapshot assembles its
    /// row strings from those arenas — so every cell of the table is
    /// rendered exactly once. Identical output to running
    /// [`ColumnSketch::build`] per column plus [`crate::content_snapshot`] (see
    /// `tests/determinism.rs`).
    pub fn build_with_hasher(table: &Table, hasher: &MinHasher, max_rows: usize) -> Self {
        let _g = tsfm_obs::span!("sketch.table");
        sketch_counters().record(table.columns.len() as u64);
        let n_rows = table.num_rows().min(max_rows);
        let mut arenas: Vec<CellArena> = Vec::with_capacity(table.columns.len());
        let columns = table
            .columns
            .iter()
            .map(|c| {
                let mut arena = CellArena::default();
                let cs = ColumnSketch::build_inner(c, hasher, max_rows, Some(&mut arena));
                arenas.push(arena);
                cs
            })
            .collect();
        TableSketch {
            table_id: table.id.clone(),
            table_name: table.name.clone(),
            description: table.description.clone(),
            content_snapshot: content_from_arenas(&arenas, hasher, n_rows),
            columns,
            num_rows: n_rows,
        }
    }

    pub fn num_cols(&self) -> usize {
        self.columns.len()
    }

    /// Content-snapshot features in the same `2k` layout as
    /// [`ColumnSketch::minhash_features`] (word half zero-padded), used for
    /// table-metadata tokens.
    pub fn content_features(&self) -> Vec<f32> {
        let mut v = self.content_snapshot.to_f32_features();
        v.extend(std::iter::repeat(0.0).take(self.content_snapshot.k()));
        v
    }
}

/// Process-wide ingest counters, resolved from the global registry once
/// (a bulk ingest sketches thousands of tables; the name lookup must not
/// run per table).
struct SketchCounters {
    tables: std::sync::Arc<tsfm_obs::metrics::Counter>,
    columns: std::sync::Arc<tsfm_obs::metrics::Counter>,
}

impl SketchCounters {
    fn record(&self, cols: u64) {
        self.tables.inc();
        self.columns.add(cols);
    }
}

fn sketch_counters() -> &'static SketchCounters {
    static C: std::sync::OnceLock<SketchCounters> = std::sync::OnceLock::new();
    C.get_or_init(|| {
        let reg = tsfm_obs::metrics::global();
        SketchCounters {
            tables: reg.counter("tsfm_sketch_tables_total", "Tables sketched"),
            columns: reg.counter("tsfm_sketch_columns_total", "Columns sketched"),
        }
    })
}

/// The content snapshot assembled from pre-rendered column arenas:
/// byte-identical row strings to [`tsfm_table::Table::row_string`]
/// (`|`-separated cells, empty past a column's end), folded through the
/// same hash — so the signature equals [`crate::content_snapshot`]'s without
/// re-rendering a single cell.
fn content_from_arenas(arenas: &[CellArena], hasher: &MinHasher, n_rows: usize) -> MinHash {
    let mut sig = hasher.empty_sig();
    let mut buf = String::new();
    for r in 0..n_rows {
        buf.clear();
        for (i, arena) in arenas.iter().enumerate() {
            if i > 0 {
                buf.push('|');
            }
            buf.push_str(arena.cell(r));
        }
        hasher.fold(&mut sig, hash_str(&buf));
    }
    MinHash { sig }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsfm_table::Value;

    fn properties_table() -> Table {
        let mut t = Table::new("res", "Residential Properties")
            .with_description("residential properties in austria");
        t.push_column(Column::new(
            "Reference Area",
            vec![
                Value::Str("Austria Vienna".into()),
                Value::Str("Austria Graz".into()),
                Value::Str("Austria Linz".into()),
            ],
        ));
        t.push_column(Column::new("Age", vec![Value::Int(10), Value::Int(55), Value::Int(31)]));
        t.push_column(Column::new(
            "Assessed",
            vec![Value::Date(0), Value::Date(86400), Value::Date(2 * 86400)],
        ));
        t
    }

    #[test]
    fn builds_all_sketch_kinds() {
        let s = TableSketch::build(&properties_table(), &SketchConfig::default());
        assert_eq!(s.num_cols(), 3);
        assert!(s.columns[0].word_minhash.is_some(), "string col has word minhash");
        assert!(s.columns[1].word_minhash.is_none(), "int col has none");
        assert!(s.columns[2].word_minhash.is_none(), "date col has none");
        assert!(!s.content_snapshot.is_empty_set());
    }

    #[test]
    fn word_minhash_captures_shared_words() {
        // Two columns share the word "austria" but no full values.
        let cfg = SketchConfig { minhash_k: 256, ..Default::default() };
        let hasher = MinHasher::new(cfg.minhash_k, cfg.seed);
        let a = Column::new(
            "a",
            vec![Value::Str("Austria Vienna".into()), Value::Str("Austria Graz".into())],
        );
        let b = Column::new(
            "b",
            vec![Value::Str("Austria Linz".into()), Value::Str("Austria Salzburg".into())],
        );
        let sa = ColumnSketch::build(&a, &hasher, 10_000);
        let sb = ColumnSketch::build(&b, &hasher, 10_000);
        assert_eq!(sa.cell_minhash.jaccard(&sb.cell_minhash), 0.0, "no full-value overlap");
        let wj = sa
            .word_minhash
            .as_ref()
            .unwrap()
            .jaccard(sb.word_minhash.as_ref().unwrap());
        // word sets {austria,vienna,graz} vs {austria,linz,salzburg}: J = 1/5.
        assert!(wj > 0.05, "shared words must register, got {wj}");
    }

    #[test]
    fn minhash_feature_layout_is_2k() {
        let cfg = SketchConfig { minhash_k: 16, ..Default::default() };
        let s = TableSketch::build(&properties_table(), &cfg);
        for cs in &s.columns {
            assert_eq!(cs.minhash_features().len(), 32);
        }
        assert_eq!(s.content_features().len(), 32);
        // Numeric columns zero-pad the word half.
        let feats = s.columns[1].minhash_features();
        assert!(feats[16..].iter().all(|&f| f == 0.0));
    }

    #[test]
    fn deterministic_across_builds() {
        let t = properties_table();
        let cfg = SketchConfig::default();
        let a = TableSketch::build(&t, &cfg);
        let b = TableSketch::build(&t, &cfg);
        assert_eq!(a.content_snapshot, b.content_snapshot);
        for (x, y) in a.columns.iter().zip(&b.columns) {
            assert_eq!(x.cell_minhash, y.cell_minhash);
            assert_eq!(x.numeric.to_vec(), y.numeric.to_vec());
        }
    }

    #[test]
    fn shared_hasher_matches_config_build() {
        let t = properties_table();
        let cfg = SketchConfig::default();
        let hasher = MinHasher::new(cfg.minhash_k, cfg.seed);
        let a = TableSketch::build(&t, &cfg);
        let b = TableSketch::build_with_hasher(&t, &hasher, cfg.max_rows);
        assert_eq!(a.content_snapshot, b.content_snapshot);
    }
}
