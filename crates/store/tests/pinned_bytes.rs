//! The bytes a fixed catalog writes, pinned. Every file the store
//! produces — the root manifest, the shard manifest and arena, a loose
//! run, and the index cache both as a fresh build writes it (engine-meta
//! tag 1) and as an updated engine writes it (tag 2) — is hashed and held
//! to a constant. A codec change that re-encodes anything differently
//! fails here, whatever its round-trip tests say; the constants are never
//! re-captured to make such a change pass.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use tsfm_sketch::{SketchConfig, TableSketch};
use tsfm_store::catalog::read_index_cache;
use tsfm_store::{Catalog, TableRecord};
use tsfm_table::csv;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsfm_pinned_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 64-bit FNV-1a: independent of every checksum the store computes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Record `i` at content `version`: string, integer and float columns
/// over shared domains, and for every third table a table embedding and
/// one embedding per column, so each section of `TSFMSEG1` is exercised.
fn record(i: u64, version: u64) -> TableRecord {
    let id = format!("t{i:02}");
    let mut text = String::from("city,code,area\n");
    for r in 0..6 + i % 5 {
        let k = r * 7 + i * 3 + version;
        text += &format!("town{},{},{}.{}\n", k % 23, k % 11, k % 17, r);
    }
    let table = csv::table_from_csv(&id, &id, &text);
    let mut rec =
        TableRecord::from_sketch(TableSketch::build(&table, &SketchConfig::default()), version);
    if i % 3 == 0 {
        let f = |j: u64| ((i * 13 + j * 7 + version) % 19) as f32 / 4.0 - 2.0;
        rec.table_embedding = Some((0..5).map(f).collect());
        rec.column_embeddings =
            (0..rec.num_cols() as u64).map(|c| (0..4).map(|j| f(c * 4 + j)).collect()).collect();
    }
    rec
}

/// Every file of the catalog at `dir`, relative path → FNV-1a of its bytes.
fn digests(dir: &Path) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for sub in ["", "shards", "segments"] {
        let Ok(rd) = std::fs::read_dir(dir.join(sub)) else { continue };
        for e in rd {
            let e = e.unwrap();
            if e.file_type().unwrap().is_file() {
                let name = e.file_name().to_string_lossy().into_owned();
                let key = if sub.is_empty() { name } else { format!("{sub}/{name}") };
                out.insert(key, fnv1a(&std::fs::read(e.path()).unwrap()));
            }
        }
    }
    out
}

fn pinned(pins: &[(&str, u64)]) -> BTreeMap<String, u64> {
    pins.iter().map(|&(name, h)| (name.to_string(), h)).collect()
}

#[test]
fn every_file_a_fixed_catalog_writes_keeps_its_bytes() {
    let dir = tmp_dir("catalog");
    let mut cat = Catalog::open(&dir).unwrap();
    for i in 0..40 {
        cat.add_record(&record(i, 1)).unwrap();
    }
    cat.commit().unwrap();
    cat.searcher().unwrap();
    let (_, _, _, meta) = read_index_cache(&dir.join("index.cache")).unwrap();
    assert!(meta.unwrap().iter().all(|s| s.table_id.is_some()), "a fresh build writes tag 1");
    let fresh = digests(&dir);
    assert_eq!(
        fresh,
        pinned(&[
            ("catalog.manifest", 0x8c72_aaf7_ebb2_41bf),
            ("index.cache", 0x6096_326f_9cc4_cabb),
            ("shards/s000-00000001.arena", 0xe468_2a30_e206_f6f6),
            ("shards/s000-00000001.shard", 0x0cf5_6e00_ba85_a49d),
        ]),
        "fresh build"
    );

    // Churn under a quarter of the shard population: two updates, one
    // addition and one removal commit loose as one run, and the next
    // snapshot updates the engine, leaving dead spans (tag 2).
    cat.add_record(&record(3, 2)).unwrap();
    cat.add_record(&record(17, 2)).unwrap();
    cat.add_record(&record(40, 1)).unwrap();
    assert!(cat.remove("t08").unwrap());
    cat.commit().unwrap();
    cat.searcher().unwrap();
    let (_, _, _, meta) = read_index_cache(&dir.join("index.cache")).unwrap();
    assert!(meta.unwrap().iter().any(|s| s.table_id.is_none()), "an update writes tag 2");
    let churned = digests(&dir);
    assert_eq!(
        churned,
        pinned(&[
            ("catalog.manifest", 0x2e50_cc8d_f84b_595e),
            ("index.cache", 0x7956_76c4_c9af_a28e),
            ("segments/run-00000001-00000001.arena", 0xf17f_c66a_25b7_1f79),
            ("shards/s000-00000001.arena", 0xe468_2a30_e206_f6f6),
            ("shards/s000-00000001.shard", 0x0cf5_6e00_ba85_a49d),
        ]),
        "after churn"
    );
    drop(cat);
    let _ = std::fs::remove_dir_all(&dir);
}
