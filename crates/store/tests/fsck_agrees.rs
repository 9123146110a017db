//! `tsfm fsck` and the catalog agree on what a valid store is. One byte of
//! one store file is flipped; fsck must find no problem exactly when every
//! read the catalog serves from succeeds on a fresh open — `Catalog::open`,
//! `get` of every id, `load_all_records`, and a lazy snapshot's
//! `sketch_of` of every active id — and a verify-only fsck must leave every
//! file byte-identical.
//!
//! The flipped file is the root manifest, the loose run, the shard
//! manifest or the shard arena. `index.cache` is left out on purpose: a
//! bad cache is a miss for the catalog (the next snapshot rebuilds it) but
//! a reported defect for fsck, so the two are meant to differ there.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use tsfm_store::fsck::fsck;
use tsfm_store::{Catalog, SnapshotMode, StoreResult};
use tsfm_table::{Column, Table, Value};

/// Tables of the folded baseline: enough that the loose churn below stays
/// under the compaction quarter.
const BASE: i64 = 24;

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("tsfm_agree_{tag}_{}_{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn table(id: &str, vals: &[i64]) -> Table {
    let mut t = Table::new(id, id);
    t.push_column(Column::new("v", vals.iter().map(|&v| Value::Int(v)).collect()));
    t
}

/// The pristine store, built once: a folded baseline of `BASE` tables,
/// then one loose commit that adds `new0`, updates `b01` (shadowing its
/// shard entry) and removes `b02` (a tombstone), and a snapshot that
/// writes the index cache. Returns its directory and every id it ever
/// held.
fn pristine() -> &'static (PathBuf, Vec<String>) {
    static STORE: OnceLock<(PathBuf, Vec<String>)> = OnceLock::new();
    STORE.get_or_init(|| {
        let dir = tmp_dir("pristine");
        let mut cat = Catalog::open(&dir).unwrap();
        for i in 0..BASE {
            cat.add_table(&table(&format!("b{i:02}"), &[i, i + 1, 2 * i]), i as u64 + 1).unwrap();
        }
        cat.commit().unwrap();
        cat.add_table(&table("new0", &[7, 8, 9]), 900).unwrap();
        cat.add_table(&table("b01", &[70, 71]), 901).unwrap();
        assert!(cat.remove("b02").unwrap());
        assert!(!cat.compaction_due(), "the churn commits loose");
        cat.commit().unwrap();
        cat.searcher().unwrap();
        assert_eq!(cat.shard_count(), 1);
        assert!(cat.entry("b01").is_some_and(|e| e.slot.is_some()), "b01 lives in the run");
        let mut ids: Vec<String> = (0..BASE).map(|i| format!("b{i:02}")).collect();
        ids.push("new0".to_string());
        drop(cat);
        (dir, ids)
    })
}

/// Every file under `dir`, by path relative to it.
fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in fs::read_dir(&d).unwrap() {
            let path = e.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.insert(path.strip_prefix(dir).unwrap().to_path_buf(), fs::read(&path).unwrap());
            }
        }
    }
    out
}

/// The flippable files of a store: manifest, run, shard manifest, arena.
fn targets(dir: &Path) -> Vec<PathBuf> {
    let pick = |sub: &str, ext: &str| {
        let mut found: Vec<PathBuf> = fs::read_dir(dir.join(sub))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == ext))
            .collect();
        assert_eq!(found.len(), 1, "one {ext} under {sub}/");
        found.pop().unwrap()
    };
    vec![
        dir.join("catalog.manifest"),
        pick("segments", "arena"),
        pick("shards", "shard"),
        pick("shards", "arena"),
    ]
}

/// Every read the catalog serves from, on a fresh open.
fn catalog_reads(dir: &Path, ids: &[String]) -> StoreResult<()> {
    let mut cat = Catalog::open(dir)?;
    let mut active = Vec::new();
    for id in ids {
        if cat.get(id)?.is_some() {
            active.push(id);
        }
    }
    cat.load_all_records()?;
    cat.set_snapshot_mode(SnapshotMode::Lazy);
    let searcher = cat.searcher()?;
    for id in active {
        searcher.sketch_of(id)?;
    }
    Ok(())
}

#[test]
fn pristine_store_passes_both() {
    let (src, ids) = pristine();
    let report = fsck(src, false).unwrap();
    assert!(report.problems.is_empty(), "{}", report.to_json());
    assert_eq!(report.tables, BASE as usize);
    catalog_reads(src, ids).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn fsck_is_clean_iff_the_catalog_reads(
        file in 0usize..4,
        pos_frac in 0.0f64..1.0,
        mask in 1u16..256,
    ) {
        let (src, ids) = pristine();
        let dir = tmp_dir("case");
        fs::create_dir_all(&dir).unwrap();
        for (rel, bytes) in files(src) {
            let path = dir.join(&rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, bytes).unwrap();
        }
        let target = &targets(&dir)[file];
        let mut bytes = fs::read(target).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= mask as u8;
        fs::write(target, &bytes).unwrap();

        let before = files(&dir);
        let report = fsck(&dir, false).unwrap();
        prop_assert!(files(&dir) == before, "a verify-only fsck changed the store");
        let reads = catalog_reads(&dir, ids);
        prop_assert_eq!(
            report.problems.is_empty(),
            reads.is_ok(),
            "{} byte {pos} ^ {mask:#x}: fsck {} / catalog {:?}",
            target.display(),
            report.to_json(),
            reads.err()
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
