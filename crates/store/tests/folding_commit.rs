//! Where a commit puts a batch's bytes. `add_record` only serializes a
//! record and holds the frame; the commit decides. A *folding* commit
//! (compaction due, or `compact()`) copies the held frames straight into
//! new shard arenas, a *loose* one writes them into one run under
//! `segments/`. The
//! choice must be invisible everywhere but the segment directory: the
//! same shard files and manifest as a loose commit followed by a
//! compaction, the same reads before a commit as after it, and a failed
//! commit that keeps the batch so its retry writes the same bytes.
//!
//! A catalog's first commit always folds, so every loose commit here sits
//! on a folded baseline of more than four times the batch: against it the
//! batch stays under the compaction quarter.
//!
//! The fault plan and the catalog counters are process-wide, so every
//! test here takes `SERIAL`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use tsfm_sketch::{SketchConfig, TableSketch};
use tsfm_store::durable::fault::{self, FaultMode};
use tsfm_store::fsck::fsck;
use tsfm_store::{ser, Catalog, DiscoveryRequest, QueryMode, Searcher, TableRecord};
use tsfm_table::csv;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsfm_folding_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn segments_written() -> u64 {
    tsfm_obs::metrics::global().counter("tsfm_catalog_segments_written_total", "").get()
}

/// Record `id` at content `version`, over a shared value domain so the
/// tables overlap and searches have something to rank.
fn record(id: &str, version: u64) -> TableRecord {
    let mut text = String::from("city,code\n");
    for r in 0..8 {
        text += &format!("town{},c{}\n", (r * 7 + version) % 40, (r + version) % 11);
    }
    let table = csv::table_from_csv(id, id, &text);
    TableRecord::from_sketch(TableSketch::build(&table, &SketchConfig::default()), version)
}

fn batch() -> Vec<TableRecord> {
    (0..30).map(|i| record(&format!("t{i:02}"), i)).collect()
}

fn add_all(cat: &mut Catalog, recs: &[TableRecord]) {
    for r in recs {
        cat.add_record(r).expect("add_record");
    }
}

/// Open a fresh catalog at `dir` and fold `4 × batch + 1` filler tables
/// into its shard layer, so that a commit of `batch` new records stays
/// loose.
fn baseline(dir: &Path, batch: usize) -> Catalog {
    let mut cat = Catalog::open(dir).unwrap();
    for i in 0..4 * batch as u64 + 1 {
        cat.add_record(&record(&format!("b{i:03}"), 1000 + i)).unwrap();
    }
    cat.commit().unwrap();
    assert_eq!(cat.shard_count(), 1, "a first commit folds");
    cat
}

/// Every file under `dir/sub`, name → bytes (empty when `sub` is absent).
fn files(dir: &Path, sub: &str) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir.join(sub))
        .into_iter()
        .flatten()
        .map(|e| {
            let e = e.expect("dir entry");
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).expect("read"))
        })
        .collect()
}

/// The committed bytes a fold must reproduce: shard files + root manifest.
fn sharded_state(dir: &Path) -> (BTreeMap<String, Vec<u8>>, Vec<u8>) {
    (files(dir, "shards"), std::fs::read(dir.join("catalog.manifest")).expect("manifest"))
}

fn record_bytes(cat: &Catalog, id: &str) -> Vec<u8> {
    let mut out = Vec::new();
    ser::write_record(&mut out, &cat.record(id).expect("record")).expect("encode");
    out
}

/// Every mode's hits for every table as a query, as comparable words.
fn answers(s: &Searcher) -> Vec<Vec<(String, u64)>> {
    let mut out = Vec::new();
    for mode in QueryMode::ALL {
        let req = DiscoveryRequest::builder(mode).k(5).build().expect("request");
        for i in 0..30 {
            let hits = s.search_id(&format!("t{i:02}"), &req).expect("search").hits;
            out.push(hits.into_iter().map(|h| (h.table_id, h.score.to_bits())).collect());
        }
    }
    out
}

#[test]
fn folding_commit_writes_the_bytes_of_a_loose_commit_then_compact() {
    let _serial = serial();
    let recs = batch();

    // One batch three ways over the same baseline: folded straight from
    // memory, committed loose and then compacted, and half committed
    // loose before the fold.
    let fold_dir = tmp_dir("fold");
    let mut fold = baseline(&fold_dir, recs.len());
    add_all(&mut fold, &recs);
    let before = segments_written();
    fold.compact().unwrap();
    assert_eq!(segments_written(), before, "a fold writes no segment file");
    assert!(files(&fold_dir, "segments").is_empty());

    let loose_dir = tmp_dir("loose");
    let mut loose = baseline(&loose_dir, recs.len());
    add_all(&mut loose, &recs);
    assert!(!loose.compaction_due());
    loose.commit().unwrap();
    assert_eq!(files(&loose_dir, "segments").len(), 1, "one run per loose commit");
    loose.compact().unwrap();

    let mixed_dir = tmp_dir("mixed");
    let mut mixed = baseline(&mixed_dir, recs.len());
    add_all(&mut mixed, &recs[..15]);
    mixed.commit().unwrap();
    assert_eq!(files(&mixed_dir, "segments").len(), 1);
    add_all(&mut mixed, &recs[15..]);
    mixed.compact().unwrap();

    let want = sharded_state(&fold_dir);
    assert_eq!(sharded_state(&loose_dir), want, "loose commit + compact");
    assert_eq!(sharded_state(&mixed_dir), want, "half loose, half folded");

    // Churn on the sharded catalog: `commit()` itself folds once the
    // churn reaches a quarter of the shard residents.
    let first = |cat: &mut Catalog| {
        assert!(cat.remove("t00").unwrap());
        cat.add_record(&record("t01", 101)).unwrap();
    };
    let second = |cat: &mut Catalog| {
        cat.add_record(&record("t02", 102)).unwrap();
        cat.add_record(&record("t03", 103)).unwrap();
        for n in 0..40 {
            cat.add_record(&record(&format!("n{n:02}"), 200 + n)).unwrap();
        }
    };
    first(&mut fold);
    second(&mut fold);
    assert!(fold.compaction_due());
    let before = segments_written();
    fold.commit().unwrap();
    assert_eq!(segments_written(), before, "a due commit folds");
    assert!(files(&fold_dir, "segments").is_empty());

    first(&mut loose);
    assert!(!loose.compaction_due());
    loose.commit().unwrap();
    assert_eq!(files(&loose_dir, "segments").len(), 1, "the update went loose");
    second(&mut loose);
    loose.compact().unwrap();
    assert!(files(&loose_dir, "segments").is_empty(), "the fold absorbed it");
    assert_eq!(sharded_state(&loose_dir), sharded_state(&fold_dir), "after churn");
    drop((fold, loose, mixed));
    for dir in [&fold_dir, &loose_dir, &mixed_dir] {
        let report = fsck(dir, false).unwrap();
        assert!(report.healthy(), "{}", report.to_json());
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn uncommitted_reads_match_committed_reads() {
    let _serial = serial();
    let recs = batch();
    for fold in [false, true] {
        let dir = tmp_dir(if fold { "reads_fold" } else { "reads_loose" });
        let mut cat = baseline(&dir, recs.len());
        let resident_bytes = cat.stats().segment_bytes;
        add_all(&mut cat, &recs);
        let pre_records: Vec<Vec<u8>> =
            recs.iter().map(|r| record_bytes(&cat, r.table_id())).collect();
        let pre_hits = answers(&cat.searcher().unwrap());
        assert!(files(&dir, "segments").is_empty(), "nothing is written before the commit");
        let frame_bytes: usize = pre_records.iter().map(Vec::len).sum();
        assert_eq!(
            cat.stats().segment_bytes,
            resident_bytes + frame_bytes as u64,
            "stats count held frames"
        );
        if fold {
            cat.compact().unwrap();
        } else {
            cat.commit().unwrap();
        }
        drop(cat);

        // A cold reopen reads what the commit wrote — a run or arenas.
        let mut cat = Catalog::open(&dir).unwrap();
        let loose = usize::from(!fold);
        assert_eq!(files(&dir, "segments").len(), loose);
        for (r, pre) in recs.iter().zip(&pre_records) {
            assert_eq!(&record_bytes(&cat, r.table_id()), pre, "{}", r.table_id());
        }
        cat.set_snapshot_mode(tsfm_store::SnapshotMode::Lazy);
        assert_eq!(answers(&cat.searcher().unwrap()), pre_hits, "fold={fold}");
        drop(cat);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn failed_commit_keeps_the_batch_and_the_retry_writes_the_same_bytes() {
    let _serial = serial();
    let recs = batch();

    // Fold: the arena is the first file committed (create, write, then
    // fsync its staging file — site 2).
    let ref_dir = tmp_dir("retry_ref");
    let mut reference = Catalog::open(&ref_dir).unwrap();
    add_all(&mut reference, &recs);
    reference.compact().unwrap();

    let dir = tmp_dir("retry_fold");
    let mut cat = Catalog::open(&dir).unwrap();
    add_all(&mut cat, &recs);
    let empty_manifest = std::fs::read(dir.join("catalog.manifest")).unwrap();
    fault::arm(&dir, 2, FaultMode::Fail);
    let err = cat.compact().expect_err("the arena fsync fails the fold");
    fault::disarm();
    assert!(err.to_string().contains("fsync"), "{err}");
    assert_eq!(cat.len(), recs.len(), "the batch survives the failure");
    assert_eq!(cat.shard_count(), 0);
    assert_eq!(std::fs::read(dir.join("catalog.manifest")).unwrap(), empty_manifest);
    assert_eq!(record_bytes(&cat, "t07"), record_bytes(&reference, "t07"));
    cat.compact().unwrap();
    assert_eq!(sharded_state(&dir), sharded_state(&ref_dir), "retried fold");
    assert!(files(&dir, "segments").is_empty());
    drop((cat, reference));

    // Loose: the run's write tears halfway (site 1); the retry stages the
    // same run again and commits it.
    let ref_loose = tmp_dir("retry_ref_loose");
    let mut reference = baseline(&ref_loose, recs.len());
    add_all(&mut reference, &recs);
    reference.commit().unwrap();
    assert_eq!(files(&ref_loose, "segments").len(), 1);

    let loose_dir = tmp_dir("retry_loose");
    let mut cat = baseline(&loose_dir, recs.len());
    add_all(&mut cat, &recs);
    fault::arm(&loose_dir, 1, FaultMode::Torn);
    assert!(cat.commit().is_err(), "the torn run write fails the commit");
    fault::disarm();
    assert_eq!(files(&loose_dir, "segments").len(), 1, "only the torn staging file exists");
    cat.commit().unwrap();
    assert_eq!(files(&loose_dir, "segments"), files(&ref_loose, "segments"), "retried commit");
    assert_eq!(sharded_state(&loose_dir), sharded_state(&ref_loose));
    drop((cat, reference));
    let report = fsck(&loose_dir, false).unwrap();
    assert!(report.healthy(), "{}", report.to_json());
    for d in [&ref_dir, &dir, &ref_loose, &loose_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}
