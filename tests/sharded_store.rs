//! Acceptance tests for the sharded catalog (ISSUE 10): compaction folds
//! loose segments into `TSFMSHD1` shard manifests + `TSFMARN1` sketch
//! arenas, opens stay O(shards), lazy snapshots answer bit-identically to
//! eager ones, live snapshots survive a compaction underneath them, and
//! `tsfm fsck --repair` quarantines a bad shard as a unit while loose
//! tables keep serving.
//!
//! `tests/fixtures/v2_store/` is a *monolithic* v2 catalog (loose
//! segments only, no `shards/`) committed by the pre-shard code path —
//! the migration fixture. Like `v1_store`, it is immutable bytes: every
//! test copies it to a temp dir first.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tabsketchfm::lake::{gen_pretrain_corpus, World, WorldConfig};
use tabsketchfm::store::fsck::{fsck, IndexCacheState};
use tabsketchfm::store::{
    Catalog, DiscoveryRequest, DiscoveryResponse, QueryMode, SnapshotMode,
};
use tabsketchfm::table::hash::hash_str;
use tabsketchfm::table::{csv, Table};

const V2_FIXTURE: &str = "tests/fixtures/v2_store";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsfm_sharded_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic generated corpus (the paper's CKAN/Socrata stand-in).
fn corpus(n: usize) -> Vec<Table> {
    let world = World::generate(WorldConfig::default());
    gen_pretrain_corpus(&world, n, 17)
}

/// Ingest `tables` and compact them into the shard tier.
fn sharded_catalog(dir: &Path, tables: &[Table]) -> Catalog {
    let mut cat = Catalog::open(dir).unwrap();
    for (i, t) in tables.iter().enumerate() {
        cat.add_table(t, i as u64 + 1).unwrap();
    }
    cat.compact().unwrap();
    cat
}

/// Two responses must agree bit for bit: same ids in the same order with
/// the exact same score words (not merely approximately equal).
fn assert_same_hits(a: &DiscoveryResponse, b: &DiscoveryResponse, ctx: &str) {
    assert_eq!(a.hits.len(), b.hits.len(), "{ctx}: hit count");
    for (x, y) in a.hits.iter().zip(&b.hits) {
        assert_eq!(x.table_id, y.table_id, "{ctx}: ranking diverged");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{ctx}: score for {} not bit-identical ({} vs {})",
            x.table_id,
            x.score,
            y.score
        );
        assert_eq!(x.matching_columns, y.matching_columns, "{ctx}: columns for {}", x.table_id);
    }
}

#[test]
fn compaction_folds_loose_tier_into_shards_and_preserves_answers() {
    let dir = tmp_dir("roundtrip");
    let tables = corpus(60);
    let query = tables[7].clone();
    let req = DiscoveryRequest::builder(QueryMode::Join).k(10).build().unwrap();

    // Eager, loose-only baseline ranking before any shard exists.
    let mut cat = Catalog::open(&dir).unwrap();
    for (i, t) in tables.iter().enumerate() {
        cat.add_table(t, i as u64 + 1).unwrap();
    }
    cat.commit().unwrap();
    let before = cat.searcher().unwrap().search_table(&query, &req).unwrap();

    // Compaction moves every table into exactly one shard generation and
    // empties the loose tier.
    cat.compact().unwrap();
    assert_eq!(cat.shard_count(), 1, "60 tables fit one 4096-wide shard");
    assert_eq!(cat.len(), tables.len());
    let loose: Vec<_> = fs::read_dir(dir.join("segments")).unwrap().collect();
    assert!(loose.is_empty(), "compaction must absorb every loose segment");
    assert!(dir.join("shards").is_dir());

    // Same process, post-compaction: identical ranking.
    let after = cat.searcher().unwrap().search_table(&query, &req).unwrap();
    assert_same_hits(&before, &after, "pre vs post compaction");
    drop(cat);

    // Cold reopen reads only the root manifest; every record is still
    // reachable through the arena and the ranking is unchanged.
    let mut cat = Catalog::open(&dir).unwrap();
    assert_eq!(cat.len(), tables.len());
    for t in &tables {
        assert_eq!(cat.record(&t.id).unwrap().sketch.table_id, t.id);
    }
    // Auto stays eager at this size — 60 tables are cheap to hold — so
    // the lazy path is requested explicitly.
    assert!(!cat.searcher().unwrap().is_lazy(), "Auto holds a small corpus eagerly");
    cat.set_snapshot_mode(SnapshotMode::Lazy);
    let snap = cat.searcher().unwrap();
    assert!(snap.is_lazy());
    let reopened = snap.search_table(&query, &req).unwrap();
    assert_same_hits(&before, &reopened, "cold lazy reopen");

    // The two-tier mutation path: update one shard-resident table
    // (shadow), remove another (tombstone), add a fresh one (loose).
    let mut updated = tables[3].clone();
    updated.columns.pop();
    cat.add_table(&updated, 999_001).unwrap();
    assert!(cat.remove(&tables[5].id).unwrap());
    let extra = csv::table_from_csv("zz_extra", "zz_extra", "a,b\n1,2\n3,4\n");
    cat.add_table(&extra, 999_002).unwrap();
    cat.commit().unwrap();
    assert_eq!(cat.len(), tables.len(), "-1 removed, +1 added");
    assert!(cat.record(&tables[5].id).is_err(), "tombstone must shadow the shard copy");
    assert_eq!(cat.record(&tables[3].id).unwrap().content_hash, 999_001);
    drop(cat);

    // ... and all of it survives a reopen + full fsck.
    let mut cat = Catalog::open(&dir).unwrap();
    assert_eq!(cat.len(), tables.len());
    assert!(cat.record(&tables[5].id).is_err());
    assert_eq!(cat.record(&tables[3].id).unwrap().content_hash, 999_001);
    cat.searcher().unwrap();
    cat.commit().unwrap();
    drop(cat);
    let report = fsck(&dir, false).unwrap();
    assert!(report.healthy(), "{}", report.to_json());
    assert_eq!(report.tables, tables.len());
    assert_eq!(report.index_cache, IndexCacheState::Valid);
}

#[test]
fn lazy_and_eager_snapshots_answer_bit_identically() {
    let dir = tmp_dir("lazy_eq_eager");
    let tables = corpus(80);
    let mut cat = sharded_catalog(&dir, &tables);
    // Leave churn in both tiers so the comparison crosses loose + shard.
    let mut updated = tables[11].clone();
    let keep = updated.columns.len().div_ceil(2);
    updated.columns.truncate(keep);
    cat.add_table(&updated, 777).unwrap();
    assert!(cat.remove(&tables[12].id).unwrap());
    cat.commit().unwrap();

    let fresh = csv::table_from_csv("probe", "probe", "city,pop\nWien,1900\nGraz,290\n");
    let reqs: Vec<DiscoveryRequest> = [QueryMode::Join, QueryMode::Union, QueryMode::Subset]
        .into_iter()
        .map(|m| DiscoveryRequest::builder(m).k(15).build().unwrap())
        .collect();

    cat.set_snapshot_mode(SnapshotMode::Eager);
    let eager = cat.searcher().unwrap();
    assert!(!eager.is_lazy());
    cat.set_snapshot_mode(SnapshotMode::Lazy);
    let lazy = cat.searcher().unwrap();
    assert!(lazy.is_lazy());
    assert_eq!(eager.len(), lazy.len());

    for req in &reqs {
        // A query table that is not in the corpus...
        assert_same_hits(
            &eager.search_table(&fresh, req).unwrap(),
            &lazy.search_table(&fresh, req).unwrap(),
            "fresh query",
        );
        // ... and every corpus table by id, which on the lazy side pulls
        // the sketch through a positioned arena read.
        for t in &tables {
            if t.id == tables[12].id {
                continue; // removed above
            }
            assert_same_hits(
                &eager.search_id(&t.id, req).unwrap(),
                &lazy.search_id(&t.id, req).unwrap(),
                &format!("by-id query {}", t.id),
            );
        }
    }
}

#[test]
fn live_lazy_snapshot_survives_compaction_underneath() {
    let dir = tmp_dir("concurrent");
    let tables = corpus(40);
    let mut cat = sharded_catalog(&dir, &tables);
    cat.set_snapshot_mode(SnapshotMode::Lazy);
    let snap = cat.searcher().unwrap();
    assert!(snap.is_lazy());
    let req = DiscoveryRequest::builder(QueryMode::Join).k(8).build().unwrap();
    let baseline: Vec<DiscoveryResponse> =
        tables.iter().map(|t| snap.search_id(&t.id, &req).unwrap()).collect();

    // A reader thread hammers the captured snapshot while the writer
    // below rewrites the shard generation (and unlinks the arena the
    // snapshot is reading) several times.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let (snap, req, tables, stop) = (snap.clone(), req.clone(), tables.clone(), stop.clone());
        std::thread::spawn(move || -> Result<u64, String> {
            let mut queries = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for t in &tables {
                    snap.search_id(&t.id, &req).map_err(|e| format!("{}: {e}", t.id))?;
                    queries += 1;
                }
            }
            Ok(queries)
        })
    };

    for round in 0u64..4 {
        let mut churn = tables[round as usize].clone();
        let extra = churn.columns[0].clone();
        churn.columns.push(extra);
        cat.add_table(&churn, 10_000 + round).unwrap();
        cat.compact().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let queries = reader.join().unwrap().expect("reader thread must never see an error");
    assert!(queries >= tables.len() as u64, "reader made progress");

    // The captured generation still answers exactly as it did before any
    // compaction, arena unlinks and all.
    for (t, before) in tables.iter().zip(&baseline) {
        let now = snap.search_id(&t.id, &req).unwrap();
        assert_same_hits(before, &now, "snapshot stability");
    }

    // A fresh snapshot sees the post-churn contents and fsck is green.
    drop(snap);
    assert_eq!(cat.searcher().unwrap().len(), tables.len());
    drop(cat);
    let report = fsck(&dir, false).unwrap();
    assert!(report.healthy(), "{}", report.to_json());
}

#[test]
fn fsck_quarantines_a_bad_shard_and_loose_tables_survive() {
    let dir = tmp_dir("quarantine");
    let tables = corpus(30);
    let mut cat = sharded_catalog(&dir, &tables);
    // Three loose tables on top of the shard tier — churn small enough
    // that commit() does not auto-compact them in.
    let mut loose_ids = Vec::new();
    for i in 0..3 {
        let t = csv::table_from_csv(
            &format!("loose{i}"),
            &format!("loose{i}"),
            &format!("k,v\nx{i},{i}\ny{i},{}\n", i * 7),
        );
        loose_ids.push(t.id.clone());
        cat.add_table(&t, 500 + i as u64).unwrap();
    }
    cat.commit().unwrap();
    assert_eq!(cat.shard_count(), 1);
    drop(cat);

    // Flip one payload byte deep inside the arena.
    let arena = fs::read_dir(dir.join("shards"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "arena"))
        .expect("compacted store has an arena");
    let mut bytes = fs::read(&arena).unwrap();
    let at = bytes.len() - 9;
    bytes[at] ^= 0x40;
    fs::write(&arena, &bytes).unwrap();

    // Detection names the shard; repair quarantines BOTH shard files as a
    // unit and drops exactly the shard-resident tables.
    let report = fsck(&dir, false).unwrap();
    assert!(!report.healthy(), "{}", report.to_json());
    assert!(
        report.problems.iter().any(|p| p.kind.as_str() == "corrupt_shard"),
        "{}",
        report.to_json()
    );
    let report = fsck(&dir, true).unwrap();
    assert!(report.consistent_after(), "{}", report.to_json());
    let repair = report.repair.expect("repair must act");
    assert_eq!(repair.quarantined.len(), 2, "shard manifest + arena: {repair:?}");
    assert_eq!(repair.dropped_tables.len(), tables.len(), "every shard resident dropped");
    assert!(dir.join("quarantine").is_dir());

    // The degraded store verifies green and still serves the loose tier.
    let clean = fsck(&dir, false).unwrap();
    assert!(clean.healthy(), "{}", clean.to_json());
    assert_eq!(clean.tables, loose_ids.len());
    let mut cat = Catalog::open(&dir).unwrap();
    assert_eq!(cat.len(), loose_ids.len());
    let snap = cat.searcher().unwrap();
    let req = DiscoveryRequest::builder(QueryMode::Join).k(3).build().unwrap();
    for id in &loose_ids {
        snap.search_id(id, &req).unwrap();
    }
}

/// Recursive copy of the committed monolithic fixture into a scratch dir.
fn copy_v2_fixture(tag: &str) -> PathBuf {
    let dst = tmp_dir(tag);
    fs::copy(Path::new(V2_FIXTURE).join("catalog.manifest"), dst.join("catalog.manifest"))
        .unwrap();
    fs::copy(Path::new(V2_FIXTURE).join("index.cache"), dst.join("index.cache")).unwrap();
    let seg_dst = dst.join("segments");
    fs::create_dir_all(&seg_dst).unwrap();
    for e in fs::read_dir(Path::new(V2_FIXTURE).join("segments")).unwrap() {
        let e = e.unwrap();
        fs::copy(e.path(), seg_dst.join(e.file_name())).unwrap();
    }
    dst
}

#[test]
fn monolithic_v2_store_migrates_to_shards_via_tsfm_compact() {
    let bin = env!("CARGO_BIN_EXE_tsfm");
    let dir = copy_v2_fixture("migrate");
    let dir_s = dir.to_str().unwrap();
    assert!(!dir.join("shards").exists(), "fixture must be pre-shard monolithic");

    // Recorded ranking over the monolithic bytes.
    let text = fs::read_to_string("tests/fixtures/lake/cities.csv").unwrap();
    let query = csv::table_from_csv("cities", "cities", &text);
    let req = DiscoveryRequest::builder(QueryMode::Join).k(3).build().unwrap();
    let before = Catalog::open(&dir).unwrap().searcher().unwrap().search_table(&query, &req).unwrap();
    assert!(!before.hits.is_empty());

    // One CLI invocation migrates in place.
    let out = Command::new(bin).args(["compact", dir_s]).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("1 shard"), "{stdout}");
    assert!(dir.join("shards").is_dir());
    let loose: Vec<_> = fs::read_dir(dir.join("segments")).unwrap().collect();
    assert!(loose.is_empty(), "migration absorbs every loose segment");

    // Compaction is content-preserving: identical ranking AND the
    // fixture's committed index cache is still valid (same fingerprint).
    let mut cat = Catalog::open(&dir).unwrap();
    cat.set_snapshot_mode(SnapshotMode::Lazy);
    let snap = cat.searcher().unwrap();
    assert!(snap.is_lazy());
    assert_same_hits(&before, &snap.search_table(&query, &req).unwrap(), "post-migration");
    drop(cat);
    let report = fsck(&dir, false).unwrap();
    assert!(report.healthy(), "{}", report.to_json());
    assert_eq!(report.index_cache, IndexCacheState::Valid, "{}", report.to_json());

    // `tsfm compact` again is a no-op that stays green.
    let out = Command::new(bin).args(["compact", dir_s]).output().unwrap();
    assert!(out.status.success());
    let report = fsck(&dir, false).unwrap();
    assert!(report.healthy(), "{}", report.to_json());
}

/// The lazy-open gate at scale: 50 000 generated tables ingested over all
/// cores and folded into shards by the first commit, then a cold
/// `Catalog::open` plus one positioned `get` of the first table must
/// answer within 100 ms. That reads the root manifest, one shard's offset
/// table and one payload, whatever the table count. An eager open
/// (`load_all_records`, every sketch decoded) takes ~0.4 s at this size
/// on a 2-vCPU host and fails the bound. No index is built: the gate
/// reads none.
#[test]
#[ignore = "release-mode scale gate; CI runs it with --ignored"]
fn fifty_thousand_table_catalog_opens_lazily_within_100ms() {
    const TABLES: usize = 50_000;
    const BOUND: Duration = Duration::from_millis(100);
    let dir = tmp_dir("scale_gate");
    let tables = gen_pretrain_corpus(&World::generate(WorldConfig::default()), TABLES, 23);
    let probe = tables[0].id.clone();
    let hashes: Vec<u64> = tables.iter().map(|t| hash_str(&t.id)).collect();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut cat = Catalog::open(&dir).unwrap();
    cat.ingest_tables(&tables, &hashes, threads).unwrap();
    drop(tables);
    cat.commit().unwrap();
    assert!(cat.shard_count() > 1, "the first commit folds 50 000 tables into shards");
    drop(cat);

    let t0 = Instant::now();
    let cat = Catalog::open(&dir).unwrap();
    let rec = cat.get(&probe).unwrap();
    let open = t0.elapsed();
    assert!(rec.is_some(), "probe table {probe:?} must be found");
    eprintln!("lazy open + get at {TABLES} tables: {:.2} ms", open.as_secs_f64() * 1e3);
    assert!(open < BOUND, "lazy open + get took {open:?}, over the {BOUND:?} bound");
    drop(cat);
    let _ = fs::remove_dir_all(&dir);
}
