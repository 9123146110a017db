//! Incremental index maintenance through the public catalog API. Once a
//! catalog has served a snapshot, the next `searcher()` after a mutation
//! derives its engine from the previous one — forked graphs, only the
//! changed and added tables inserted, removed and replaced ones left as
//! dead nodes — until dead nodes would reach a quarter of the graph,
//! when it builds from the live records instead.
//!
//! The catalog instruments are process-wide, so the tests here take
//! `SERIAL` and read counter deltas only while holding it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use tsfm_store::fsck::{fsck, IndexCacheState};
use tsfm_store::{
    Catalog, DiscoveryRequest, DiscoveryResponse, QueryEngine, QueryMode, Searcher, SnapshotMode,
};
use tsfm_table::csv;
use tsfm_table::hash::splitmix64;

static SERIAL: Mutex<()> = Mutex::new(());

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsfm_incremental_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn counter(name: &str) -> u64 {
    tsfm_obs::metrics::global().counter(name, "").get()
}

/// Table `id` at content `version`: two or three columns named after the
/// version (so a match explanation tells which version a hit came from)
/// over a 60-value domain every table shares, so tables overlap.
fn table_csv(id: &str, version: u64) -> String {
    let seed = splitmix64(tsfm_table::hash::hash_str(id) ^ version);
    let cols = 2 + (seed % 2) as usize;
    let header: Vec<String> = (0..cols).map(|c| format!("v{version}_c{c}")).collect();
    let mut text = header.join(",") + "\n";
    for r in 0..12u64 {
        let row: Vec<String> =
            (0..cols as u64).map(|c| format!("x{}", splitmix64(seed ^ (r * 8 + c)) % 60)).collect();
        text += &(row.join(",") + "\n");
    }
    text
}

fn add(cat: &mut Catalog, id: &str, version: u64) {
    let t = csv::table_from_csv(id, id, &table_csv(id, version));
    cat.add_table(&t, version).expect("add");
}

fn requests() -> Vec<DiscoveryRequest> {
    QueryMode::ALL
        .into_iter()
        .map(|m| {
            DiscoveryRequest::builder(m)
                .k(10)
                .exclude_self(false)
                .explain(m != QueryMode::Subset)
                .build()
                .expect("valid request")
        })
        .collect()
}

/// Hits as comparable words: id, matching columns, score bits.
fn words(r: &DiscoveryResponse) -> Vec<(String, usize, u64)> {
    r.hits.iter().map(|h| (h.table_id.clone(), h.matching_columns, h.score.to_bits())).collect()
}

/// Every response `s` gives for `queries` under every request.
fn answers(s: &Searcher, queries: &[String]) -> Vec<Vec<(String, usize, u64)>> {
    let reqs = requests();
    queries
        .iter()
        .flat_map(|q| reqs.iter().map(move |r| (q, r)))
        .map(|(q, r)| words(&s.search_id(q, r).expect("search")))
        .collect()
}

/// A cold reopen of `dir` in `mode`, which must load exactly the engine
/// `served` from the index cache — same spans, dead ones included, same
/// graphs — without rebuilding.
fn reopened(dir: &Path, mode: SnapshotMode, served: &QueryEngine) -> Searcher {
    let rebuilds = counter("tsfm_catalog_index_rebuilds_total");
    let mut cat = Catalog::open(dir).expect("reopen");
    cat.set_snapshot_mode(mode);
    let s = cat.searcher().expect("reopened searcher");
    assert_eq!(counter("tsfm_catalog_index_rebuilds_total"), rebuilds, "reopen rebuilt");
    let e = s.engine();
    assert!(e.spans().eq(served.spans()), "reopened spans differ");
    assert_eq!(e.join_index().snapshot(), served.join_index().snapshot());
    assert_eq!(e.union_index().snapshot(), served.union_index().snapshot());
    s
}

/// A random add / update / remove sequence over a sharded catalog. After
/// every `searcher()`: the live set is exactly the catalog's, no removed
/// table and no replaced version appears in any join, union or subset
/// hit, and a cold reopen — eager or lazy — answers bit-identically to
/// the in-process engine. Incremental cycles bump the update counter and
/// not the rebuild counter; the cycle that would cross a quarter dead
/// rebuilds, and its graphs equal a fresh build over the live records.
#[test]
fn random_churn_hides_dead_tables_and_reopens_bit_identically() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = tmp_dir("churn");
    let mut cat = Catalog::open(&dir).expect("open");
    let mut version: BTreeMap<String, u64> = BTreeMap::new();
    for i in 0..60 {
        let id = format!("t{i:03}");
        add(&mut cat, &id, 1);
        version.insert(id, 1);
    }
    cat.compact().expect("compact");
    assert!(cat.shard_count() > 0);
    cat.set_snapshot_mode(SnapshotMode::Lazy);
    cat.searcher().expect("first snapshot");

    let mut removed: BTreeSet<String> = BTreeSet::new();
    let mut rng = 0x1ce_u64;
    let mut draw = |n: usize| {
        rng = splitmix64(rng);
        (rng % n as u64) as usize
    };
    let (mut incremental, mut rebuilt) = (0, 0);
    for cycle in 0..10u64 {
        let live: Vec<String> = version.keys().cloned().collect();
        for _ in 0..2 {
            let id = &live[draw(live.len())];
            if version.remove(id).is_some() {
                assert!(cat.remove(id).expect("remove"));
                removed.insert(id.clone());
            }
        }
        for _ in 0..3 {
            let id = live[draw(live.len())].clone();
            if let Some(v) = version.get_mut(&id) {
                *v += 1;
                add(&mut cat, &id, *v);
            }
        }
        for j in 0..2 {
            let id = format!("n{cycle:02}_{j}");
            add(&mut cat, &id, 1);
            version.insert(id, 1);
        }
        cat.commit().expect("commit");

        let (updates, rebuilds) =
            (counter("tsfm_catalog_index_updates_total"), counter("tsfm_catalog_index_rebuilds_total"));
        let s = cat.searcher().expect("searcher");
        let engine = s.engine();
        let ids: Vec<String> = version.keys().cloned().collect();
        assert_eq!(engine.table_ids(), ids.as_slice(), "cycle {cycle}: live set");
        let dead = tsfm_obs::metrics::global().gauge("tsfm_catalog_index_dead_columns", "").get();
        assert_eq!(dead, engine.dead_columns() as i64, "cycle {cycle}: gauge");
        if engine.dead_columns() > 0 {
            incremental += 1;
            assert_eq!(counter("tsfm_catalog_index_updates_total"), updates + 1, "cycle {cycle}");
            assert_eq!(counter("tsfm_catalog_index_rebuilds_total"), rebuilds, "cycle {cycle}");
        } else {
            rebuilt += 1;
            assert!(engine.is_canonical());
            assert_eq!(counter("tsfm_catalog_index_rebuilds_total"), rebuilds + 1, "cycle {cycle}");
            let records = cat.load_all_records().expect("records");
            let fresh = QueryEngine::build(&records, engine.minhash_k(), Default::default());
            assert_eq!(engine.join_index().snapshot(), fresh.join_index().snapshot());
            assert_eq!(engine.union_index().snapshot(), fresh.union_index().snapshot());
        }

        // Nothing dead is served: no removed id, and every matched corpus
        // column of a hit belongs to its table's current version.
        for q in &ids {
            for r in &requests() {
                let resp = s.search_id(q, r).expect("search");
                for h in &resp.hits {
                    assert!(!removed.contains(&h.table_id), "cycle {cycle}: {} served", h.table_id);
                }
                for ex in resp.explanations.iter().flatten() {
                    let prefix = format!("v{}_", version[&ex.table_id]);
                    for m in &ex.matches {
                        assert!(m.corpus_column.starts_with(&prefix), "cycle {cycle}: {ex:?}");
                    }
                }
            }
        }

        // A cold reopen serves exactly the engine this process serves.
        let queries: Vec<String> = ids.iter().step_by(7).cloned().collect();
        let want = answers(&s, &queries);
        for mode in [SnapshotMode::Eager, SnapshotMode::Lazy] {
            let cold = reopened(&dir, mode, engine);
            assert_eq!(answers(&cold, &queries), want, "cycle {cycle}: {mode:?} reopen");
        }
    }
    assert!(incremental >= 3 && rebuilt >= 1, "{incremental} incremental, {rebuilt} rebuilt cycles");
    drop(cat);
    let report = fsck(&dir, false).expect("fsck");
    assert!(report.healthy(), "{}", report.to_json());
    assert_eq!(report.index_cache, IndexCacheState::Valid);
}

/// A cache keyed to other contents is skipped on its header alone: a
/// byte flipped in its body costs no verified read, so the rebuild that
/// follows counts no corruption — while `fsck`, which reads everything,
/// still reports the flip.
#[test]
fn stale_cache_is_skipped_without_a_verified_read() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = tmp_dir("stale");
    {
        let mut cat = Catalog::open(&dir).expect("open");
        for i in 0..8 {
            add(&mut cat, &format!("t{i}"), 1);
        }
        cat.searcher().expect("cache written");
        add(&mut cat, "t8", 1);
        cat.commit().expect("commit");
    }
    let path = dir.join("index.cache");
    let mut bytes = std::fs::read(&path).expect("read cache");
    let at = bytes.len() - 5;
    bytes[at] ^= 0x10;
    std::fs::write(&path, &bytes).expect("flip a body byte");
    let report = fsck(&dir, false).expect("fsck");
    assert!(matches!(report.index_cache, IndexCacheState::Corrupt(_)), "{}", report.to_json());

    let corruptions = counter("tsfm_store_corruptions_detected_total");
    let rebuilds = counter("tsfm_catalog_index_rebuilds_total");
    let mut cat = Catalog::open(&dir).expect("reopen");
    assert_eq!(cat.searcher().expect("searcher").len(), 9);
    assert_eq!(counter("tsfm_catalog_index_rebuilds_total"), rebuilds + 1);
    assert_eq!(counter("tsfm_store_corruptions_detected_total"), corruptions);
    assert!(cat.stats().index_cached, "the rebuild rewrote the cache");
}

/// The sketch bytes of `id` as `s` serves them and as the catalog stores
/// them: equal when the snapshot's corpus holds the table's current
/// version.
fn sketch_bytes(s: &Searcher, cat: &Catalog, id: &str) -> (Vec<u8>, Vec<u8>) {
    let (mut served, mut stored) = (Vec::new(), Vec::new());
    let sketch = s.sketch_of(id).expect("served");
    tsfm_store::ser::write_table_sketch(&mut served, &sketch).expect("encode");
    let rec = cat.get(id).expect("get").expect("stored");
    tsfm_store::ser::write_table_sketch(&mut stored, &rec.sketch).expect("encode");
    (served, stored)
}

/// The random churn sequence above, served by an *eager* in-process
/// snapshot, whose corpus each cycle carries forward from the previous
/// one: every live id's served sketch is bit-identical to the stored one,
/// removed ids are unknown, and a cold reopen, eager or lazy, answers as
/// the in-process engine does.
#[test]
fn eager_churn_carries_exactly_the_current_sketches() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = tmp_dir("eager_churn");
    let mut cat = Catalog::open(&dir).expect("open");
    let mut version: BTreeMap<String, u64> = BTreeMap::new();
    for i in 0..60 {
        let id = format!("t{i:03}");
        add(&mut cat, &id, 1);
        version.insert(id, 1);
    }
    cat.compact().expect("compact");
    cat.set_snapshot_mode(SnapshotMode::Eager);
    cat.searcher().expect("first snapshot");

    let mut removed: BTreeSet<String> = BTreeSet::new();
    let mut rng = 0x1ce_u64;
    let mut draw = |n: usize| {
        rng = splitmix64(rng);
        (rng % n as u64) as usize
    };
    let (mut incremental, mut rebuilt) = (0, 0);
    for cycle in 0..10u64 {
        let live: Vec<String> = version.keys().cloned().collect();
        for _ in 0..2 {
            let id = &live[draw(live.len())];
            if version.remove(id).is_some() {
                assert!(cat.remove(id).expect("remove"));
                removed.insert(id.clone());
            }
        }
        for _ in 0..3 {
            let id = live[draw(live.len())].clone();
            if let Some(v) = version.get_mut(&id) {
                *v += 1;
                add(&mut cat, &id, *v);
            }
        }
        for j in 0..2 {
            let id = format!("n{cycle:02}_{j}");
            add(&mut cat, &id, 1);
            version.insert(id, 1);
        }
        cat.commit().expect("commit");

        let s = cat.searcher().expect("searcher");
        assert!(!s.is_lazy());
        let ids: Vec<String> = version.keys().cloned().collect();
        assert_eq!(s.engine().table_ids(), ids.as_slice(), "cycle {cycle}: live set");
        if s.engine().dead_columns() > 0 {
            incremental += 1;
        } else {
            rebuilt += 1;
        }
        for id in &ids {
            let (served, stored) = sketch_bytes(&s, &cat, id);
            assert!(served == stored, "cycle {cycle}: {id} serves a sketch it does not store");
        }
        for id in &removed {
            assert!(s.sketch_of(id).is_err(), "cycle {cycle}: removed {id} still has a sketch");
        }

        let queries: Vec<String> = ids.iter().step_by(7).cloned().collect();
        let want = answers(&s, &queries);
        for mode in [SnapshotMode::Eager, SnapshotMode::Lazy] {
            let cold = reopened(&dir, mode, s.engine());
            assert_eq!(answers(&cold, &queries), want, "cycle {cycle}: {mode:?} reopen");
        }
    }
    assert!(incremental >= 3 && rebuilt >= 1, "{incremental} incremental, {rebuilt} rebuilt cycles");
}

/// An index cache that cannot be written costs the snapshot nothing but
/// is counted, so a store that will rebuild at every restart says so.
#[test]
fn a_failed_index_cache_write_is_counted_and_the_snapshot_still_answers() {
    use tsfm_store::durable::fault::{self, FaultMode};
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = tmp_dir("cache_write_fault");
    let mut cat = Catalog::open(&dir).expect("open");
    for i in 0..8 {
        add(&mut cat, &format!("t{i}"), 1);
    }
    cat.commit().expect("commit");
    let failures = counter("tsfm_catalog_index_cache_write_failures_total");
    // `index.cache` is staged through `index.tmp`; its `create` is the
    // first faultable site under that path.
    fault::arm(&dir.join("index.tmp"), 0, FaultMode::Fail);
    let s = cat.searcher();
    fault::disarm();
    let s = s.expect("the snapshot does not depend on the cache");
    let hits = s.search_id("t0", &requests()[0]).expect("search").hits;
    assert!(!hits.is_empty());
    assert_eq!(counter("tsfm_catalog_index_cache_write_failures_total"), failures + 1);
    assert!(!dir.join("index.cache").exists(), "nothing was written");
}
