//! The crash-point sweeper: walk *every* fault-injection site the durable
//! layer exposes during a realistic mutation workload (ingest new tables,
//! update one, remove one, commit, rebuild the index), and assert that no
//! matter which single create/write/fsync/rename dies — cleanly or as a
//! torn write — the catalog reopens consistent:
//!
//! * `Catalog::open` yields either the pre-workload committed state or
//!   the post-commit state (the manifest rename is the single commit
//!   point — there is no third state), with every referenced segment
//!   readable and the index rebuildable; and
//! * once a commit has been acknowledged (`commit()` returned `Ok`), a
//!   later crash never loses it; and
//! * `tsfm fsck --repair` then clears any debris the crash left behind
//!   (an orphaned run from an interrupted loose commit, torn `.tmp`
//!   staging files, unreferenced shard generations) and the store
//!   verifies green.
//!
//! The same workload runs in two shapes, because the commit decides where
//! the new records land: over a small shard layer its churn reaches the
//! compaction quarter and the commit *folds* the batch straight into new
//! arenas (no segment file at all); over a larger one it stays *loose*
//! and writes its records into one run under `segments/`. Both are swept.
//! A loose commit writes one file whatever its size, so its site count is
//! the same for a 2-record batch as for a 12-record one.
//!
//! The fault plan in `durable::fault` is process-global, so the whole
//! sweep lives in ONE `#[test]` body — Rust's parallel test runner must
//! never interleave two armed plans.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use tsfm_store::durable::fault::{self, FaultMode};
use tsfm_store::fsck::fsck;
use tsfm_store::{Catalog, StoreResult};
use tsfm_table::csv;
use tsfm_table::Table;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tsfm_crash_points_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn table(id: &str, rows: usize, salt: u64) -> Table {
    let text = (0..rows).fold("city,pop\n".to_string(), |mut acc, i| {
        acc.push_str(&format!("Wien{salt}_{i},{}\n", 1000 + salt * 100 + i as u64));
        acc
    });
    csv::table_from_csv(id, id, &text)
}

/// How the faulted commit lands, set by how many shard residents the
/// baseline holds besides `a` and `b`. The workload's churn is `adds`
/// new tables and the rewrite of `b` as loose entries, plus 2
/// tombstones: 2 + 2 against 2 residents reaches the quarter and the
/// commit folds; 12 + 2 against 62 stays under it and commits loose.
#[derive(Debug, Clone, Copy)]
struct Shape {
    name: &'static str,
    extra: usize,
    adds: usize,
    folds: bool,
}

const SHAPES: [Shape; 2] = [
    Shape { name: "folding", extra: 0, adds: 1, folds: true },
    Shape { name: "loose", extra: 60, adds: 11, folds: false },
];

/// The loose shape with a 2-record batch, counted but not swept: its
/// site inventory must equal the 12-record one's.
const SMALL_LOOSE: Shape = Shape { name: "loose_small", extra: 15, adds: 1, folds: false };

fn extra_ids(shape: Shape) -> Vec<String> {
    (0..shape.extra).map(|i| format!("p{i:02}")).collect()
}

/// The tables the workload adds: `c`, then `c01`, `c02`, ….
fn added_ids(shape: Shape) -> Vec<String> {
    (0..shape.adds).map(|i| if i == 0 { "c".to_string() } else { format!("c{i:02}") }).collect()
}

/// Committed, unfaulted baseline: tables `a`, `b` and the shape's extras
/// compacted into the shard tier, index cache built. This state is
/// acknowledged — every crash below must preserve it until a later
/// commit supersedes it.
fn build_baseline(dir: &Path, shape: Shape) {
    let mut cat = Catalog::open(dir).expect("baseline open");
    cat.add_table(&table("a", 4, 1), 10).expect("baseline add a");
    cat.add_table(&table("b", 5, 2), 20).expect("baseline add b");
    for (i, id) in extra_ids(shape).iter().enumerate() {
        cat.add_table(&table(id, 3, 40 + i as u64), 40 + i as u64).expect("baseline add extra");
    }
    cat.searcher().expect("baseline searcher");
    cat.compact().expect("baseline compact");
}

/// The faulted workload: add the shape's new tables, rewrite `b`, drop
/// `a`, commit, rebuild the index. Returns whether `commit()` was
/// acknowledged before any fault fired. Every error is swallowed — after
/// the injected fault trips the plan poisons all later durable ops,
/// simulating a hard crash.
fn mutate(dir: &Path, shape: Shape) -> bool {
    let mut acked = false;
    let _ = (|| -> StoreResult<()> {
        let mut cat = Catalog::open(dir)?;
        for (i, id) in added_ids(shape).iter().enumerate() {
            cat.add_table(&table(id, 6, 3 + i as u64), 30 + i as u64)?;
        }
        cat.add_table(&table("b", 5, 9), 21)?; // changed content: update
        cat.remove("a")?;
        cat.commit()?;
        acked = true;
        cat.searcher()?; // rebuild + persist the index cache
        Ok(())
    })();
    acked
}

/// The two legal table sets: before the workload's commit and after it.
fn legal_states(shape: Shape) -> (BTreeSet<String>, BTreeSet<String>) {
    let with_extras = |ids: Vec<String>| -> BTreeSet<String> {
        ids.into_iter().chain(extra_ids(shape)).collect()
    };
    let mut committed = added_ids(shape);
    committed.push("b".to_string());
    (with_extras(vec!["a".to_string(), "b".to_string()]), with_extras(committed))
}

/// Full consistency probe: open, list, load every record, rebuild a
/// searcher, and check the table set is one of the two legal manifest
/// states (`acked` pins it to the post-commit one). Any failure comes
/// back as a message for the sweep to report alongside its site number.
fn probe(dir: &Path, shape: Shape, acked: bool) -> Result<(), String> {
    let mut cat = Catalog::open(dir).map_err(|e| format!("reopen failed: {e}"))?;
    let ids: BTreeSet<String> = cat
        .table_ids()
        .map_err(|e| format!("table_ids failed: {e}"))?
        .into_iter()
        .collect();
    let (baseline, committed) = legal_states(shape);
    if ids != committed && (acked || ids != baseline) {
        return Err(format!("reopened table set {ids:?} is not a committed state (acked={acked})"));
    }
    for id in &ids {
        cat.record(id).map_err(|e| format!("record {id}: {e}"))?;
    }
    let searcher = cat.searcher().map_err(|e| format!("searcher: {e}"))?;
    if searcher.len() != ids.len() {
        return Err(format!("searcher sees {} tables, manifest {}", searcher.len(), ids.len()));
    }
    Ok(())
}

fn segment_files(dir: &Path) -> usize {
    std::fs::read_dir(dir.join("segments")).map_or(0, Iterator::count)
}

/// Dry run: count the injection sites the shape's workload passes
/// through, and check the commit took the shape's path.
fn count_sites(shape: Shape) -> u64 {
    let dir = tmp_dir(&format!("{}_count", shape.name));
    build_baseline(&dir, shape);
    fault::arm_counting(&dir);
    let acked = mutate(&dir, shape);
    let sites = fault::disarm();
    assert!(acked, "{}: unfaulted dry run must commit", shape.name);
    assert!(!fault::tripped(), "counting mode never trips");
    assert!(
        sites >= 10,
        "{}: expected a rich site inventory (arena or run writes, fsyncs, manifest \
         and index commits); counted only {sites}",
        shape.name
    );
    let segments = segment_files(&dir);
    if shape.folds {
        assert_eq!(segments, 0, "a folding commit must create nothing under segments/");
    } else {
        assert_eq!(segments, 1, "a loose commit adds exactly one file under segments/");
    }
    probe(&dir, shape, acked).expect("unfaulted workload must probe clean");
    let _ = std::fs::remove_dir_all(&dir);
    sites
}

#[test]
fn every_crash_point_reopens_consistent() {
    let mut swept = 0u64;
    let mut expected = 0u64;
    let mut repairs = 0u64;
    let mut inventory = Vec::new();
    let small = count_sites(SMALL_LOOSE);
    for shape in SHAPES {
        let sites = count_sites(shape);
        if !shape.folds {
            assert_eq!(sites, small, "a loose commit's sites do not grow with its batch");
        }
        inventory.push(format!("{} {sites}", shape.name));
        expected += 2 * sites;
        for mode in [FaultMode::Fail, FaultMode::Torn] {
            for site in 0..sites {
                let ctx = format!("{} site {site} ({mode:?})", shape.name);
                let dir = tmp_dir(&format!("{}_{mode:?}_{site}", shape.name));
                build_baseline(&dir, shape);
                fault::arm(&dir, site, mode);
                let acked = mutate(&dir, shape);
                let was_tripped = fault::tripped(); // read before disarm clears the plan
                let seen = fault::disarm();
                assert!(
                    was_tripped,
                    "{ctx} was never reached (saw {seen} of {sites} sites) — \
                     the workload must be deterministic"
                );

                // First, the store must reopen consistent — or be
                // repairable back to a consistent state that keeps
                // everything acked.
                if let Err(why) = probe(&dir, shape, acked) {
                    let report = fsck(&dir, true).unwrap_or_else(|e| {
                        panic!("{ctx}: probe failed ({why}) and fsck errored: {e}")
                    });
                    assert!(
                        report.consistent_after(),
                        "{ctx}: probe failed ({why}) and repair did not restore \
                         consistency: {}",
                        report.to_json()
                    );
                    repairs += 1;
                    probe(&dir, shape, acked)
                        .unwrap_or_else(|e| panic!("{ctx}: inconsistent even after repair: {e}"));
                }

                // Then fsck must be able to sweep any crash debris
                // (an orphaned run, torn .tmp files) and verify green.
                let report =
                    fsck(&dir, true).unwrap_or_else(|e| panic!("{ctx}: fsck errored: {e}"));
                assert!(
                    report.consistent_after(),
                    "{ctx}: unrepairable damage: {}",
                    report.to_json()
                );
                let clean =
                    fsck(&dir, false).unwrap_or_else(|e| panic!("{ctx}: re-verify errored: {e}"));
                assert!(clean.healthy(), "{ctx}: store not green after repair: {}", clean.to_json());
                // Repair never costs acknowledged data.
                probe(&dir, shape, acked)
                    .unwrap_or_else(|e| panic!("{ctx}: acked state lost after repair: {e}"));

                let _ = std::fs::remove_dir_all(&dir);
                swept += 1;
            }
        }
    }
    // The sweep itself must have exercised the full matrix.
    assert_eq!(swept, expected, "shape × site × mode matrix incomplete");
    println!(
        "crash-point sweep: {swept} injected crashes over sites ({}), {repairs} needed fsck --repair",
        inventory.join(", ")
    );
}
