//! Acceptance tests for the persistent catalog (ISSUE 2): a catalog built
//! by ingesting CSVs, reopened cold, must return *identical* top-k
//! join/union/subset results to the in-memory pipeline over the same
//! tables; re-ingest must be incremental; and the real `tsfm` binary must
//! work end to end in a fresh process.

use std::fs;
use std::path::PathBuf;
use std::process::Command;
use tabsketchfm::lake::{gen_join_search, JoinSearchConfig, World, WorldConfig};
use tabsketchfm::sketch::{SketchConfig, TableSketch};
use tabsketchfm::store::{Catalog, DiscoveryRequest, QueryEngine, QueryMode, TableRecord};
use tabsketchfm::table::csv;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsfm_pcat_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write a benchmark's tables as `<id>.csv` files; returns the directory.
fn write_lake_csvs(tag: &str) -> (PathBuf, Vec<String>) {
    let world = World::generate(WorldConfig::default());
    let bench = gen_join_search(
        &world,
        &JoinSearchConfig {
            groups: 3,
            tables_per_group: 4,
            low_overlap_per_group: 1,
            distractors: 6,
            seed: 21,
        },
    );
    let dir = tmp_dir(tag);
    let mut ids = Vec::new();
    for t in &bench.tables {
        fs::write(dir.join(format!("{}.csv", t.id)), csv::table_to_csv(t)).unwrap();
        ids.push(t.id.clone());
    }
    (dir, ids)
}

/// The acceptance criterion: catalog results == in-memory pipeline results.
#[test]
fn reopened_catalog_matches_in_memory_pipeline() {
    let (csv_dir, ids) = write_lake_csvs("parity");
    let cat_dir = tmp_dir("parity_cat");

    // Ingest and drop — queries must not depend on the ingesting process.
    {
        let mut cat = Catalog::open(&cat_dir).unwrap();
        let report = cat.ingest_dir(&csv_dir).unwrap();
        assert_eq!(report.added, ids.len());
    }

    // In-memory pipeline: parse the same CSVs, sketch, build the engine.
    let cfg = SketchConfig::default();
    let records: Vec<TableRecord> = ids
        .iter()
        .map(|id| {
            let text = fs::read_to_string(csv_dir.join(format!("{id}.csv"))).unwrap();
            let table = csv::table_from_csv(id, id, &text);
            TableRecord::from_sketch(TableSketch::build(&table, &cfg), 0)
        })
        .collect();
    let in_memory = QueryEngine::build(&records, cfg.minhash_k, Default::default());

    // Reopened catalog: cold open, indexes rebuilt lazily at the first
    // searcher() snapshot.
    let mut cat = Catalog::open(&cat_dir).unwrap();
    assert_eq!(cat.len(), ids.len());
    let searcher = cat.searcher().unwrap();
    let k = 5;
    for id in ids.iter().take(8) {
        let text = fs::read_to_string(csv_dir.join(format!("{id}.csv"))).unwrap();
        let table = csv::table_from_csv(id, id, &text);
        let sketch = TableSketch::build(&table, &cfg);
        for mode in QueryMode::ALL {
            let req = DiscoveryRequest::builder(mode).k(k).build().unwrap();
            let fresh = in_memory.search(&sketch, &req).unwrap().hits;
            let persisted = searcher.search_table(&table, &req).unwrap().hits;
            assert_eq!(
                fresh, persisted,
                "{} results diverged for query {id}",
                mode.name()
            );
        }
    }

    // Second open hits the on-disk index cache and must still agree.
    cat.commit().unwrap();
    drop(cat);
    let mut cached = Catalog::open(&cat_dir).unwrap();
    assert!(cached.stats().index_cached, "first query persisted the index cache");
    let q_text = fs::read_to_string(csv_dir.join(format!("{}.csv", ids[0]))).unwrap();
    let q_table = csv::table_from_csv(&ids[0], &ids[0], &q_text);
    let q_sketch = TableSketch::build(&q_table, &cfg);
    let cached_searcher = cached.searcher().unwrap();
    for mode in QueryMode::ALL {
        let req = DiscoveryRequest::builder(mode).k(k).build().unwrap();
        assert_eq!(
            in_memory.search(&q_sketch, &req).unwrap().hits,
            cached_searcher.search_table(&q_table, &req).unwrap().hits,
            "cached-index results diverged"
        );
    }
}

/// Incremental ingest: unchanged directory → 0 sketches; one new CSV → 1.
#[test]
fn reingest_is_incremental() {
    let (csv_dir, ids) = write_lake_csvs("incr");
    let cat_dir = tmp_dir("incr_cat");

    let mut cat = Catalog::open(&cat_dir).unwrap();
    let r1 = cat.ingest_dir(&csv_dir).unwrap();
    assert_eq!(r1.added, ids.len());
    assert!(r1.failed.is_empty());

    let r2 = cat.ingest_dir(&csv_dir).unwrap();
    assert_eq!(r2.sketched(), 0, "unchanged directory must be a no-op: {r2:?}");
    assert_eq!(r2.unchanged, ids.len());

    fs::write(csv_dir.join("extra.csv"), "k,v\na,1\nb,2\n").unwrap();
    let r3 = cat.ingest_dir(&csv_dir).unwrap();
    assert_eq!(r3.sketched(), 1, "exactly the new CSV is sketched: {r3:?}");
    assert_eq!((r3.added, r3.unchanged), (1, ids.len()));
    assert_eq!(cat.len(), ids.len() + 1);
}

/// Drive the real binary: ingest + query + stats in fresh processes.
#[test]
fn tsfm_cli_end_to_end() {
    let (csv_dir, ids) = write_lake_csvs("cli");
    let cat_dir = tmp_dir("cli_cat");
    let bin = env!("CARGO_BIN_EXE_tsfm");

    // Give the subset workload a true row-subset of the query table.
    let base = fs::read_to_string(csv_dir.join(format!("{}.csv", ids[0]))).unwrap();
    let half: Vec<&str> = base.lines().take(1 + (base.lines().count() - 1) / 2).collect();
    fs::write(csv_dir.join("zz_rowsubset.csv"), half.join("\n") + "\n").unwrap();
    let n_tables = ids.len() + 1;

    let run = |args: &[&str]| {
        let out = Command::new(bin).args(args).output().expect("spawn tsfm");
        assert!(
            out.status.success(),
            "tsfm {args:?} failed:\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let cat_s = cat_dir.to_str().unwrap();
    let csv_s = csv_dir.to_str().unwrap();
    let ingest1 = run(&["ingest", cat_s, csv_s]);
    assert!(ingest1.contains(&format!("{n_tables} added")), "{ingest1}");

    let ingest2 = run(&["ingest", cat_s, csv_s]);
    assert!(ingest2.contains("0 added"), "{ingest2}");
    assert!(ingest2.contains("(0 sketched)"), "re-ingest must be a no-op: {ingest2}");

    let query_csv = csv_dir.join(format!("{}.csv", ids[0]));
    for mode in ["join", "union", "subset"] {
        let out = run(&["query", cat_s, query_csv.to_str().unwrap(), "--mode", mode, "--k", "3"]);
        assert!(out.contains(&format!("mode={mode}")), "{out}");
        let hit_ids: Vec<&str> = out
            .lines()
            .skip(1) // header line names the query table itself
            .filter_map(|l| l.split_whitespace().nth(1))
            .collect();
        assert!(!hit_ids.is_empty(), "expected at least one ranked hit: {out}");
        assert!(!hit_ids.contains(&ids[0].as_str()), "query table excluded: {out}");
    }

    let stats = run(&["stats", cat_s]);
    assert!(stats.contains(&format!("tables        {n_tables}")), "{stats}");
    assert!(stats.contains("index cached  true"), "{stats}");

    // Usage errors exit non-zero.
    let out = Command::new(bin).arg("bogus").output().unwrap();
    assert!(!out.status.success());
}

/// A loose commit of 1 500 tables must fit a 256-descriptor limit: it
/// writes one run, one file whatever the batch. A catalog's first ingest
/// folds into shards, so 6 100 tables go in first; 1 500 more stay under
/// a quarter of them and commit loose.
#[test]
fn tsfm_ingest_under_a_low_descriptor_limit() {
    let lake = |tag: &str, prefix: &str, n: usize| -> PathBuf {
        let dir = tmp_dir(tag);
        for i in 0..n {
            let text = format!("k,v\nkey{i},{i}\nalt{i},{}\n", i * 7);
            fs::write(dir.join(format!("{prefix}{i:04}.csv")), text).unwrap();
        }
        dir
    };
    let base_dir = lake("fd_base", "b", 6100);
    let csv_dir = lake("fd_lake", "t", 1500);
    let cat_dir = tmp_dir("fd_cat");
    let bin = env!("CARGO_BIN_EXE_tsfm");
    let out = Command::new(bin)
        .args(["ingest", cat_dir.to_str().unwrap(), base_dir.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success() && stdout.contains("6100 added"), "{stdout}");
    let out = Command::new("sh")
        .args(["-c", "ulimit -n 256 && exec \"$0\" ingest \"$1\" \"$2\""])
        .args([bin, cat_dir.to_str().unwrap(), csv_dir.to_str().unwrap()])
        .output()
        .expect("spawn sh");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "ingest under ulimit -n 256 failed:\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("1500 added"), "{stdout}");
    let segments = fs::read_dir(cat_dir.join("segments")).unwrap().count();
    assert_eq!(segments, 1, "the second ingest committed loose, as one run");
    assert_eq!(Catalog::open(&cat_dir).unwrap().len(), 7600);
    let fsck = Command::new(bin).args(["fsck", cat_dir.to_str().unwrap()]).output().unwrap();
    let report = String::from_utf8_lossy(&fsck.stdout);
    assert!(fsck.status.success() && report.contains("\"healthy\":true"), "{report}");
    for dir in [&base_dir, &csv_dir, &cat_dir] {
        let _ = fs::remove_dir_all(dir);
    }
}
