//! End-to-end acceptance for the observability surface (ISSUE 7): a live
//! `tsfm serve` process must answer the `metrics` verb with parseable
//! Prometheus text and the `slowlog` verb with per-stage breakdowns; a
//! `profile: true` query must return stage timings that sum to within 10%
//! of `micros`; and `tsfm query --trace` must write a Chrome
//! `trace_event` JSON file that the store's own parser validates.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use tabsketchfm::store::{wire, Catalog};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsfm_obs_e2e_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture_catalog(tag: &str) -> PathBuf {
    let cat_dir = tmp_dir(tag);
    let mut cat = Catalog::open(&cat_dir).unwrap();
    cat.ingest_dir("tests/fixtures/lake").unwrap();
    assert_eq!(cat.len(), 3);
    cat_dir
}

struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_serve(cat_dir: &Path) -> (ServerGuard, String) {
    let bin = env!("CARGO_BIN_EXE_tsfm");
    let mut child = Command::new(bin)
        .args(["serve", cat_dir.to_str().unwrap(), "--port", "0", "--reload-ms", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tsfm serve");
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().unwrap()).read_line(&mut line).unwrap();
    assert!(line.contains("tsfm: serving"), "unexpected banner: {line:?}");
    let addr = line.rsplit(" on ").next().map(str::trim).unwrap_or_default().to_string();
    (ServerGuard(child), addr)
}

fn roundtrip(w: &mut TcpStream, r: &mut BufReader<TcpStream>, req: &str) -> wire::Json {
    writeln!(w, "{req}").unwrap();
    w.flush().unwrap();
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    wire::parse_json(line.trim()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
}

/// Stage entries of a `profile`/`stages` array as (name, µs) pairs.
fn stage_pairs(v: &wire::Json) -> Vec<(String, u64)> {
    let wire::Json::Arr(items) = v else { panic!("stages not an array: {v:?}") };
    items
        .iter()
        .map(|pair| {
            let wire::Json::Arr(kv) = pair else { panic!("stage not a pair: {pair:?}") };
            let name = kv[0].as_str().expect("stage name").to_string();
            let us = kv[1].as_f64().expect("stage micros") as u64;
            (name, us)
        })
        .collect()
}

#[test]
fn live_server_answers_metrics_slowlog_and_profile() {
    let cat_dir = fixture_catalog("serve");
    let (_guard, addr) = spawn_serve(&cat_dir);
    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // A profiled query: stage timings must exist and sum to within 10%
    // of the end-to-end micros (the engine closes the gap with an
    // "other" stage, so in practice they match exactly).
    let query = "{\"mode\":\"join\",\"k\":3,\"id\":\"cities\",\"profile\":true}";
    let resp = roundtrip(&mut writer, &mut reader, query);
    let micros = resp.get("micros").and_then(wire::Json::as_f64).expect("micros") as u64;
    let stages = stage_pairs(resp.get("profile").expect("profile requested but missing"));
    assert!(!stages.is_empty());
    assert_eq!(stages.last().unwrap().0, "other", "remainder stage closes the budget");
    let sum: u64 = stages.iter().map(|(_, us)| *us).sum();
    let tolerance = (micros / 10).max(1);
    assert!(
        sum.abs_diff(micros) <= tolerance,
        "stage sum {sum}µs vs micros {micros}µs drifts past 10%: {stages:?}"
    );

    // An unprofiled query must not carry the field.
    let resp = roundtrip(&mut writer, &mut reader, "{\"mode\":\"join\",\"k\":3,\"id\":\"cities\"}");
    assert!(resp.get("profile").is_none(), "profile must be opt-in");

    // The metrics verb: parseable Prometheus text with the request
    // counter present (2 queries + the metrics request itself).
    let resp = roundtrip(&mut writer, &mut reader, "{\"op\":\"metrics\"}");
    let text = resp.get("metrics").and_then(|m| m.as_str()).expect("metrics text");
    assert!(text.contains("# TYPE tsfm_serve_requests_total counter"));
    assert!(text.contains("tsfm_serve_requests_total{outcome=\"ok\"} 3"));
    assert!(text.contains("tsfm_serve_tables 3"));
    for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let value = line.rsplit(' ').next().unwrap();
        assert!(value.parse::<f64>().is_ok(), "unparseable exposition line {line:?}");
    }

    // The slowlog verb: every entry carries a stage breakdown (serve
    // forces profiling internally), sorted slowest-first.
    let resp = roundtrip(&mut writer, &mut reader, "{\"op\":\"slowlog\"}");
    let wire::Json::Arr(entries) = resp.get("slowlog").expect("slowlog array") else {
        panic!("slowlog not an array");
    };
    assert_eq!(entries.len(), 2, "both queries logged");
    let mut last = u64::MAX;
    for e in entries {
        let us = e.get("micros").and_then(wire::Json::as_f64).expect("entry micros") as u64;
        assert!(us <= last, "slowlog must be sorted slowest-first");
        last = us;
        assert!(!stage_pairs(e.get("stages").expect("entry stages")).is_empty());
    }
}

#[test]
fn query_trace_writes_valid_chrome_trace_json() {
    let cat_dir = fixture_catalog("trace");
    let trace_path = cat_dir.join("trace.json");
    let bin = env!("CARGO_BIN_EXE_tsfm");
    let out = Command::new(bin)
        .args([
            "query",
            cat_dir.to_str().unwrap(),
            "tests/fixtures/lake/cities.csv",
            "--k",
            "2",
            "--trace",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("run tsfm query --trace");
    assert!(out.status.success(), "tsfm query failed: {}", String::from_utf8_lossy(&out.stderr));

    // The store's own JSON parser must accept the trace, and the Chrome
    // trace_event shape must be intact: complete events with name/ts/dur.
    let text = fs::read_to_string(&trace_path).unwrap();
    let trace = wire::parse_json(&text).expect("trace file is valid JSON");
    let wire::Json::Arr(events) = trace.get("traceEvents").expect("traceEvents") else {
        panic!("traceEvents not an array");
    };
    assert!(!events.is_empty(), "a query must record spans");
    let mut names = std::collections::BTreeSet::new();
    for e in events {
        assert_eq!(e.get("ph").and_then(|p| p.as_str()), Some("X"), "complete events only");
        assert_eq!(e.get("cat").and_then(|c| c.as_str()), Some("tsfm"));
        assert!(e.get("ts").and_then(wire::Json::as_f64).is_some());
        assert!(e.get("dur").and_then(wire::Json::as_f64).is_some());
        names.insert(e.get("name").and_then(|n| n.as_str()).expect("name").to_string());
    }
    // The catalog open, snapshot build, and search paths all traced.
    for expected in ["catalog.open", "catalog.snapshot", "engine.search.join", "hnsw.search"] {
        assert!(names.contains(expected), "missing span {expected:?} in {names:?}");
    }
}

/// The README's instrument table (the rows under `| Instrument | Type |`)
/// as `(family, type)` pairs: a labeled row names its family.
fn documented_instruments() -> std::collections::BTreeSet<(String, String)> {
    let readme = fs::read_to_string("README.md").unwrap();
    let rows = readme.lines().skip_while(|l| !l.starts_with("| Instrument | Type |")).skip(2);
    rows.take_while(|l| l.starts_with('|'))
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let family = cells[1].trim_matches('`').split('{').next().unwrap().to_string();
            (family, cells[2].to_string())
        })
        .collect()
}

/// Every `tsfm_*` instrument is in the README table, and every row of it
/// is exported: a live server that has ingested, answered a stored-id and
/// an inline-CSV query, and started its reload watcher renders exactly the
/// documented families, each under one `# TYPE` line.
#[test]
fn readme_metrics_table_matches_the_live_exposition() {
    let documented = documented_instruments();
    assert!(documented.len() > 30, "README instrument table not found: {documented:?}");

    let cat_dir = fixture_catalog("readme_table");
    let mut child = Command::new(env!("CARGO_BIN_EXE_tsfm"))
        .args(["serve", cat_dir.to_str().unwrap(), "--port", "0", "--reload-ms", "60000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tsfm serve");
    let mut banner = String::new();
    BufReader::new(child.stdout.as_mut().unwrap()).read_line(&mut banner).unwrap();
    let _guard = ServerGuard(child);
    let addr = banner.rsplit(" on ").next().map(str::trim).unwrap_or_default().to_string();
    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for query in [
        r#"{"mode":"join","k":2,"id":"cities"}"#,
        r#"{"mode":"union","k":2,"csv":"city,pop\nVienna,1900000\nGraz,290000\n"}"#,
    ] {
        let resp = roundtrip(&mut writer, &mut reader, query);
        assert!(resp.get("hits").is_some(), "{resp:?}");
    }
    let resp = roundtrip(&mut writer, &mut reader, "{\"op\":\"metrics\"}");
    let text = resp.get("metrics").and_then(|m| m.as_str()).expect("metrics text");
    let typed: Vec<(String, String)> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|l| {
            let (family, kind) = l.split_once(' ').expect("# TYPE family kind");
            (family.to_string(), kind.to_string())
        })
        .collect();
    let exported: std::collections::BTreeSet<_> = typed.iter().cloned().collect();
    assert_eq!(exported.len(), typed.len(), "a family rendered twice:\n{text}");
    let missing: Vec<_> = documented.difference(&exported).collect();
    let undocumented: Vec<_> = exported.difference(&documented).collect();
    assert!(
        missing.is_empty() && undocumented.is_empty(),
        "documented but not exported: {missing:?}; exported but not documented: {undocumented:?}"
    );
}
