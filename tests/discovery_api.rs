//! Acceptance tests for the typed discovery API (ISSUE 3): the
//! `Searcher` snapshot must serve ≥ 8 concurrent threads with results
//! identical to the serial path, the `tsfm serve` JSONL-over-TCP loop
//! must answer queries and typed errors on an ephemeral port, and the
//! CLI must share the serve loop's JSON serializer (`--json`) and reject
//! `--k 0` with a clear non-zero exit.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use tabsketchfm::lake::{gen_join_search, JoinSearchConfig, World, WorldConfig};
use tabsketchfm::store::{
    wire, Catalog, DiscoveryRequest, DiscoveryResponse, QueryMode, StoreError,
};
use tabsketchfm::table::csv;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsfm_dapi_{tag}_{}", std::process::id()));
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
            seed: 33,
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

/// The concurrency acceptance criterion: ≥ 8 threads hammering one shared
/// `Searcher` get results identical to the serial path, across all modes.
#[test]
fn eight_threads_match_serial_results() {
    let (csv_dir, ids) = write_lake_csvs("conc");
    let cat_dir = tmp_dir("conc_cat");
    let mut cat = Catalog::open(&cat_dir).unwrap();
    cat.ingest_dir(&csv_dir).unwrap();
    let searcher = cat.searcher().unwrap();

    // Serial ground truth: every table in the corpus queries it, 3 modes.
    let requests: Vec<DiscoveryRequest> = QueryMode::ALL
        .into_iter()
        .map(|m| DiscoveryRequest::builder(m).k(5).build().unwrap())
        .collect();
    let serial: Vec<DiscoveryResponse> = ids
        .iter()
        .flat_map(|id| requests.iter().map(move |r| (id, r)))
        .map(|(id, r)| searcher.search_id(id, r).unwrap())
        .collect();

    const THREADS: usize = 8;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                // A clone per worker, as a serve loop would hand out.
                let worker = searcher.clone();
                let (ids, requests, serial) = (&ids, &requests, &serial);
                scope.spawn(move || {
                    for (i, (id, r)) in ids
                        .iter()
                        .flat_map(|id| requests.iter().map(move |r| (id, r)))
                        .enumerate()
                    {
                        let got = worker.search_id(id, r).unwrap();
                        assert_eq!(got.hits, serial[i].hits, "thread diverged on {id}");
                        assert_eq!(got.corpus_size, serial[i].corpus_size);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    // And the parallel batch fan-out agrees with the same ground truth.
    let sketches: Vec<_> =
        ids.iter().map(|id| searcher.sketch_of(id).unwrap().as_ref().clone()).collect();
    for r in &requests {
        // Auto-sized and forced-8-thread fan-outs (the latter exercises
        // the scoped-thread path even on single-core hosts).
        let auto = searcher.search_batch(&sketches, r).unwrap();
        let forced = searcher.engine().search_batch_with_threads(&sketches, r, 8).unwrap();
        for ((id, a), f) in ids.iter().zip(&auto).zip(&forced) {
            let serial = searcher.search_id(id, r).unwrap().hits;
            assert_eq!(a.hits, serial, "auto batch diverged on {id}");
            assert_eq!(f.hits, serial, "8-thread batch diverged on {id}");
        }
    }
}

/// Kill the serve child even when an assertion panics mid-test.
struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_server(cat_dir: &std::path::Path) -> (ServerGuard, String) {
    let bin = env!("CARGO_BIN_EXE_tsfm");
    let mut child = Command::new(bin)
        .args(["serve", cat_dir.to_str().unwrap(), "--port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tsfm serve");
    // First stdout line announces the ephemeral address.
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().unwrap()).read_line(&mut line).unwrap();
    let addr = line
        .rsplit(" on ")
        .next()
        .map(str::trim)
        .unwrap_or_default()
        .to_string();
    assert!(line.contains("tsfm: serving"), "unexpected banner: {line:?}");
    (ServerGuard(child), addr)
}

/// The serve-loop acceptance criterion: a real `tsfm serve` process on an
/// ephemeral port answers inline-CSV queries, stored-id queries with
/// explanations, and typed client errors — all over one connection.
#[test]
fn serve_loop_answers_queries_and_typed_errors() {
    let cat_dir = tmp_dir("serve_cat");
    {
        let mut cat = Catalog::open(&cat_dir).unwrap();
        cat.ingest_dir("tests/fixtures/lake").unwrap();
        assert_eq!(cat.len(), 3);
    }
    let (_guard, addr) = spawn_server(&cat_dir);

    let stream = TcpStream::connect(&addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut roundtrip = |req: String| -> wire::Json {
        writeln!(writer, "{req}").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        wire::parse_json(line.trim()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
    };

    // 1. Inline CSV query: the fixture cities table must hit city_areas.
    let cities = fs::read_to_string("tests/fixtures/lake/cities.csv").unwrap();
    let reply = roundtrip(format!(
        "{{\"mode\":\"join\",\"k\":3,\"query_id\":\"q\",\"csv\":\"{}\"}}",
        wire::escape_json(&cities)
    ));
    let wire::Json::Arr(hits) = reply.get("hits").expect("hits array") else {
        panic!("{reply:?}")
    };
    assert!(!hits.is_empty(), "expected ranked hits: {reply:?}");
    let tables: Vec<&str> = hits.iter().filter_map(|h| h.get("table")?.as_str()).collect();
    assert!(tables.contains(&"city_areas"), "joinable table found: {tables:?}");
    assert_eq!(reply.get("query").unwrap().as_str(), Some("q"));

    // 2. Stored-id query with explanations.
    let reply = roundtrip(r#"{"mode":"union","k":2,"id":"cities","explain":true}"#.into());
    assert_eq!(reply.get("query").unwrap().as_str(), Some("cities"));
    let wire::Json::Arr(ex) = reply.get("explanations").expect("explanations present") else {
        panic!("{reply:?}")
    };
    assert!(!ex.is_empty());
    assert!(ex[0].get("matches").is_some());

    // 3. Typed client errors, each answered on the same connection.
    for (req, kind) in [
        (r#"{"mode":"fuzzy","csv":"a\n1\n"}"#, "invalid_request"),
        (r#"{"mode":"join","k":0,"csv":"a\n1\n"}"#, "invalid_request"),
        (r#"{"mode":"join","id":"no_such_table"}"#, "unknown_table"),
        ("definitely not json", "invalid_request"),
    ] {
        let reply = roundtrip(req.to_string());
        let err = reply.get("error").unwrap_or_else(|| panic!("{req} should fail: {reply:?}"));
        assert_eq!(err.get("kind").unwrap().as_str(), Some(kind), "{req}");
        assert_eq!(reply.get("client").unwrap().as_bool(), Some(true), "{req}");
    }

    // 4. The connection still works after the errors.
    let reply = roundtrip(r#"{"mode":"subset","id":"animals"}"#.into());
    assert!(reply.get("hits").is_some());

    // 5. Concurrent connections: each gets its own worker thread over the
    // shared snapshot and sees the same ranking.
    let expected = tables;
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let addr = addr.clone();
            let cities = cities.clone();
            let expected = expected.clone();
            scope.spawn(move || {
                let stream = TcpStream::connect(&addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                writeln!(
                    writer,
                    "{{\"mode\":\"join\",\"k\":3,\"query_id\":\"q\",\"csv\":\"{}\"}}",
                    wire::escape_json(&cities)
                )
                .unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let reply = wire::parse_json(line.trim()).unwrap();
                let wire::Json::Arr(hits) = reply.get("hits").unwrap() else { panic!() };
                let tables: Vec<&str> =
                    hits.iter().filter_map(|h| h.get("table")?.as_str()).collect();
                assert_eq!(tables, expected, "concurrent connection diverged");
            });
        }
    });
}

/// `tsfm query --json` emits one JSON object per hit through the same
/// serializer the serve loop uses, and `--k 0` / bad modes exit non-zero
/// with clear messages.
#[test]
fn cli_json_output_and_request_validation() {
    let cat_dir = tmp_dir("cli_cat");
    {
        let mut cat = Catalog::open(&cat_dir).unwrap();
        cat.ingest_dir("tests/fixtures/lake").unwrap();
    }
    let bin = env!("CARGO_BIN_EXE_tsfm");
    let cat_s = cat_dir.to_str().unwrap();
    let query = "tests/fixtures/lake/cities.csv";

    let out = Command::new(bin)
        .args(["query", cat_s, query, "--mode", "join", "--k", "3", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(!lines.is_empty(), "expected one JSON line per hit");
    for (i, line) in lines.iter().enumerate() {
        let v = wire::parse_json(line).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e}"));
        assert_eq!(v.get("rank").unwrap().as_f64(), Some((i + 1) as f64));
        assert!(v.get("table").unwrap().as_str().is_some());
        assert!(v.get("score").is_some());
    }

    // --k 0 must exit non-zero with the engine's own message.
    let out = Command::new(bin).args(["query", cat_s, query, "--k", "0"]).output().unwrap();
    assert!(!out.status.success(), "--k 0 must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("k must be >= 1"), "clear message, got: {stderr}");

    // Unknown mode: the FromStr error lists the valid modes.
    let out = Command::new(bin).args(["query", cat_s, query, "--mode", "zigzag"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for mode in ["join", "union", "subset"] {
        assert!(stderr.contains(mode), "valid modes listed: {stderr}");
    }

    // --explain prints per-column provenance in the human format.
    let out = Command::new(bin)
        .args(["query", cat_s, query, "--mode", "join", "--k", "3", "--explain"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("→"), "explanation arrows in output: {stdout}");

    // --json --explain upgrades to the full serve-shaped response object
    // so the explanations are not silently dropped.
    let out = Command::new(bin)
        .args(["query", cat_s, query, "--mode", "join", "--k", "3", "--json", "--explain"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = wire::parse_json(stdout.trim()).expect("one full response object");
    assert!(matches!(v.get("explanations"), Some(wire::Json::Arr(ex)) if !ex.is_empty()));
}

/// The error taxonomy is visible end to end through the facade re-exports.
#[test]
fn error_taxonomy_round_trips_the_facade() {
    let cat_dir = tmp_dir("tax_cat");
    let mut cat = Catalog::open(&cat_dir).unwrap();
    // Empty catalog → EmptyIndex from a snapshot query.
    let searcher = cat.searcher().unwrap();
    let req = DiscoveryRequest::builder(QueryMode::Join).build().unwrap();
    let t = csv::table_from_csv("q", "q", "a\n1\n");
    assert!(matches!(searcher.search_table(&t, &req), Err(StoreError::EmptyIndex)));

    // Truncated loose run → Corrupt{format: TSFMARN1}. A first commit
    // folds into a shard arena; over five shard residents a one-table
    // commit stays loose and writes a run.
    for i in 0..5u64 {
        let id = format!("f{i}");
        cat.add_table(&csv::table_from_csv(&id, &id, &format!("a\n{}\n", i + 2)), 100 + i).unwrap();
    }
    cat.commit().unwrap();
    cat.add_table(&t, 1).unwrap();
    cat.commit().unwrap();
    let seg_dir = cat_dir.join("segments");
    let seg = fs::read_dir(&seg_dir).unwrap().next().unwrap().unwrap().path();
    let mut bytes = fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes.truncate(mid);
    fs::write(&seg, bytes).unwrap();
    match cat.record("q") {
        Err(StoreError::Corrupt { format, .. }) => assert_eq!(format, "TSFMARN1"),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // Io surfaces missing files distinctly from corruption.
    fs::remove_file(&seg).unwrap();
    assert!(matches!(cat.record("q"), Err(StoreError::Io(_))));
}

/// The serve process must start even before any index cache exists and
/// keep the query table excluded from its own results by default; the
/// sibling `exclude_self:false` must include it.
#[test]
fn serve_exclude_self_toggle() {
    let cat_dir = tmp_dir("self_cat");
    {
        let mut cat = Catalog::open(&cat_dir).unwrap();
        cat.ingest_dir("tests/fixtures/lake").unwrap();
    }
    let (_guard, addr) = spawn_server(&cat_dir);
    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut ask = |req: &str| -> Vec<String> {
        writeln!(writer, "{req}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = wire::parse_json(line.trim()).unwrap();
        let wire::Json::Arr(hits) = v.get("hits").cloned().unwrap_or(wire::Json::Arr(vec![]))
        else {
            return vec![];
        };
        hits.iter().filter_map(|h| Some(h.get("table")?.as_str()?.to_string())).collect()
    };
    let excluded = ask(r#"{"mode":"join","k":5,"id":"cities"}"#);
    assert!(!excluded.contains(&"cities".to_string()), "{excluded:?}");
    let included = ask(r#"{"mode":"join","k":5,"id":"cities","exclude_self":false}"#);
    assert_eq!(included.first().map(String::as_str), Some("cities"), "{included:?}");
    // EOF: shutting down the write half ends the connection cleanly.
    // (A plain drop would not — the BufReader's try_clone keeps the fd
    // open, so the server would never see EOF.)
    writer.shutdown(std::net::Shutdown::Write).unwrap();
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty());
}
