//! `tsfm` — the data-lake discovery CLI and server over the persistent
//! catalog.
//!
//! ```text
//! tsfm ingest <catalog-dir> <csv-dir> [--trace FILE]      sketch + store every *.csv
//! tsfm query  <catalog-dir> <query.csv> [--mode M] [--k N]
//!             [--min-score S] [--json] [--explain]
//!             [--trace FILE]                              rank the corpus for a query table
//! tsfm serve  <catalog-dir> [--port N] [--host H]         JSONL-over-TCP discovery server
//! tsfm stats  <catalog-dir>                               catalog summary
//! tsfm stats  --addr HOST:PORT                            live-server stats + metrics
//! tsfm fsck   <catalog-dir> [--repair]                    verify checksums, repair damage
//! tsfm compact <catalog-dir>                              fold the loose tier into shards
//! ```
//!
//! Modes: `join` (default), `union`, `subset`. Re-running `ingest` on an
//! unchanged directory is a no-op (content hashes match); the first query
//! after any change rebuilds the ANN indexes and caches them on disk.
//!
//! `serve` runs the bounded-concurrency frontend from
//! `tsfm_store::serve`: a fixed worker pool with accept-queue shedding,
//! per-connection idle/read/write timeouts, a request-line length cap,
//! pipelining, graceful shutdown, and a `{"op":"stats"}` ops verb. A
//! watcher thread polls the catalog manifest and hot-swaps in a fresh
//! [`Searcher`](tabsketchfm::store::Searcher) snapshot when another
//! process ingests new tables — in-flight queries keep the snapshot they
//! started with. The wire protocol (one JSON request per line, one JSON
//! response line back) is documented in `tsfm_store::wire`.
//!
//! `fsck` verifies every checksum in the store (manifest, loose runs and
//! legacy segments, shards, index cache), detects orphaned/missing files
//! and leftover staging files, and prints one structured JSON report.
//! With `--repair` bad records' manifest entries are dropped, damaged
//! files no surviving entry references are quarantined under
//! `<catalog>/quarantine/`, and the index cache rebuilt — a damaged store
//! degrades to a smaller-but-correct one. Exit codes: 0 the store is (or
//! was repaired to be) consistent, 1 unrepaired damage remains, 2 usage
//! or environmental error.
//!
//! `--trace FILE` on `ingest`/`query` enables `tsfm_obs` tracing for the
//! duration of the command and writes the recorded spans as Chrome
//! `trace_event` JSON — open the file in `chrome://tracing` or Perfetto
//! to see the per-stage timeline. `tsfm stats --addr HOST:PORT` talks to
//! a running `tsfm serve` instead of a local catalog directory, issuing
//! the `stats` and `metrics` ops verbs and pretty-printing both.

#![forbid(unsafe_code)]

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;
use tabsketchfm::store::{
    wire, Catalog, DiscoveryRequest, DiscoveryResponse, QueryMode, ServeConfig, Server,
    ServerHandle, StoreError,
};
use tabsketchfm::table::csv;

const USAGE: &str = "usage:
  tsfm ingest <catalog-dir> <csv-dir> [--threads N] [--trace FILE]
  tsfm query  <catalog-dir> <query.csv> [--mode join|union|subset] [--k N]
              [--min-score S] [--json] [--explain] [--trace FILE]
  tsfm serve  <catalog-dir> [--port N] [--host H] [--max-conns N]
              [--idle-timeout-ms N] [--read-timeout-ms N]
              [--write-timeout-ms N] [--max-line-bytes N] [--reload-ms N]
  tsfm stats  <catalog-dir>
  tsfm stats  --addr HOST:PORT
  tsfm fsck   <catalog-dir> [--repair]
  tsfm compact <catalog-dir>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        // fsck owns its exit codes: 0 consistent (possibly after repair),
        // 1 unrepaired damage, 2 usage/environment.
        Some("fsck") => return cmd_fsck(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tsfm: {e}");
            ExitCode::from(2)
        }
    }
}

/// Drain every recorded span and write Chrome `trace_event` JSON to
/// `path`. The export is round-tripped through the store's own JSON
/// parser first, so a malformed trace fails loudly here rather than
/// silently refusing to load in Perfetto.
fn write_trace(path: &str) -> Result<(), String> {
    tsfm_obs::trace::disable();
    let records = tsfm_obs::trace::drain();
    let json = tsfm_obs::trace::chrome_trace_json(&records);
    wire::parse_json(&json)
        .map_err(|e| format!("internal: trace export is not valid JSON: {e}"))?;
    std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("tsfm: wrote {} spans to {path}", records.len());
    Ok(())
}

fn cmd_ingest(args: &[String]) -> Result<(), String> {
    // Default the sketching pool to the host's available parallelism;
    // `--threads 1` forces the serial path.
    let mut threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut trace_out = None::<String>;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                threads = v
                    .parse()
                    .ok()
                    .filter(|&t: &usize| t >= 1)
                    .ok_or(format!("invalid threads {v:?} (need an integer >= 1)"))?;
            }
            "--trace" => {
                trace_out = Some(it.next().ok_or("--trace needs a value")?.clone());
            }
            _ => positional.push(a.clone()),
        }
    }
    let [catalog_dir, csv_dir] = &positional[..] else {
        return Err(USAGE.to_string());
    };
    if !Path::new(csv_dir).is_dir() {
        return Err(format!("{csv_dir}: not a directory"));
    }
    if trace_out.is_some() {
        tsfm_obs::trace::enable();
    }
    let mut cat = Catalog::open(catalog_dir).map_err(|e| format!("open {catalog_dir}: {e}"))?;
    let report = cat
        .ingest_dir_with_threads(csv_dir, threads)
        .map_err(|e| format!("ingest {csv_dir}: {e}"))?;
    println!(
        "ingested {csv_dir}: {} added, {} updated, {} unchanged ({} sketched)",
        report.added,
        report.updated,
        report.unchanged,
        report.sketched()
    );
    for (file, err) in &report.failed {
        eprintln!("tsfm: skipped {file}: {err}");
    }
    println!("catalog {catalog_dir}: {} tables", cat.len());
    if let Some(path) = &trace_out {
        write_trace(path)?;
    }
    if report.failed.is_empty() {
        Ok(())
    } else {
        Err(format!("{} file(s) failed to ingest", report.failed.len()))
    }
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let (mut mode, mut k) = (QueryMode::Join, 10usize);
    let (mut json, mut explain, mut min_score) = (false, false, None::<f64>);
    let mut trace_out = None::<String>;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => {
                trace_out = Some(it.next().ok_or("--trace needs a value")?.clone());
            }
            "--mode" => {
                let v = it.next().ok_or("--mode needs a value")?;
                // FromStr is the one shared mode parser; its error already
                // lists the valid modes.
                mode = v.parse().map_err(|e| format!("{e}"))?;
            }
            "--k" => {
                let v = it.next().ok_or("--k needs a value")?;
                k = v.parse().map_err(|_| format!("invalid k {v:?}"))?;
            }
            "--min-score" => {
                let v = it.next().ok_or("--min-score needs a value")?;
                min_score = Some(v.parse().map_err(|_| format!("invalid min-score {v:?}"))?);
            }
            "--json" => json = true,
            "--explain" => explain = true,
            _ => positional.push(a.clone()),
        }
    }
    let [catalog_dir, query_csv] = &positional[..] else {
        return Err(USAGE.to_string());
    };
    if trace_out.is_some() {
        tsfm_obs::trace::enable();
    }

    // Build the request first: an invalid one (e.g. --k 0) must fail fast
    // with the engine's own message, before any catalog I/O.
    let mut builder = DiscoveryRequest::builder(mode).k(k).explain(explain);
    if let Some(ms) = min_score {
        builder = builder.min_score(ms);
    }
    let req = builder.build().map_err(|e| e.to_string())?;

    let text = std::fs::read_to_string(query_csv).map_err(|e| format!("{query_csv}: {e}"))?;
    let id = Path::new(query_csv)
        .file_stem().map_or_else(|| "query".into(), |s| s.to_string_lossy().into_owned());
    let table = csv::table_from_csv(&id, &id, &text);

    let mut cat = Catalog::open(catalog_dir).map_err(|e| format!("open {catalog_dir}: {e}"))?;
    if cat.is_empty() {
        return Err(format!("catalog {catalog_dir} is empty — run `tsfm ingest` first"));
    }
    let searcher = cat.searcher().map_err(|e| format!("open index: {e}"))?;
    let resp = searcher.search_table(&table, &req).map_err(|e| format!("query: {e}"))?;
    // The snapshot build may have written the index cache; persist the
    // manifest fingerprinting it.
    cat.commit().map_err(|e| format!("commit: {e}"))?;
    if let Some(path) = &trace_out {
        write_trace(path)?;
    }

    if json {
        if explain {
            // Explanations live at the response level; emit the full
            // response object (exactly what the serve loop would send).
            println!("{}", wire::response_json(&resp));
        } else {
            // One JSON object per hit — the same serializer the serve
            // loop uses for its `hits` array.
            for (i, h) in resp.hits.iter().enumerate() {
                println!("{}", wire::hit_json(i + 1, h));
            }
        }
        return Ok(());
    }
    print_response_human(&resp, table.num_cols());
    Ok(())
}

fn print_response_human(resp: &DiscoveryResponse, query_cols: usize) {
    println!(
        "{} results for {} ({} columns) over {} tables [mode={}] in {}µs",
        resp.hits.len(),
        resp.query_id,
        query_cols,
        resp.corpus_size,
        resp.mode,
        resp.elapsed_micros
    );
    for (rank, h) in resp.hits.iter().enumerate() {
        match resp.mode {
            QueryMode::Subset => {
                println!("{:>3}. {:<32} est. row jaccard {:.3}", rank + 1, h.table_id, h.score)
            }
            _ => println!(
                "{:>3}. {:<32} {} matching cols, distance sum {:.4}",
                rank + 1,
                h.table_id,
                h.matching_columns,
                h.score
            ),
        }
        if let Some(ex) = resp.explanations.as_ref().and_then(|ex| ex.get(rank)) {
            for m in &ex.matches {
                println!(
                    "       {} → {} (distance {:.4})",
                    m.query_column, m.corpus_column, m.distance
                );
            }
        }
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (mut port, mut host) = (7474u16, "127.0.0.1".to_string());
    let mut cfg = ServeConfig::default();
    let mut reload_ms = 2000u64;
    let mut positional = Vec::new();
    // Millisecond / count flags share one parse shape.
    fn num(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<u64, String> {
        let v = it.next().ok_or(format!("{name} needs a value"))?;
        v.parse().map_err(|_| format!("invalid {name} {v:?}"))
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--port" => {
                let v = it.next().ok_or("--port needs a value")?;
                port = v.parse().map_err(|_| format!("invalid port {v:?}"))?;
            }
            "--host" => {
                host = it.next().ok_or("--host needs a value")?.clone();
            }
            "--max-conns" => {
                cfg.max_connections = num(&mut it, "--max-conns")? as usize;
                cfg.pending_capacity = cfg.max_connections;
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout = Duration::from_millis(num(&mut it, "--idle-timeout-ms")?)
            }
            "--read-timeout-ms" => {
                cfg.read_timeout = Duration::from_millis(num(&mut it, "--read-timeout-ms")?)
            }
            "--write-timeout-ms" => {
                cfg.write_timeout = Duration::from_millis(num(&mut it, "--write-timeout-ms")?)
            }
            "--max-line-bytes" => cfg.max_line_bytes = num(&mut it, "--max-line-bytes")? as usize,
            "--reload-ms" => reload_ms = num(&mut it, "--reload-ms")?,
            _ => positional.push(a.clone()),
        }
    }
    let [catalog_dir] = &positional[..] else {
        return Err(USAGE.to_string());
    };

    let mut cat = Catalog::open(catalog_dir).map_err(|e| format!("open {catalog_dir}: {e}"))?;
    // Pay the index build once, up front, before accepting traffic.
    let searcher = cat.searcher().map_err(|e| format!("open index: {e}"))?;
    cat.commit().map_err(|e| format!("commit: {e}"))?;
    let manifest = cat.manifest_path();
    drop(cat);

    let tables = searcher.len();
    let server = Server::bind((host.as_str(), port), searcher, cfg)
        .map_err(|e| format!("bind {host}:{port}: {e}"))?;
    let addr = server.local_addr();

    // Hot reload: poll the manifest for mutations committed by another
    // process (`tsfm ingest` against the same directory) and swap a fresh
    // snapshot in without dropping in-flight queries. `--reload-ms 0`
    // disables the watcher. Its failure counter registers before the
    // banner, so the metrics verb exports it (at 0) from the first request.
    if reload_ms > 0 {
        let failures = tsfm_obs::metrics::global().counter(
            "tsfm_serve_reload_failures_total",
            "Catalog hot-reload attempts that failed and were retried with backoff",
        );
        let handle = server.handle();
        let dir = catalog_dir.clone();
        std::thread::spawn(move || watch_manifest(&handle, &dir, &manifest, reload_ms, &failures));
    }
    // Tests and scripts parse this line for the actual port (`--port 0`
    // binds an ephemeral one).
    println!("tsfm: serving {tables} tables on {addr}");
    std::io::stdout().flush().ok();

    server.run().map_err(|e| format!("serve: {e}"))
}

/// Detached watcher: on every manifest mtime/len change, rebuild a
/// snapshot and hot-swap it into the running server. The server keeps
/// answering from the snapshot it has while a rebuild is in flight.
///
/// Rebuild failures are usually transient — a reload can race another
/// process mid-commit and read a half-replaced file set — so instead of
/// waiting a full `--reload-ms` cycle the watcher retries with
/// exponential backoff (an eighth of the poll interval, doubling back up
/// to it), counting each failure in `tsfm_serve_reload_failures_total`.
fn watch_manifest(
    handle: &ServerHandle,
    catalog_dir: &str,
    manifest: &Path,
    reload_ms: u64,
    failures: &tsfm_obs::Counter,
) {
    let stat = |p: &Path| {
        std::fs::metadata(p)
            .ok()
            .map(|m| (m.len(), m.modified().ok()))
    };
    let mut last = stat(manifest);
    let mut delay = reload_ms;
    loop {
        std::thread::sleep(Duration::from_millis(delay));
        let now = stat(manifest);
        if now == last {
            delay = reload_ms;
            continue;
        }
        // Contain rebuild panics: the watcher is a detached thread, so an
        // unwinding panic here would silently end hot reload while the
        // server keeps answering. Fold panics into the logged-and-retried
        // error path instead.
        let rebuilt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Catalog::open(catalog_dir).and_then(|mut cat| {
                let s = cat.searcher()?;
                cat.commit()?;
                Ok(s)
            })
        }))
        .unwrap_or_else(|_| Err(StoreError::internal("catalog rebuild panicked")));
        match rebuilt {
            Ok(fresh) => {
                let tables = fresh.len();
                let generation = handle.swap_searcher(fresh);
                eprintln!("tsfm: reloaded catalog ({tables} tables, reload #{generation})");
                last = stat(manifest);
                delay = reload_ms;
            }
            Err(e) => {
                failures.inc();
                // Leave `last` as-is so the next wake-up retries — and
                // wake up sooner than the regular cadence.
                delay = if delay >= reload_ms {
                    (reload_ms / 8).max(50).min(reload_ms)
                } else {
                    (delay * 2).min(reload_ms)
                };
                eprintln!(
                    "tsfm: catalog reload failed (still serving old snapshot, \
                     retrying in {delay}ms): {e}"
                );
            }
        }
    }
}

/// `tsfm fsck <catalog-dir> [--repair]` — verify every checksum and
/// print the structured JSON report from [`tabsketchfm::store::fsck`].
fn cmd_fsck(args: &[String]) -> ExitCode {
    let mut repair = false;
    let mut positional = Vec::new();
    for a in args {
        match a.as_str() {
            "--repair" => repair = true,
            _ => positional.push(a.clone()),
        }
    }
    let [catalog_dir] = &positional[..] else {
        eprintln!("tsfm: {USAGE}");
        return ExitCode::from(2);
    };
    match tabsketchfm::store::fsck::fsck(Path::new(catalog_dir), repair) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.consistent_after() {
                ExitCode::SUCCESS
            } else {
                eprintln!("tsfm: {catalog_dir}: store is damaged (see report above)");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("tsfm: fsck {catalog_dir}: {e}");
            ExitCode::from(2)
        }
    }
}

/// `tsfm compact <catalog-dir>` — fold every loose segment and tombstone
/// into the sharded tier (`shards/sNNN-*.{shard,arena}`). This is also
/// the monolithic→sharded migration path: run it once against a catalog
/// written by an older release and subsequent opens read only the root
/// manifest plus fixed-size shard headers instead of every segment.
fn cmd_compact(args: &[String]) -> Result<(), String> {
    let [catalog_dir] = args else {
        return Err(USAGE.to_string());
    };
    let mut cat = Catalog::open(catalog_dir).map_err(|e| format!("open {catalog_dir}: {e}"))?;
    let tables = cat.len();
    let started = std::time::Instant::now();
    cat.compact().map_err(|e| format!("compact {catalog_dir}: {e}"))?;
    println!(
        "compacted {catalog_dir}: {tables} tables into {} shard(s) in {}ms",
        cat.shard_count(),
        started.elapsed().as_millis()
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("--addr") {
        let [_, addr] = args else {
            return Err(USAGE.to_string());
        };
        return cmd_stats_remote(addr);
    }
    let [catalog_dir] = args else {
        return Err(USAGE.to_string());
    };
    let cat = Catalog::open(catalog_dir).map_err(|e| format!("open {catalog_dir}: {e}"))?;
    let s = cat.stats();
    println!("catalog {catalog_dir}");
    println!("  tables        {}", s.tables);
    println!("  columns       {}", s.columns);
    println!("  rows          {}", s.rows);
    println!("  segment bytes {}", s.segment_bytes);
    println!("  minhash k     {}", s.minhash_k);
    println!("  index cached  {}", s.index_cached);
    println!("  shards        {}", s.shards);
    Ok(())
}

/// `tsfm stats --addr HOST:PORT` — interrogate a *running* server over
/// its wire protocol: one `{"op":"stats"}` request, one `{"op":"metrics"}`
/// request, both pretty-printed.
fn cmd_stats_remote(addr: &str) -> Result<(), String> {
    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let timeout = Some(Duration::from_secs(10));
    stream.set_read_timeout(timeout).ok();
    stream.set_write_timeout(timeout).ok();
    let mut reader =
        std::io::BufReader::new(stream.try_clone().map_err(|e| format!("connect {addr}: {e}"))?);
    let mut writer = stream;

    let stats = request_op(&mut writer, &mut reader, "stats")?;
    let metrics = request_op(&mut writer, &mut reader, "metrics")?;

    println!("server {addr}");
    let body = stats.get("stats").ok_or("malformed stats reply (no \"stats\" object)")?;
    print_json_tree(body, 1);

    let text = metrics
        .get("metrics")
        .and_then(|m| m.as_str())
        .ok_or("malformed metrics reply (no \"metrics\" string)")?;
    println!("metrics");
    for line in text.lines() {
        println!("  {line}");
    }
    Ok(())
}

/// Send one ops verb and parse the single-line JSON reply. A reply
/// carrying `"error"` becomes this command's failure.
fn request_op(
    writer: &mut std::net::TcpStream,
    reader: &mut std::io::BufReader<std::net::TcpStream>,
    op: &str,
) -> Result<wire::Json, String> {
    use std::io::BufRead;
    writeln!(writer, "{{\"op\":\"{op}\"}}").map_err(|e| format!("send {op}: {e}"))?;
    writer.flush().map_err(|e| format!("send {op}: {e}"))?;
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| format!("read {op} reply: {e}"))?;
    if line.trim().is_empty() {
        return Err(format!("server closed the connection before answering {op}"));
    }
    let v = wire::parse_json(line.trim()).map_err(|e| format!("bad {op} reply: {e}"))?;
    if let Some(err) = v.get("error") {
        let detail = err.get("detail").and_then(|d| d.as_str()).unwrap_or("unknown error");
        return Err(format!("{op}: server error: {detail}"));
    }
    Ok(v)
}

/// Indented key/value rendering of a parsed JSON object — nested objects
/// become deeper indentation, integral numbers print without the float
/// tail.
fn print_json_tree(v: &wire::Json, indent: usize) {
    let wire::Json::Obj(fields) = v else { return };
    let pad = "  ".repeat(indent);
    let width = fields.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    for (k, val) in fields {
        match val {
            wire::Json::Obj(_) => {
                println!("{pad}{k}");
                print_json_tree(val, indent + 1);
            }
            wire::Json::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => {
                println!("{pad}{k:<width$} {}", *n as i64)
            }
            wire::Json::Num(n) => println!("{pad}{k:<width$} {n}"),
            wire::Json::Str(s) => println!("{pad}{k:<width$} {s}"),
            wire::Json::Bool(b) => println!("{pad}{k:<width$} {b}"),
            wire::Json::Null => println!("{pad}{k:<width$} null"),
            wire::Json::Arr(a) => println!("{pad}{k:<width$} [{} items]", a.len()),
        }
    }
}
