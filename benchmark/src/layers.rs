//! The traced run: per-layer metrics from an outside-in replay.
//!
//! After setting up as the untraced run does, it replays a fixed sample
//! serially through each layer's *public* function, wrapping each call in
//! a span of the benchmark's own recorder ([`crate::trace`]); the spans
//! are written as Chrome `trace_event` JSON when the run ends. Per-layer
//! numbers come only from this replay. The replayed stages of an
//! operation must sum to within 15 % of that operation's measured whole —
//! ingest of the sample, one cold `searcher()`, the sample's `execute`s —
//! or the run is incorrect.
//!
//! | span | call |
//! |---|---|
//! | `table.read` | `fs::read_to_string` of one lake file |
//! | `table.csv_parse` | `tsfm_table::csv::table_from_csv` |
//! | `sketch.build` | `TableSketch::build` / `Searcher::sketch` |
//! | `store.catalog.add_record` | `Catalog::add_record` |
//! | `store.catalog.commit` / `.compact` / `.open` / `.load_records` | the `Catalog` method of that name |
//! | `search.hnsw_build` | `QueryEngine::build` on the loaded records |
//! | `store.catalog.searcher_cold` / `.searcher_warm` | `Catalog::searcher` without / with a valid index cache |
//! | `store.catalog.index_cache_load` | `catalog::read_index_cache` |
//! | `store.shard.arena_read` | `Catalog::get` on a compacted catalog |
//! | `store.wire.parse` / `.serialize` | `ServeRequest::parse_line` / `wire::response_json` |
//! | `store.serve.execute` | `serve::execute` (the whole) |
//! | `replay.execute` | parent of one request's replayed stages |
//! | `store.shard.sketch_of` | `Searcher::sketch_of` |
//! | `store.engine.search` | `Searcher::search_sketch`, `profile: true` |
//! | `search.beam` / `search.rank` / `search.lsh` / `store.engine.features` / `store.engine.other` | the stages of that response's profile |
//! | `client.request` | one request of the traced closed-loop window |

use crate::client::{self, Conn};
use crate::exact::Reference;
use crate::inputs::{id_request, Inputs, LAKE_SEED};
use crate::output::{Metrics, Ops, Outcome};
use crate::run::{
    all_sketches, build_catalog, churn_cycle, describe_inputs, dir_bytes_and_files, nproc,
    query_sketch, quality_pass, warm_up, warmup_requests, with_server, write_lake, Built, DataRoot, Info,
    RunArgs,
};
use crate::stats::median;
use crate::trace::{Recorder, Span};
use std::path::Path;
use std::time::{Duration, Instant};
use tsfm_search::HnswConfig;
use tsfm_sketch::TableSketch;
use tsfm_store::serve::execute;
use tsfm_store::{
    catalog::read_index_cache, wire, Catalog, QueryEngine, QueryMode, Searcher, ServeRequest,
    SnapshotMode, TableRecord,
};
use tsfm_table::csv;
use tsfm_table::hash::hash_str;

/// The ingest replay stays under the catalog's auto-shard threshold
/// (4 096 loose tables), so `commit` and `compact` are timed apart.
const INGEST_SAMPLE_CAP: usize = 4000;
/// Stage sums must land within this share of the measured whole.
const SUM_TOLERANCE: f64 = 0.15;
/// Untraced/traced window pairs behind `bench.trace_overhead_pct` (a
/// median of each side; one pair reads the machine's mood, not overhead).
const OVERHEAD_PAIRS: usize = 5;
/// Stage/whole pairs measured before a sum outside the tolerance counts.
const MAX_ATTEMPTS: usize = 10;

struct Counters {
    rebuilds: f64,
    cache_hits: f64,
    compactions: f64,
    segments: f64,
    segment_bytes: f64,
    shard_hits: f64,
    shard_misses: f64,
}

impl Counters {
    /// The exported counters, read from the process-wide registry's
    /// Prometheus text — the same surface the `metrics` verb serves.
    fn read() -> Counters {
        let text = tsfm_obs::metrics::global().prometheus_text();
        let exported = |name: &str| -> f64 {
            text.lines()
                .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0.0)
        };
        Counters {
            rebuilds: exported("tsfm_catalog_index_rebuilds_total"),
            cache_hits: exported("tsfm_catalog_index_cache_hits_total"),
            compactions: exported("tsfm_store_compactions_total"),
            segments: exported("tsfm_catalog_segments_written_total"),
            segment_bytes: exported("tsfm_catalog_segment_bytes_written_total"),
            shard_hits: exported("tsfm_store_shard_cache_hits_total"),
            shard_misses: exported("tsfm_store_shard_cache_misses_total"),
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Measure an operation's replayed stages and its whole — `measure`
/// records into the recorder it is handed and returns `(stage seconds,
/// whole seconds)` — and require `fastest stages / fastest whole` to land
/// in `[floor, 1 + SUM_TOLERANCE]`.
///
/// One pair is a single shot of two sub-second phases that create
/// thousands of files: on the sandbox's ext4 the same serial ingest read
/// 0.30–0.72 s and the same `add_record` loop 0.06–0.29 s within one run,
/// so single pairs gave ratios from 0.45 to 1.66 with nothing wrong. A
/// stall only ever adds time, hence the fastest of each side over up to
/// [`MAX_ATTEMPTS`] pairs, stopping at the first pair that brings the
/// ratio inside; a replay that leaves a stage out stays outside however
/// often it is repeated, and only that makes the run incorrect. The
/// fastest staged attempt's spans join `rec`; returns the ratio and that
/// attempt's number. At `--quick` scale (`enforce` off) operations last
/// microseconds: one pair, reported, not judged.
fn account_for(
    what: &str,
    enforce: bool,
    floor: f64,
    rec: &mut Recorder,
    ops: &mut Ops,
    mut measure: impl FnMut(usize, &mut Recorder) -> Result<(f64, f64), String>,
) -> Result<(f64, usize), String> {
    let within = |ratio: f64| ratio >= floor && ratio <= 1.0 + SUM_TOLERANCE;
    let (mut best_stages, mut best_whole) = (f64::INFINITY, f64::INFINITY);
    let mut kept = (rec.attempt(), 0);
    for attempt in 0..if enforce { MAX_ATTEMPTS } else { 1 } {
        if attempt > 0 {
            eprintln!(
                "tsfm_benchmark: {what}: stages are {:.1} % of the whole after {attempt} pair(s), measuring another",
                best_stages / best_whole * 100.0
            );
        }
        let mut spans = rec.attempt();
        let (stages, whole) = measure(attempt, &mut spans)?;
        if stages < best_stages {
            best_stages = stages;
            kept = (spans, attempt);
        }
        best_whole = best_whole.min(whole);
        if within(best_stages / best_whole) {
            break;
        }
    }
    let ratio = best_stages / best_whole;
    rec.absorb(kept.0);
    ops.check(!enforce || within(ratio), || {
        format!("replayed {what} stages sum to {:.1} % of the measured whole", ratio * 100.0)
    });
    Ok((ratio, kept.1))
}

/// Serial ingest of the sample into `dir`, one span per stage, committed.
fn replay_ingest(
    rec: &mut Recorder,
    dir: &Path,
    lake: &Path,
    sample: &[(String, String)],
) -> Result<(), String> {
    let (cat, _) = rec.time("store.catalog.open", None, 0, || Catalog::open(dir));
    let mut cat = cat.map_err(|e| format!("open: {e}"))?;
    let cfg = cat.sketch_config().clone();
    for (i, (id, _)) in sample.iter().enumerate() {
        let op = i as u64;
        let root = rec.begin("ingest.table", None, op);
        {
            let path = lake.join(format!("{id}.csv"));
            let (text, _) = rec.time("table.read", Some(root), op, || std::fs::read_to_string(&path));
            let text = text.map_err(|e| format!("read {}: {e}", path.display()))?;
            let (table, _) =
                rec.time("table.csv_parse", Some(root), op, || csv::table_from_csv(id, id, &text));
            let (sketch, _) = rec.time("sketch.build", Some(root), op, || TableSketch::build(&table, &cfg));
            let (added, _) = rec.time("store.catalog.add_record", Some(root), op, || {
                cat.add_record(&TableRecord::from_sketch(sketch, hash_str(&text)))
            });
            added.map_err(|e| format!("add_record {id}: {e}"))?;
            // The text and the parsed table are freed here, inside the
            // table's span: the library's own loop pays for that too.
        }
        rec.end(root);
    }
    let (committed, _) = rec.time("store.catalog.commit", None, 0, || cat.commit());
    committed.map_err(|e| format!("commit: {e}"))
}

/// Lay a response's profiled stage breakdown under its engine span.
fn push_profile(rec: &mut Recorder, parent: usize, op: u64, profile: &[(String, u64)]) {
    let mut at = rec.spans()[parent].start_ns;
    for (stage, us) in profile {
        let name = match stage.as_str() {
            "features" => "store.engine.features",
            "beam" => "search.beam",
            "rank" => "search.rank",
            "lsh" => "search.lsh",
            _ => "store.engine.other",
        };
        let end = at + us * 1000;
        rec.push(Span { name, start_ns: at, end_ns: end, parent: Some(parent), op });
        at = end;
    }
}

struct RequestReplay {
    request_bytes: f64,
    reply_bytes: f64,
    execute_ns: u64,
    stages_ns: u64,
}

/// Replay `lines` serially, in process: parse → execute (the whole) →
/// serialize, then the same request's stages one public call at a time.
fn replay_requests(
    rec: &mut Recorder,
    searcher: &Searcher,
    lines: &[&String],
    ops: &mut Ops,
) -> Result<RequestReplay, String> {
    let mut out = RequestReplay { request_bytes: 0.0, reply_bytes: 0.0, execute_ns: 0, stages_ns: 0 };
    for (i, line) in lines.iter().enumerate() {
        let op = i as u64;
        let (req, _) = rec.time("store.wire.parse", None, op, || ServeRequest::parse_line(line));
        let req = req.map_err(|e| format!("replay request {i}: {e}"))?;
        // Untimed first touch, so the whole and the stages that follow both
        // run on warm caches and differ only in how the work is cut up.
        let _ = execute(searcher, &req);
        let (resp, whole_ns) = rec.time("store.serve.execute", None, op, || execute(searcher, &req));
        let Ok(resp) = resp else {
            ops.check(false, || format!("replayed request {i} failed"));
            continue;
        };
        let (reply, _) = rec.time("store.wire.serialize", None, op, || wire::response_json(&resp));
        out.request_bytes += line.len() as f64;
        out.reply_bytes += reply.len() as f64;

        let root = rec.begin("replay.execute", None, op);
        let sketch = match (&req.csv, &req.id) {
            (Some(text), _) => {
                let (table, _) = rec.time("table.csv_parse", Some(root), op, || {
                    csv::table_from_csv(&req.query_id, &req.query_id, text)
                });
                let (s, _) = rec.time("sketch.build", Some(root), op, || searcher.sketch(&table));
                std::sync::Arc::new(s)
            }
            (None, Some(id)) => {
                let (s, _) = rec.time("store.shard.sketch_of", Some(root), op, || searcher.sketch_of(id));
                s.map_err(|e| format!("sketch_of {id}: {e}"))?
            }
            (None, None) => return Err("request has no query table".into()),
        };
        let profiled = req.request.clone().with_profile(true);
        let engine = rec.begin("store.engine.search", Some(root), op);
        let staged = searcher.search_sketch(&sketch, &profiled);
        rec.end(engine);
        rec.end(root);
        let staged = staged.map_err(|e| format!("search_sketch: {e}"))?;
        push_profile(rec, engine, op, staged.profile.as_deref().unwrap_or_default());
        ops.check(staged.hits == resp.hits, || format!("replayed stages of request {i} rank differently"));
        out.execute_ns += whole_ns;
        out.stages_ns += rec.spans()[root].duration_ns();
    }
    let n = lines.len().max(1) as f64;
    out.request_bytes /= n;
    out.reply_bytes /= n;
    Ok(out)
}

fn mean_rtt_us(addr: std::net::SocketAddr, lines: &[&String], ops: &mut Ops) -> Result<f64, String> {
    let mut conn = Conn::open(addr)?;
    let mut total = Duration::ZERO;
    let mut n = 0u32;
    for line in lines {
        let t0 = Instant::now();
        let ok = matches!(conn.roundtrip(line), Ok(r) if !client::is_error(r));
        if ops.check(ok, || "serial TCP replay request failed".to_string()) {
            total += t0.elapsed();
            n += 1;
        }
    }
    Ok(if n == 0 { 0.0 } else { total.as_secs_f64() * 1e6 / f64::from(n) })
}

/// The `stats` verb's error and shed counts.
fn serve_stats(addr: std::net::SocketAddr) -> Result<(f64, f64), String> {
    let mut conn = Conn::open(addr)?;
    let reply = conn.roundtrip("{\"op\":\"stats\"}")?;
    let json = wire::parse_json(reply).map_err(|e| format!("stats reply: {e}"))?;
    let stats = json.get("stats").ok_or("stats reply has no stats")?;
    let num = |path: [&str; 2]| {
        stats.get(path[0]).and_then(|o| o.get(path[1])).and_then(wire::Json::as_f64).unwrap_or(f64::NAN)
    };
    Ok((
        num(["requests", "client_error"]) + num(["requests", "server_error"]),
        num(["connections", "shed"]),
    ))
}

/// The traced run: every per-layer metric.
pub fn traced(args: &RunArgs, info: &mut Info) -> Result<Outcome, String> {
    let run_t0 = Instant::now();
    let w = args.workload;
    let scale = w.scale_for(args.quick);
    let conns = nproc();
    let mut ops = Ops::default();
    let root = DataRoot::create()?;
    let inputs = Inputs::generate(w, &scale, LAKE_SEED, args.seed);
    let pool = inputs.request_pool(w, scale.request_pool);
    describe_inputs(info, args, &inputs, &pool, conns);
    let tables = inputs.lake.len();
    let lake = root.fresh("lake");
    write_lake(&lake, &inputs.lake)?;
    let before = Counters::read();

    let serving_dir = root.fresh("serving");
    let Built { mut catalog, searcher, .. } = build_catalog(&serving_dir, &lake, tables, w, conns, &mut ops)?;
    let mut m = Metrics::default();
    let mut rec = Recorder::new();
    let (disk_bytes, disk_files) = dir_bytes_and_files(&serving_dir);
    m.set("store.catalog.files_per_table", disk_files as f64 / tables as f64);
    m.set("store.durable.disk_bytes_per_csv_byte", disk_bytes as f64 / inputs.csv_bytes as f64);
    m.set("table.csv_bytes_per_table", inputs.csv_bytes as f64 / tables as f64);

    with_server(searcher.clone(), |handle| {
        let addr = handle.addr();
        warm_up(addr, &pool, conns, warmup_requests(args.quick), &mut ops);

        // ---- tracing overhead: the same window, spans off / on, alternating --
        let window = Duration::from_secs_f64(args.seconds * 0.2 / (2 * OVERHEAD_PAIRS) as f64);
        let shard_before = Counters::read();
        let (mut plain_qps, mut spanned_qps) = (Vec::new(), Vec::new());
        for _ in 0..OVERHEAD_PAIRS {
            let plain = client::closed_loop(addr, &pool, conns, window, None, None);
            let spanned = client::closed_loop(addr, &pool, conns, window, None, Some(rec.epoch()));
            ops.add(plain.replies + plain.failed + spanned.replies + spanned.failed, plain.failed + spanned.failed);
            plain_qps.push(plain.qps());
            spanned_qps.push(spanned.qps());
            for &(start_ns, end_ns) in &spanned.spans {
                let op = rec.spans().len() as u64;
                rec.push(Span { name: "client.request", start_ns, end_ns, parent: None, op });
            }
        }
        let shard_after = Counters::read();
        let (plain, spanned) = (median(&plain_qps).unwrap_or(f64::NAN), median(&spanned_qps).unwrap_or(f64::NAN));
        m.set("bench.trace_overhead_pct", (plain - spanned) / plain * 100.0);
        let (hits, misses) = (
            shard_after.shard_hits - shard_before.shard_hits,
            shard_after.shard_misses - shard_before.shard_misses,
        );
        // No lookup at all (an eager snapshot) is a cache that never missed.
        m.set("store.shard.cache_hit_ratio", if hits + misses > 0.0 { hits / (hits + misses) } else { 1.0 });

        // ---- open loop at the workload's declared rate ---------------------
        let count = (w.open_loop_qps * args.seconds * 0.1).max(50.0) as usize;
        let open = client::open_loop(addr, &pool, conns, w.open_loop_qps, count);
        ops.add(count as u64, open.failed);
        let pct = |q: f64| crate::stats::percentile_sorted(&open.latencies_us, q).unwrap_or(f64::NAN);
        m.set("store.serve.open_loop_p50_us", pct(0.50));
        m.set("store.serve.open_loop_p99_us", pct(0.99));
        m.set("store.serve.open_loop_late_ms", open.max_late_ms);
        info.num("open_loop_qps", w.open_loop_qps);
        info.num("open_loop_requests", count);

        // ---- request replay --------------------------------------------------
        let lines: Vec<&String> = pool.iter().cycle().take(scale.replay_requests).collect();
        let mut bytes = (0.0, 0.0);
        let mut replay_ops = Ops::default();
        let (ratio, _) = account_for("execute", !args.quick, 1.0 - SUM_TOLERANCE, &mut rec, &mut ops, |_, spans| {
            replay_ops = Ops::default();
            let r = replay_requests(spans, &searcher, &lines, &mut replay_ops)?;
            bytes = (r.request_bytes, r.reply_bytes);
            Ok((r.stages_ns as f64, r.execute_ns as f64))
        })?;
        ops.add(replay_ops.attempted, replay_ops.failed);
        m.set("bench.execute_stage_sum_ratio", ratio);
        let rtt_us = mean_rtt_us(addr, &lines, &mut ops)?;
        m.set("store.wire.request_bytes", bytes.0);
        m.set("store.wire.reply_bytes", bytes.1);

        // ---- one sweep per mode (by stored id), whatever the mix -----------
        let sketches = all_sketches(&searcher, &inputs)?;
        let reference = Reference::build(&sketches);
        info.num("columns", reference.columns());
        drop(sketches);
        let quality =
            quality_pass(addr, &searcher, &inputs.quality_requests(w, &scale), &reference, &mut ops)?;
        m.set("search.brute_force_us_per_query", quality.brute_force_us);
        for (mode, name_recall, name_search) in [
            (QueryMode::Join, "search.recall_at_10.join", "store.engine.search_us.join"),
            (QueryMode::Union, "search.recall_at_10.union", "store.engine.search_us.union"),
            (QueryMode::Subset, "search.recall_at_10.subset", "store.engine.search_us.subset"),
        ] {
            let (mut recall, mut search_ns) = (Vec::new(), 0u64);
            for id in inputs.recall_ids(mode) {
                let req = ServeRequest::parse_line(&id_request(mode, id)).map_err(|e| e.to_string())?;
                let sketch = query_sketch(&searcher, &req)?;
                let t0 = Instant::now();
                let resp = searcher.search_sketch(&sketch, &req.request);
                search_ns += t0.elapsed().as_nanos() as u64;
                let Ok(resp) = resp else {
                    ops.check(false, || format!("{mode} sweep query {id} failed"));
                    continue;
                };
                let served: Vec<String> = resp.hits.iter().map(|h| h.table_id.clone()).collect();
                recall.extend(reference.recall(&sketch, mode, &served, 10));
            }
            let n = inputs.recall_ids(mode).len().max(1) as f64;
            m.set(name_search, search_ns as f64 / 1e3 / n);
            m.set(name_recall, if recall.is_empty() { 0.0 } else { recall.iter().sum::<f64>() / recall.len() as f64 });
        }
        drop(reference);

        // ---- ingest replay and the cold / warm open paths -------------------
        let sample = &inputs.lake[..tables.min(INGEST_SAMPLE_CAP)];
        let sample_lake = if sample.len() < tables {
            let dir = root.fresh("sample-lake");
            write_lake(&dir, sample)?;
            dir
        } else {
            lake.clone()
        };
        let n = sample.len() as f64;
        // Every attempt leaves two committed catalogs of the sample — the
        // replayed one and the library's own — for the cold opens below.
        let mut catalogs = Vec::new();
        let (ratio, _) = account_for("ingest", !args.quick, 1.0 - SUM_TOLERANCE, &mut rec, &mut ops, |attempt, spans| {
            let before = Counters::read();
            let replay_dir = root.fresh(&format!("replay{attempt}"));
            replay_ingest(spans, &replay_dir, &sample_lake, sample)?;
            let after = Counters::read();
            m.set("store.durable.segments_written_per_table", (after.segments - before.segments) / n);
            m.set("store.durable.bytes_written_per_table", (after.segment_bytes - before.segment_bytes) / n);
            // The whole: the library's own serial ingest of the same sample.
            let whole_dir = root.fresh(&format!("replay-whole{attempt}"));
            let t0 = Instant::now();
            let mut whole = Catalog::open(&whole_dir).map_err(|e| format!("open: {e}"))?;
            let report = whole.ingest_dir_with_threads(&sample_lake, 1).map_err(|e| format!("ingest: {e}"))?;
            let whole_s = t0.elapsed().as_secs_f64();
            if report.added != sample.len() {
                return Err("serial whole ingest lost tables".into());
            }
            catalogs.extend([replay_dir, whole_dir]);
            let totals = spans.totals();
            let total_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns);
            let staged_ns = total_ns("ingest.table") + total_ns("store.catalog.open") + total_ns("store.catalog.commit");
            Ok((staged_ns as f64 / 1e9, whole_s))
        })?;
        m.set("bench.ingest_stage_sum_ratio", ratio);

        // A cold `searcher()` loads the records, builds the graphs and
        // writes the index cache; its time beyond the first two is the
        // cache write. That remainder is non-negative by construction; the
        // check is that load + build do not *exceed* the whole. Each
        // attempt opens a catalog that has no index cache yet (one more is
        // ingested, untimed, should the ingest attempts' run out).
        struct ColdOpen {
            cat: Catalog,
            open_ns: u64,
            load_ns: u64,
            build_ns: u64,
            cold_ns: u64,
            nodes: usize,
        }
        let mut opens: Vec<ColdOpen> = Vec::new();
        let (ratio, fastest) = account_for("cold searcher()", !args.quick, 0.0, &mut rec, &mut ops, |attempt, spans| {
            let dir = match catalogs.get(attempt) {
                Some(dir) => dir.clone(),
                None => {
                    let dir = root.fresh(&format!("cold{attempt}"));
                    let mut fresh = Catalog::open(&dir).map_err(|e| format!("open: {e}"))?;
                    fresh.ingest_dir_with_threads(&sample_lake, conns).map_err(|e| format!("ingest: {e}"))?;
                    dir
                }
            };
            let (cat, open_ns) = spans.time("store.catalog.open", None, 0, || Catalog::open(&dir));
            let mut cat = cat.map_err(|e| format!("reopen: {e}"))?;
            let (records, load_ns) = spans.time("store.catalog.load_records", None, 0, || cat.load_all_records());
            let records = records.map_err(|e| format!("load_all_records: {e}"))?;
            let k = cat.sketch_config().minhash_k;
            let (engine, build_ns) =
                spans.time("search.hnsw_build", None, 0, || QueryEngine::build(&records, k, HnswConfig::default()));
            let nodes = engine.join_index().len();
            drop((engine, records));
            cat.set_snapshot_mode(SnapshotMode::Eager);
            let (cold, cold_ns) = spans.time("store.catalog.searcher_cold", None, 0, || cat.searcher());
            cold.map_err(|e| format!("cold searcher: {e}"))?;
            opens.push(ColdOpen { cat, open_ns, load_ns, build_ns, cold_ns, nodes });
            Ok(((load_ns + build_ns) as f64, cold_ns as f64))
        })?;
        m.set("bench.searcher_stage_sum_ratio", ratio);
        let ColdOpen { mut cat, open_ns, load_ns, build_ns, cold_ns, nodes } = opens.swap_remove(fastest);
        drop(opens);
        let replay_dir = cat.dir().to_path_buf();
        m.set("store.catalog.open_ms", ms(open_ns));
        m.set("store.catalog.load_records_ms", ms(load_ns));
        m.set("search.hnsw_build_ms", ms(build_ns));
        m.set("search.hnsw_nodes", nodes as f64);
        m.set("search.hnsw_insert_us_per_column", build_ns as f64 / 1e3 / nodes.max(1) as f64);
        m.set("store.catalog.index_cache_write_ms", ms(cold_ns.saturating_sub(load_ns + build_ns)));
        let cache = replay_dir.join("index.cache");
        m.set("store.catalog.index_cache_bytes", std::fs::metadata(&cache).map_or(0.0, |md| md.len() as f64));
        let (loaded, cache_ns) = rec.time("store.catalog.index_cache_load", None, 0, || read_index_cache(&cache));
        loaded.map_err(|e| format!("read_index_cache: {e}"))?;
        m.set("store.catalog.index_cache_load_ms", ms(cache_ns));

        let (compacted, compact_ns) = rec.time("store.catalog.compact", None, 0, || cat.compact());
        compacted.map_err(|e| format!("compact: {e}"))?;
        m.set("store.catalog.compact_ms", ms(compact_ns));
        m.set("store.shard.count", cat.shard_count() as f64);
        let arena_bytes: u64 = std::fs::read_dir(replay_dir.join("shards"))
            .into_iter()
            .flat_map(Iterator::flatten)
            .filter(|e| e.path().extension().is_some_and(|x| x == "arena"))
            .filter_map(|e| e.metadata().ok())
            .map(|md| md.len())
            .sum();
        m.set("store.shard.arena_bytes", arena_bytes as f64);
        for (i, (id, _)) in sample.iter().enumerate().take(scale.replay_requests) {
            let (got, _) = rec.time("store.shard.arena_read", None, i as u64, || cat.get(id));
            ops.check(matches!(got, Ok(Some(_))), || format!("arena read of {id} failed"));
        }
        drop(cat);
        // Warm: a reopened catalog whose index cache is valid (compaction
        // preserves content, so the fingerprint still matches).
        let mut cat = Catalog::open(&replay_dir).map_err(|e| format!("reopen: {e}"))?;
        cat.set_snapshot_mode(if w.lazy { SnapshotMode::Lazy } else { SnapshotMode::Eager });
        let (warm, warm_ns) = rec.time("store.catalog.searcher_warm", None, 0, || cat.searcher());
        warm.map_err(|e| format!("warm searcher: {e}"))?;
        m.set("store.catalog.snapshot_build_ms", ms(warm_ns));
        drop(cat);

        // Read before the update cycle, whose `unknown_table` polls the
        // server rightly counts as client errors.
        let (errors, shed) = serve_stats(addr)?;
        m.set("store.serve.errors", errors);
        m.set("store.serve.shed", shed);

        // ---- one update cycle: the swap seen from a background connection ---
        let mut alive = inputs.churnable.clone();
        let step = inputs.churn_step(0, &mut alive);
        let cycle = churn_cycle(
            &mut catalog,
            handle,
            &lake,
            &step,
            &inputs.background_pool(w),
            conns,
            w.modes[0],
            &mut ops,
        )?;
        m.set("store.serve.swap_stall_ms", cycle.stall_ms);
        info.num("update_visible_s", cycle.visible_s);

        // ---- spans → per-layer numbers ---------------------------------------
        let totals = rec.totals();
        let per_call = |name: &str| totals.get(name).map_or(0.0, crate::trace::LayerTotal::self_us_per_call);
        let total_us = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3);
        let ingested = totals.get("ingest.table").map_or(1, |t| t.count.max(1)) as f64;
        let requests = totals.get("replay.execute").map_or(1, |t| t.count.max(1)) as f64;
        let columns: usize = sample.iter().map(|(_, text)| text.lines().next().map_or(0, |h| h.split(',').count())).sum();
        // `table.csv_parse` and `sketch.build` are recorded by both replays
        // (ingest, and inline requests); split by parent.
        let selfs = rec.self_times_ns();
        let under = |name: &str, parent: &str| -> f64 {
            rec.spans()
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.name == name && s.parent.is_some_and(|p| rec.spans()[p].name == parent))
                .map(|(_, &ns)| ns as f64 / 1e3)
                .sum()
        };
        let parse_ingest = under("table.csv_parse", "ingest.table");
        let sketch_ingest = under("sketch.build", "ingest.table");
        m.set("table.csv_parse_us_per_table", parse_ingest / ingested);
        m.set("sketch.build_us_per_table", sketch_ingest / ingested);
        m.set("sketch.build_us_per_column", sketch_ingest / columns.max(1) as f64);
        m.set("sketch.columns_per_table", columns as f64 / ingested);
        m.set("store.catalog.add_record_us_per_table", per_call("store.catalog.add_record"));
        m.set("store.catalog.commit_ms", total_us("store.catalog.commit") / 1e3);
        m.set("store.shard.arena_read_us", per_call("store.shard.arena_read"));
        m.set("store.shard.sketch_of_us", total_us("store.shard.sketch_of") / requests);
        m.set("search.hnsw_search_us", total_us("search.beam") / requests);
        m.set("search.rank_us", total_us("search.rank") / requests);
        m.set("search.lsh_us", total_us("search.lsh") / requests);
        m.set("store.engine.features_us", total_us("store.engine.features") / requests);
        m.set("store.engine.other_us", (total_us("store.engine.other") + total_us("store.engine.search")) / requests);
        m.set("store.wire.parse_us", per_call("store.wire.parse"));
        m.set("store.wire.serialize_us", per_call("store.wire.serialize"));
        m.set("store.serve.execute_us", per_call("store.serve.execute"));
        let in_process = per_call("store.wire.parse") + per_call("store.serve.execute") + per_call("store.wire.serialize");
        // TCP round trip minus the replayed in-process work: socket, queue,
        // pool hand-off, wake-up.
        m.set("store.serve.transport_us", rtt_us - in_process);
        let on_read_path = under("table.csv_parse", "replay.execute") + under("sketch.build", "replay.execute");
        m.set("bench.table_sketch_share_of_request", on_read_path / totals.get("replay.execute").map_or(1.0, |t| (t.total_ns as f64 / 1e3).max(1.0)));
        Ok(())
    })?;

    let after = Counters::read();
    m.set("store.catalog.index_rebuilds", after.rebuilds - before.rebuilds);
    m.set("store.catalog.index_cache_hits", after.cache_hits - before.cache_hits);
    m.set("store.catalog.compactions", after.compactions - before.compactions);

    let trace_path = match &args.trace_file {
        Some(p) => p.clone(),
        None => root.base().join(format!("trace-{}-seed{}.json", w.name, args.seed)),
    };
    std::fs::write(&trace_path, rec.chrome_json()).map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    info.text("trace_file", &trace_path.display().to_string());
    info.num("spans", rec.spans().len());
    m.set("bench.run_s", run_t0.elapsed().as_secs_f64());
    Ok(Outcome {
        correct: ops.failed == 0 && !ops.incorrect,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(spans: &mut Recorder, attempt: usize) {
        spans.push(Span { name: "stage", start_ns: 0, end_ns: 1, parent: None, op: attempt as u64 });
    }

    #[test]
    fn accounting_compares_the_fastest_of_each_side() {
        // Pair 0's whole stalled (46 %), pair 1's stages did (167 %); the
        // fastest of each side agree.
        let pairs = [(0.33, 0.72), (0.52, 0.31), (9.0, 9.0)];
        let (mut rec, mut ops) = (Recorder::new(), Ops::default());
        let (ratio, kept) = account_for("ingest", true, 0.85, &mut rec, &mut ops, |attempt, spans| {
            mark(spans, attempt);
            Ok(pairs[attempt])
        })
        .unwrap();
        assert!((ratio - 0.33 / 0.31).abs() < 1e-12, "{ratio}");
        assert_eq!((kept, ops.failed), (0, 0));
        let ops_kept: Vec<u64> = rec.spans().iter().map(|s| s.op).collect();
        assert_eq!(ops_kept, [0], "only the fastest staged attempt's spans, and no third pair");
    }

    #[test]
    fn a_stage_left_out_fails_after_every_attempt() {
        let (mut rec, mut ops) = (Recorder::new(), Ops::default());
        let mut pairs = 0;
        let (ratio, _) = account_for("ingest", true, 0.85, &mut rec, &mut ops, |attempt, spans| {
            mark(spans, attempt);
            pairs += 1;
            Ok((0.6, 1.0))
        })
        .unwrap();
        assert_eq!((pairs, ops.failed), (MAX_ATTEMPTS, 1));
        assert!((ratio - 0.6).abs() < 1e-12);
        // Not judged at toy scale: one pair, reported.
        let mut ops = Ops::default();
        pairs = 0;
        account_for("ingest", false, 0.85, &mut rec, &mut ops, |_, _| {
            pairs += 1;
            Ok((0.6, 1.0))
        })
        .unwrap();
        assert_eq!((pairs, ops.failed), (1, 0));
    }
}
