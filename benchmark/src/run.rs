//! One benchmark run: the lifecycle every workload shares.
//!
//! ```text
//! generate lake → [set-up ×5: fresh ingest → cold index build → bind → warm up]
//!   → quality pass → serve windows → restarts → update cycles beside reads
//!   → final checks → tear down
//! ```
//!
//! Noise protocol (measured reasons in README.md):
//!
//! * every timing metric comes from at least five in-run repetitions (21
//!   for restarts) — never a single shot — as their quartile on the
//!   metric's better side (`stats::quiet_quartile`): a neighbour on the
//!   shared host slows some repetitions and speeds none up;
//! * closed-loop load uses exactly `nproc` connections, one client thread
//!   each;
//! * the benchmark deletes nothing while the run measures: on the
//!   sandbox's journal-less ext4 a burst of unlinks makes the next file
//!   creations several times slower, so every directory a run creates
//!   lives until tear-down;
//! * exact metrics (`recall_at_10`, `gold_f1_at_10`,
//!   `disk_bytes_per_table`) are taken on the freshly set-up catalog of
//!   the workload's fixed dataset — the same number whatever the seed and
//!   however many update cycles the time budget allowed.

use crate::child::{self, Restart};
use crate::client::{self, Conn, Window};
use crate::exact::Reference;
use crate::inputs::{self, ChurnStep, Inputs, LAKE_SEED};
use crate::output::{Metrics, Ops, Outcome};
use crate::stats::{median, quiet_quartile, Better};
use crate::workload::{QuerySource, Scale, Workload, SKETCH_CACHE_CAP};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsfm_search::f1_at_k;
use tsfm_sketch::TableSketch;
use tsfm_store::serve::execute;
use tsfm_store::{
    wire, Catalog, QueryMode, Searcher, ServeConfig, ServeRequest, Server, ServerHandle,
    SnapshotMode,
};
use tsfm_table::csv;
use tsfm_table::hash::{hash_str, splitmix64};

/// Serve windows per run; `serve_*` are better-side quartiles over them.
const SERVE_WINDOWS: usize = 5;
/// Warm-up requests per connection after a server binds.
pub fn warmup_requests(quick: bool) -> usize {
    if quick {
        20
    } else {
        300
    }
}

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub trace_file: Option<PathBuf>,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The run's scratch space: directories named `run-<pid>-<time>-<label>`
/// in `bench-data` next to the executable (inside the build directory of
/// the checkout), all removed when the run ends — also on an error path.
/// Nothing else is ever deleted, and nothing at all while the run
/// measures.
///
/// `bench-data` carries ext4's `T` attribute, so each of those
/// directories starts in a block-group cluster chosen by its (unique)
/// name instead of next to its siblings. The reason is the sandbox's
/// journal-less ext4: there `creat` scans linearly past every inode its
/// block group freed in the last minutes, so a catalog created next to
/// one that was just torn down — the previous run's, or one this run's
/// own compaction just emptied — pays ~0.3 ms per file instead of
/// ~0.02 ms, for some runs and not for others (NOISE.md, "Directory
/// placement"). Best effort: without `chattr`, or on another filesystem,
/// the directories are simply created.
pub struct DataRoot {
    base: PathBuf,
    prefix: String,
}

impl DataRoot {
    pub fn create() -> Result<DataRoot, String> {
        let base = std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .parent()
            .ok_or("executable has no parent directory")?
            .join("bench-data");
        std::fs::create_dir_all(&base).map_err(|e| format!("create {}: {e}", base.display()))?;
        let _ = std::process::Command::new("chattr")
            .arg("+T")
            .arg(&base)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status();
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        Ok(DataRoot { base, prefix: format!("run-{}-{stamp}-", std::process::id()) })
    }

    pub fn base(&self) -> &Path {
        &self.base
    }

    /// A path for `label` that does not exist yet, so `Catalog::open`
    /// sees a fresh catalog. Labels are unique within a run.
    pub fn fresh(&self, label: &str) -> PathBuf {
        self.base.join(format!("{}{label}", self.prefix))
    }
}

impl Drop for DataRoot {
    fn drop(&mut self) {
        // Only what carries this run's own prefix.
        for entry in std::fs::read_dir(&self.base).into_iter().flatten().flatten() {
            if entry.file_name().to_string_lossy().starts_with(&self.prefix) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

pub fn write_lake(dir: &Path, lake: &[(String, String)]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for (id, text) in lake {
        std::fs::write(dir.join(format!("{id}.csv")), text).map_err(|e| format!("write {id}.csv: {e}"))?;
    }
    Ok(())
}

/// A freshly ingested, indexed catalog and what building it cost.
pub struct Built {
    pub catalog: Catalog,
    pub searcher: Searcher,
    /// `Catalog::open(fresh dir)` + `ingest_dir_with_threads` (parse,
    /// sketch, segment write, commit — and the fold into shards where the
    /// workload serves from them).
    pub ingest_s: f64,
    /// The first `searcher()` after the ingest: graph build + index-cache
    /// write.
    pub index_s: f64,
}

pub fn build_catalog(
    dir: &Path,
    lake: &Path,
    tables: usize,
    workload: &Workload,
    threads: usize,
    ops: &mut Ops,
) -> Result<Built, String> {
    let t0 = Instant::now();
    let mut catalog = Catalog::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let report = catalog.ingest_dir_with_threads(lake, threads).map_err(|e| format!("ingest: {e}"))?;
    if workload.lazy {
        // A bulk ingest past the auto-shard threshold has folded itself
        // into shards already; a toy-scale one is folded explicitly.
        if catalog.shard_count() == 0 {
            catalog.compact().map_err(|e| format!("compact: {e}"))?;
        }
        catalog.set_snapshot_mode(SnapshotMode::Lazy);
    } else {
        catalog.set_snapshot_mode(SnapshotMode::Eager);
    }
    let ingest_s = t0.elapsed().as_secs_f64();
    ops.check(report.failed.is_empty() && report.added == tables, || {
        format!("ingest added {} of {tables} tables, {} failed", report.added, report.failed.len())
    });
    let t1 = Instant::now();
    let searcher = catalog.searcher().map_err(|e| format!("searcher: {e}"))?;
    let index_s = t1.elapsed().as_secs_f64();
    ops.check(searcher.len() == tables && searcher.is_lazy() == workload.lazy, || {
        format!("snapshot holds {} tables (lazy={}), wanted {tables}", searcher.len(), searcher.is_lazy())
    });
    Ok(Built { catalog, searcher, ingest_s, index_s })
}

/// Run `f` against a server bound to an ephemeral loopback port, then
/// shut it down and join it.
pub fn with_server<R>(
    searcher: Searcher,
    f: impl FnOnce(&ServerHandle) -> Result<R, String>,
) -> Result<R, String> {
    let server = Server::bind("127.0.0.1:0", searcher, ServeConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let handle = server.handle();
    std::thread::scope(|scope| {
        let running = scope.spawn(move || server.run());
        let out = f(&handle);
        handle.shutdown();
        match running.join() {
            Ok(Ok(())) => out,
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    })
}

/// `requests` per connection, unrecorded except for failures.
pub fn warm_up(addr: SocketAddr, pool: &[String], conns: usize, requests: usize, ops: &mut Ops) {
    let failed: u64 = std::thread::scope(|scope| {
        let hs: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let Ok(mut conn) = Conn::open(addr) else { return requests as u64 };
                    (0..requests)
                        .filter(|i| {
                            !matches!(conn.roundtrip(&pool[(c + i * conns) % pool.len()]),
                                      Ok(r) if !client::is_error(r))
                        })
                        .count() as u64
                })
            })
            .collect();
        hs.into_iter().map(|h| h.join().unwrap_or(requests as u64)).sum()
    });
    ops.add((conns * requests) as u64, failed);
}

/// The sketch a request's query table has on the serving snapshot.
pub fn query_sketch(searcher: &Searcher, req: &ServeRequest) -> Result<Arc<TableSketch>, String> {
    match (&req.csv, &req.id) {
        (Some(text), _) => {
            let table = csv::table_from_csv(&req.query_id, &req.query_id, text);
            Ok(Arc::new(searcher.sketch(&table)))
        }
        (None, Some(id)) => searcher.sketch_of(id).map_err(|e| e.to_string()),
        (None, None) => Err("request has no query table".into()),
    }
}

/// What the quality pass found.
#[derive(Debug, Default, Clone)]
pub struct Quality {
    pub recall_at_10: f64,
    pub gold_f1_at_10: f64,
    /// Mean recall per mode, `QueryMode::ALL` order (NaN when the mix has
    /// no query of that mode).
    pub recall_by_mode: [f64; 3],
    pub f1_by_mode: [f64; 3],
    pub recall_samples: usize,
    pub gold_samples: usize,
    /// Mean time of one exact (brute-force) reference ranking, µs.
    pub brute_force_us: f64,
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Send the fixed quality sample over TCP on one connection. Each reply
/// must equal the in-process answer for the same snapshot (else a failed
/// operation); recall is scored against the exact ranking on the same
/// sketches, F1 against the generator's gold sets.
pub fn quality_pass(
    addr: SocketAddr,
    searcher: &Searcher,
    requests: &[inputs::QualityRequest],
    reference: &Reference,
    ops: &mut Ops,
) -> Result<Quality, String> {
    let mut conn = Conn::open(addr)?;
    let mut recall: [Vec<f64>; 3] = Default::default();
    let mut f1: [Vec<f64>; 3] = Default::default();
    let mut brute_ns = 0u128;
    let mut brute_n = 0u32;
    for q in requests {
        let reply = conn.roundtrip(&q.line).map(str::to_string);
        let parsed = ServeRequest::parse_line(&q.line).map_err(|e| format!("quality request: {e}"))?;
        let local = execute(searcher, &parsed).map(|r| wire::response_json(&r));
        let same = match (&reply, &local) {
            (Ok(r), Ok(l)) => !client::is_error(r) && client::hits_of(r) == client::hits_of(l),
            _ => false,
        };
        if !ops.check(same, || format!("TCP and in-process answers differ for {} {}", q.mode, q.query_id)) {
            continue;
        }
        let served = client::hit_ids(reply.as_deref().unwrap_or_default());
        let m = QueryMode::ALL.iter().position(|&x| x == q.mode).unwrap_or(0);
        match &q.gold {
            Some(gold) => {
                // F1@10 over ids: map ids to dense indices for f1_at_k.
                let mut universe: Vec<&String> = gold.iter().chain(&served).collect();
                universe.sort_unstable();
                universe.dedup();
                let idx = |id: &String| universe.binary_search(&id).unwrap_or(usize::MAX);
                let retrieved: Vec<usize> = served.iter().map(idx).collect();
                let gold_idx = gold.iter().map(idx).collect();
                f1[m].push(f1_at_k(&retrieved, &gold_idx, 10));
            }
            None => {
                let sketch = query_sketch(searcher, &parsed)?;
                let t0 = Instant::now();
                let r = reference.recall(&sketch, q.mode, &served, 10);
                brute_ns += t0.elapsed().as_nanos();
                brute_n += 1;
                if let Some(r) = r {
                    recall[m].push(r);
                }
            }
        }
    }
    let by_mode = |v: &[Vec<f64>; 3]| -> Vec<f64> {
        v.iter().filter(|s| !s.is_empty()).map(|s| mean(s)).collect()
    };
    Ok(Quality {
        recall_at_10: mean(&by_mode(&recall)),
        gold_f1_at_10: mean(&by_mode(&f1)),
        recall_by_mode: [mean(&recall[0]), mean(&recall[1]), mean(&recall[2])],
        f1_by_mode: [mean(&f1[0]), mean(&f1[1]), mean(&f1[2])],
        recall_samples: recall.iter().map(Vec::len).sum(),
        gold_samples: f1.iter().map(Vec::len).sum(),
        brute_force_us: if brute_n == 0 { 0.0 } else { brute_ns as f64 / 1e3 / f64::from(brute_n) },
    })
}

/// Every stored sketch in ascending id order, read through the snapshot.
pub fn all_sketches(searcher: &Searcher, inputs: &Inputs) -> Result<Vec<Arc<TableSketch>>, String> {
    inputs.lake.iter().map(|(id, _)| searcher.sketch_of(id).map_err(|e| format!("{id}: {e}"))).collect()
}

pub fn dir_bytes_and_files(dir: &Path) -> (u64, u64) {
    let (mut bytes, mut files) = (0, 0);
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&d) else { continue };
        for e in rd.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(e.path()),
                Ok(m) => {
                    bytes += m.len();
                    files += 1;
                }
                Err(_) => {}
            }
        }
    }
    (bytes, files)
}

fn apply_to_lake(lake: &Path, step: &ChurnStep) -> Result<(), String> {
    for (id, text) in step.rewrite.iter().chain(&step.add) {
        std::fs::write(lake.join(format!("{id}.csv")), text).map_err(|e| format!("write {id}.csv: {e}"))?;
    }
    for id in &step.remove {
        std::fs::remove_file(lake.join(format!("{id}.csv"))).map_err(|e| format!("remove {id}.csv: {e}"))?;
    }
    Ok(())
}

/// One update cycle's measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cycle {
    /// Start of the incremental re-ingest → first TCP reply that answers
    /// for a just-added table id.
    pub visible_s: f64,
    /// Worst reply latency on a background connection during the cycle.
    pub stall_ms: f64,
}

/// Apply `step` to the lake, then — while `conns − 1` connections keep
/// querying untouched ids — `remove` → incremental `ingest_dir` →
/// `searcher()` → `swap_searcher`, with one more connection polling for
/// the first added id until it answers.
#[allow(clippy::too_many_arguments)]
pub fn churn_cycle(
    catalog: &mut Catalog,
    handle: &ServerHandle,
    lake: &Path,
    step: &ChurnStep,
    background: &[String],
    conns: usize,
    mode: QueryMode,
    ops: &mut Ops,
) -> Result<Cycle, String> {
    apply_to_lake(lake, step)?;
    let addr = handle.addr();
    let probe = inputs::id_request(mode, &step.add[0].0);
    let stop = AtomicBool::new(false);
    let stop = &stop;
    let t0 = Instant::now();
    std::thread::scope(|scope| -> Result<Cycle, String> {
        let bg = (conns > 1).then(|| {
            scope.spawn(move || {
                client::closed_loop(addr, background, conns - 1, Duration::from_secs(3600), Some(stop), None)
            })
        });
        let prober = scope.spawn(move || -> Result<(f64, u64), String> {
            let mut conn = Conn::open(addr)?;
            let mut polls = 0u64;
            loop {
                let reply = conn.roundtrip(&probe)?;
                if !client::is_error(reply) {
                    return Ok((t0.elapsed().as_secs_f64(), polls));
                }
                // Before the swap the new id is unknown — a poll, not a
                // failure. Anything else is.
                if !client::is_unknown_table(reply) {
                    return Err(format!("probe got {reply}"));
                }
                if t0.elapsed() > Duration::from_secs(120) || stop.load(Ordering::Relaxed) {
                    return Err("update never became visible".into());
                }
                polls += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let update = (|| -> Result<(), String> {
            for id in &step.remove {
                let existed = catalog.remove(id).map_err(|e| format!("remove {id}: {e}"))?;
                ops.check(existed, || format!("removed id {id} was not in the catalog"));
            }
            let report = catalog
                .ingest_dir_with_threads(lake, conns)
                .map_err(|e| format!("re-ingest: {e}"))?;
            ops.check(
                report.failed.is_empty()
                    && report.added == step.add.len()
                    && report.updated == step.rewrite.len(),
                || {
                    format!(
                        "re-ingest added {} (want {}), updated {} (want {})",
                        report.added,
                        step.add.len(),
                        report.updated,
                        step.rewrite.len()
                    )
                },
            );
            let searcher = catalog.searcher().map_err(|e| format!("searcher: {e}"))?;
            handle.swap_searcher(searcher);
            Ok(())
        })();
        if update.is_err() {
            stop.store(true, Ordering::Relaxed);
        }
        let visible = prober.join().map_err(|_| "prober panicked".to_string());
        stop.store(true, Ordering::Relaxed);
        let window = bg.map(|h| h.join().unwrap_or_default());
        update?;
        let mut cycle = Cycle::default();
        if let Some(w) = window {
            ops.add(w.replies + w.failed, w.failed);
            cycle.stall_ms = w.latencies_us.last().copied().unwrap_or(0.0) / 1e3;
        }
        match visible.and_then(|v| v) {
            Ok((s, _polls)) => {
                ops.check(true, String::new);
                cycle.visible_s = s;
            }
            Err(e) => {
                ops.check(false, || e);
                cycle.visible_s = f64::NAN;
            }
        }
        Ok(cycle)
    })
}

/// After the last cycle: every added id answers and every removed id is
/// `unknown_table`.
pub fn final_checks(addr: SocketAddr, mode: QueryMode, added: &[String], removed: &[String], ops: &mut Ops) {
    let Ok(mut conn) = Conn::open(addr) else {
        ops.add((added.len() + removed.len()) as u64, (added.len() + removed.len()) as u64);
        return;
    };
    for id in added {
        let ok = matches!(conn.roundtrip(&inputs::id_request(mode, id)), Ok(r) if !client::is_error(r));
        ops.check(ok, || format!("added id {id} does not answer after the last cycle"));
    }
    for id in removed {
        let ok = matches!(conn.roundtrip(&inputs::id_request(mode, id)), Ok(r) if client::is_unknown_table(r));
        ops.check(ok, || format!("removed id {id} still answers after the last cycle"));
    }
}

/// The restart children's request file and the answers the parent's
/// snapshot gives for it.
pub fn restart_requests(
    root: &Path,
    searcher: &Searcher,
    inputs: &Inputs,
    workload: &Workload,
) -> Result<(PathBuf, Vec<String>), String> {
    let lines: Vec<String> = inputs.background_pool(workload);
    std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let path = root.join("restart-requests.jsonl");
    std::fs::write(&path, lines.join("\n")).map_err(|e| format!("write {}: {e}", path.display()))?;
    let mut expected = Vec::with_capacity(lines.len());
    for line in &lines {
        let req = ServeRequest::parse_line(line).map_err(|e| e.to_string())?;
        let resp = execute(searcher, &req).map_err(|e| format!("pre-restart answer: {e}"))?;
        let json = wire::response_json(&resp);
        expected.push(client::hits_of(&json).unwrap_or_default().to_string());
    }
    Ok((path, expected))
}

/// A run's figure for a time measured over in-run repetitions.
fn quiet(v: &[f64]) -> f64 {
    quiet_quartile(v, Better::Lower).unwrap_or(f64::NAN)
}

/// Everything a run prints beside the result line.
#[derive(Debug, Default)]
pub struct Info(pub Vec<(String, String)>);

impl Info {
    pub fn num(&mut self, key: &str, v: impl std::fmt::Display) {
        self.0.push((key.to_string(), v.to_string()));
    }
    pub fn text(&mut self, key: &str, v: &str) {
        self.0.push((key.to_string(), format!("\"{}\"", wire::escape_json(v))));
    }
    /// The in-run repetitions a metric was taken over.
    pub fn samples(&mut self, metric: &str, v: &[f64]) {
        let list: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
        self.0.push((format!("samples.{metric}"), format!("[{}]", list.join(","))));
    }
    pub fn json(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{\"info\":{{{}}}}}", fields.join(","))
    }
}

pub fn describe_inputs(info: &mut Info, args: &RunArgs, inputs: &Inputs, pool: &[String], conns: usize) {
    info.text("workload", args.workload.name);
    info.num("seed", args.seed);
    info.num("seconds", args.seconds);
    info.num("quick", args.quick);
    info.num("nproc", conns);
    info.text("data_fs", "checkout");
    info.num("tables", inputs.lake.len());
    info.num("csv_bytes", inputs.csv_bytes);
    info.text("lake_hash", &format!("{:016x}", inputs.lake_hash));
    let traffic = pool.iter().fold(0u64, |h, line| splitmix64(h ^ hash_str(line)));
    info.text("traffic_hash", &format!("{traffic:016x}"));
    info.num("sketch_cache_cap", SKETCH_CACHE_CAP);
}

/// Wall seconds per phase, printed so the workload sizes can be tuned.
struct Laps {
    last: Instant,
    text: Vec<String>,
}

impl Laps {
    fn mark(&mut self, phase: &str) {
        self.text.push(format!("{phase} {:.2}", self.last.elapsed().as_secs_f64()));
        self.last = Instant::now();
    }
}

/// The untraced run: every end-to-end metric.
pub fn measured(args: &RunArgs, info: &mut Info) -> Result<Outcome, String> {
    let w = args.workload;
    let scale: Scale = w.scale_for(args.quick);
    let conns = nproc();
    let mut ops = Ops::default();
    let root = DataRoot::create()?;
    let mut laps = Laps { last: Instant::now(), text: Vec::new() };

    let inputs = Inputs::generate(w, &scale, LAKE_SEED, args.seed);
    let pool = inputs.request_pool(w, scale.request_pool);
    describe_inputs(info, args, &inputs, &pool, conns);
    let tables = inputs.lake.len();
    let lake = root.fresh("lake");
    write_lake(&lake, &inputs.lake)?;
    let warmup = warmup_requests(args.quick);
    laps.mark("generate");

    // ---- set-up, several times; the last one keeps serving ------------
    // A set-up is a fresh ingest + cold index build + bind + warm-up: each
    // is one sample of `setup_s`, of the ingest wall and of the cold index
    // build.
    let set_up = |label: String, ops: &mut Ops| -> Result<[f64; 3], String> {
        let dir = root.fresh(&label);
        let t0 = Instant::now();
        let built = build_catalog(&dir, &lake, tables, w, conns, ops)?;
        with_server(built.searcher.clone(), |h| {
            warm_up(h.addr(), &pool, conns, warmup, ops);
            Ok(())
        })?;
        Ok([t0.elapsed().as_secs_f64(), built.ingest_s, built.index_s])
    };
    let budget = Duration::from_secs_f64(args.seconds * w.shares.set_up);
    let phase = Instant::now();
    let mut set_ups: Vec<[f64; 3]> = Vec::new();
    while set_ups.len() + 1 < scale.min_reps || phase.elapsed() < budget {
        set_ups.push(set_up(format!("setup{}", set_ups.len()), &mut ops)?);
    }
    let serving_dir = root.fresh("serving");
    let t0 = Instant::now();
    let Built { mut catalog, searcher, ingest_s, index_s } =
        build_catalog(&serving_dir, &lake, tables, w, conns, &mut ops)?;
    let mut m = Metrics::default();
    info.num("shards", catalog.shard_count());
    info.num("shard_resident_tables", if catalog.shard_count() > 0 { tables } else { 0 });
    with_server(searcher.clone(), |handle| {
        let addr = handle.addr();
        warm_up(addr, &pool, conns, warmup, &mut ops);
        set_ups.push([t0.elapsed().as_secs_f64(), ingest_s, index_s]);
        let column = |i: usize| -> Vec<f64> { set_ups.iter().map(|s| s[i]).collect() };
        let (setup_s, ingest_s, index_s) = (column(0), column(1), column(2));
        m.set("setup_s", quiet(&setup_s));
        m.set("ingest_tables_per_s", tables as f64 / quiet(&ingest_s));
        m.set("index_build_s", quiet(&index_s));
        info.samples("setup_s", &setup_s);
        info.samples("ingest_s", &ingest_s);
        info.samples("index_build_s", &index_s);
        laps.mark("setup");

        // ---- exact metrics, on the dataset as first ingested ------------
        let (disk_bytes, _) = dir_bytes_and_files(&serving_dir);
        m.set("disk_bytes_per_table", disk_bytes as f64 / tables as f64);
        let sketches = all_sketches(&searcher, &inputs)?;
        let reference = Reference::build(&sketches);
        drop(sketches);
        let quality =
            quality_pass(addr, &searcher, &inputs.quality_requests(w, &scale), &reference, &mut ops)?;
        drop(reference);
        m.set("recall_at_10", quality.recall_at_10);
        m.set("gold_f1_at_10", quality.gold_f1_at_10);
        if quality.recall_at_10.is_nan() || (!args.quick && quality.recall_at_10 < w.recall_floor) {
            eprintln!(
                "tsfm_benchmark: FAILED: recall_at_10 {} is under the workload's floor {}",
                quality.recall_at_10, w.recall_floor
            );
            ops.incorrect = true;
        }
        info.text("recall_by_mode", &format!("{:.3?}", quality.recall_by_mode));
        info.text("f1_by_mode", &format!("{:.3?}", quality.f1_by_mode));
        info.num("recall_samples", quality.recall_samples);
        info.num("gold_samples", quality.gold_samples);
        laps.mark("quality");

        // ---- serve windows ----------------------------------------------
        let window = Duration::from_secs_f64(
            (args.seconds * w.shares.serve / SERVE_WINDOWS as f64).max(scale.min_window_s),
        );
        // One short window is discarded first: the quality pass used one
        // connection, so the second worker and client start cold.
        let discarded = client::closed_loop(addr, &pool, conns, window / 4, None, None);
        ops.add(discarded.replies + discarded.failed, discarded.failed);
        let windows: Vec<Window> =
            (0..SERVE_WINDOWS).map(|_| client::closed_loop(addr, &pool, conns, window, None, None)).collect();
        for win in &windows {
            ops.add(win.replies + win.failed, win.failed);
        }
        let qps: Vec<f64> = windows.iter().map(Window::qps).collect();
        let p50: Vec<f64> = windows.iter().filter_map(Window::p50_us).collect();
        let mut p99: Vec<f64> = windows.iter().filter_map(Window::p99_us).collect();
        if p99.len() < windows.len() {
            // Too few samples beyond p99 in some window (toy scale, or a
            // budget far under the declared run length): report the
            // largest latency seen instead of a percentile the sample
            // cannot support, and say so.
            p99 = windows.iter().filter_map(|w| w.latencies_us.last().copied()).collect();
            info.num("serve_p99_supported", false);
        }
        m.set("serve_qps", quiet_quartile(&qps, Better::Higher).unwrap_or(f64::NAN));
        m.set("serve_p50_us", quiet(&p50));
        m.set("serve_p99_us", quiet(&p99));
        info.samples("serve_qps", &qps);
        info.samples("serve_p50_us", &p50);
        info.samples("serve_p99_us", &p99);
        info.num("window_s", window.as_secs_f64());
        info.num("p99_samples_per_window", windows.iter().map(|w| w.replies).min().unwrap_or(0));
        laps.mark("serve");

        // ---- restarts ----------------------------------------------------
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let (requests, expected) = restart_requests(&root.fresh("restart"), &searcher, &inputs, w)?;
        let budget = Duration::from_secs_f64(args.seconds * w.shares.restart);
        let phase = Instant::now();
        let mut restarts: Vec<Restart> = Vec::new();
        let mut broken = 0;
        while restarts.len() < scale.min_restarts || phase.elapsed() < budget {
            match child::restart(&exe, &serving_dir, w.lazy, &requests) {
                Ok(r) => {
                    ops.check(r.answers == expected, || {
                        "restart child's answers differ from the parent's pre-restart answers".to_string()
                    });
                    restarts.push(r);
                }
                Err(e) => {
                    ops.check(false, || e);
                    broken += 1;
                    if broken > 3 {
                        return Err("restart children keep failing".into());
                    }
                }
            }
        }
        let to_answer: Vec<f64> = restarts.iter().map(|r| r.to_answer_ms).collect();
        m.set("restart_to_answer_ms", quiet(&to_answer));
        m.set(
            "peak_rss_mb",
            median(&restarts.iter().map(|r| r.peak_rss_kb as f64 / 1024.0).collect::<Vec<_>>())
                .unwrap_or(f64::NAN),
        );
        info.samples("restart_to_answer_ms", &to_answer);
        laps.mark("restart");

        // ---- update cycles beside reads -----------------------------------
        let background = inputs.background_pool(w);
        let budget = Duration::from_secs_f64(args.seconds * w.shares.churn);
        let phase = Instant::now();
        let mut alive = inputs.churnable.clone();
        let (mut cycles, mut added, mut removed) = (Vec::new(), Vec::new(), Vec::new());
        while cycles.len() < scale.min_reps || phase.elapsed() < budget {
            let step = inputs.churn_step(cycles.len(), &mut alive);
            let cycle =
                churn_cycle(&mut catalog, handle, &lake, &step, &background, conns, w.modes[0], &mut ops)?;
            added.extend(step.add.into_iter().map(|(id, _)| id));
            removed.extend(step.remove);
            cycles.push(cycle.visible_s);
        }
        m.set("update_visible_s", quiet(&cycles));
        final_checks(addr, w.modes[0], &added, &removed, &mut ops);
        info.samples("update_visible_s", &cycles);
        laps.mark("churn");
        Ok(())
    })?;
    info.text("phase_s", &laps.text.join(", "));
    if w.source == QuerySource::InlineCsv {
        info.num("inline_request_bytes", pool.iter().map(String::len).sum::<usize>() / pool.len().max(1));
    }
    Ok(Outcome {
        correct: ops.failed == 0 && !ops.incorrect,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics: m,
    })
}
