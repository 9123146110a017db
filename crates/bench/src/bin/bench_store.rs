//! `bench_store` — machine-readable store benchmarks.
//!
//! Unlike the Criterion benches (`cargo bench`), this binary runs the three
//! store hot paths once at a fixed scale and writes the headline numbers to
//! a JSON file, so the perf trajectory can be tracked across PRs:
//!
//! ```text
//! bench_store [--n N] [--queries Q] [--threads T] [--runs R] [--out PATH]
//!             [--quick] [--scale N] [--scale-only] [--open-gate-ms MS]
//! ```
//!
//! * `--n`        corpus size in tables (default 10 000)
//! * `--queries`  number of query tables for the latency/batch sections
//!   (default 64)
//! * `--threads`  worker threads for ingest and batch search (default: the
//!   host's available parallelism)
//! * `--runs`     repeat every measured section R times and report the
//!   median (default 1; use 3+ on noisy shared hosts so the tracked
//!   artifact isn't one unlucky sample)
//! * `--out`      output path (default `BENCH_store.json`)
//! * `--quick`    CI smoke mode: `--n 200 --queries 8`
//! * `--scale N`  also measure the open-time/ingest curve at corpus sizes
//!   1 000, 10 000, … up to N (each step: fresh ingest, commit —
//!   which folds the corpus into shards — index build, then cold lazy
//!   and eager reopens in child processes so RSS is per-mode honest)
//! * `--scale-only`    run only the `--scale` curve (headline open keys
//!   come from the largest step)
//! * `--open-gate-ms`  exit non-zero if any measured *lazy* open exceeds
//!   this many milliseconds — the CI regression gate for O(1) open
//!
//! Measured sections (all join-mode, k = 10):
//!
//! * **sketch** — pure sketching throughput, no persistence;
//! * **ingest** — fresh-catalog ingest (sketch + segment write + manifest);
//! * **index** — cold ANN index build over the ingested corpus;
//! * **query** — serial single-query latency (p50/p95 µs);
//! * **batch** — `search_batch` fan-out throughput vs. the serial loop;
//! * **tracing** — the serial query loop with `tsfm_obs` tracing disabled
//!   (the shipping default: one relaxed atomic load per span site) vs.
//!   enabled, so the overhead of turning tracing on is a measured row
//!   rather than an assertion. All other sections run with tracing off;
//! * **open** — the catalog is compacted into shards, dropped, and
//!   reopened cold in a child process per mode, timing the storage
//!   layer: `Catalog::open` plus either one positioned sketch read
//!   (lazy — root manifest, one shard's offset index, one payload) or
//!   `load_all_records` (eager — every sketch deserialized, the
//!   pre-shard behavior). Each child records its own RSS, so memory is
//!   per-mode honest. The lazy number is the tentpole: it must stay
//!   flat as tables grow because it does O(shards), not O(tables),
//!   work. ANN-graph construction is mode-independent and tracked
//!   separately as `index_build_ms`.
//!
//! The emitted JSON carries a `meta` object (schema version, host core
//! count, git commit) so numbers from different hosts aren't silently
//! compared, and is validated by re-parsing it with the store's own
//! `wire::parse_json` before the process exits, so CI can trust the file.

use std::path::{Path, PathBuf};
use std::time::Instant;
use tsfm_lake::{gen_pretrain_corpus, World, WorldConfig};
use tsfm_sketch::{SketchConfig, TableSketch};
use tsfm_store::{wire, Catalog, DiscoveryRequest, QueryMode, SnapshotMode};
use tsfm_table::hash::hash_str;
use tsfm_table::Table;

struct Args {
    n: usize,
    queries: usize,
    threads: usize,
    runs: usize,
    out: PathBuf,
    scale: Option<usize>,
    scale_only: bool,
    open_gate_ms: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        n: 10_000,
        queries: 64,
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        runs: 1,
        out: PathBuf::from("BENCH_store.json"),
        scale: None,
        scale_only: false,
        open_gate_ms: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--n" => {
                let v = it.next().ok_or("--n needs a value")?;
                args.n = v.parse().map_err(|_| format!("invalid --n {v:?}"))?;
            }
            "--queries" => {
                let v = it.next().ok_or("--queries needs a value")?;
                args.queries = v.parse().map_err(|_| format!("invalid --queries {v:?}"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = v.parse().map_err(|_| format!("invalid --threads {v:?}"))?;
            }
            "--runs" => {
                let v = it.next().ok_or("--runs needs a value")?;
                args.runs = v.parse().map_err(|_| format!("invalid --runs {v:?}"))?;
            }
            "--out" => {
                args.out = PathBuf::from(it.next().ok_or("--out needs a value")?);
            }
            "--quick" => {
                args.n = 200;
                args.queries = 8;
            }
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                args.scale = Some(v.parse().map_err(|_| format!("invalid --scale {v:?}"))?);
            }
            "--scale-only" => args.scale_only = true,
            "--open-gate-ms" => {
                let v = it.next().ok_or("--open-gate-ms needs a value")?;
                args.open_gate_ms =
                    Some(v.parse().map_err(|_| format!("invalid --open-gate-ms {v:?}"))?);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.n == 0 || args.queries == 0 || args.runs == 0 {
        return Err("--n, --queries, and --runs must be >= 1".into());
    }
    if args.scale_only && args.scale.is_none() {
        return Err("--scale-only needs --scale".into());
    }
    if args.scale == Some(0) {
        return Err("--scale must be >= 1".into());
    }
    Ok(args)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsfm_bench_store_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Resident set size of this process in MiB (`VmRSS` from
/// `/proc/self/status`); 0.0 where the proc filesystem is unavailable.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cold catalog open measured in *this* process — the `--measure-open`
/// child entry point, so each mode's RSS reflects only what that mode
/// actually pages in.
///
/// * `lazy` — `Catalog::open` plus one sketch fetched by positioned
///   arena read: the sharded open path (root manifest + one shard's
///   offset index + one payload), O(shards) work regardless of table
///   count.
/// * `eager` — `Catalog::open` plus `load_all_records`: the pre-shard
///   behavior of deserializing every sketch into the heap, O(tables).
///
/// Both end with the probe record in hand, so the numbers compare the
/// same outcome (a table served from a cold store). The ANN-graph load
/// is deliberately *not* in this window — it is mode-independent and
/// already tracked by `index_build_ms`.
fn measure_open(dir: &str, mode: SnapshotMode, probe_id: &str) -> Result<(), String> {
    let t0 = Instant::now();
    let cat = Catalog::open(dir).map_err(|e| e.to_string())?;
    let rec = match mode {
        SnapshotMode::Eager => {
            let records = cat.load_all_records().map_err(|e| e.to_string())?;
            records.into_iter().find(|r| r.table_id() == probe_id)
        }
        _ => cat.get(probe_id).map_err(|e| e.to_string())?,
    };
    if rec.is_none() {
        return Err(format!("probe table {probe_id:?} missing from {dir}"));
    }
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("{{\"open_ms\":{open_ms:.2},\"rss_mb\":{:.1}}}", rss_mb());
    Ok(())
}

/// Spawn this binary as a `--measure-open` child and parse its one-line
/// JSON result: `(open_ms, rss_mb)`.
fn spawn_measure_open(dir: &Path, mode: &str, probe_id: &str) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--measure-open", mode])
        .arg(dir)
        .arg(probe_id)
        .output()
        .map_err(|e| format!("spawning open-measure child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "open-measure child ({mode}) failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("open-measure child printed nothing")?;
    let v = wire::parse_json(line).map_err(|e| format!("open-measure child JSON: {e}"))?;
    let f = |key: &str| {
        v.get(key)
            .and_then(wire::Json::as_f64)
            .ok_or_else(|| format!("open-measure child JSON missing {key:?}"))
    };
    Ok((f("open_ms")?, f("rss_mb")?))
}

/// Cold lazy + eager reopen of a committed catalog, each in its own child
/// process. Returns `(open_ms_lazy, rss_mb_lazy, open_ms_eager,
/// rss_mb_eager)`.
fn measure_reopens(dir: &Path, probe_id: &str) -> Result<(f64, f64, f64, f64), String> {
    let (lazy_ms, lazy_rss) = spawn_measure_open(dir, "lazy", probe_id)?;
    let (eager_ms, eager_rss) = spawn_measure_open(dir, "eager", probe_id)?;
    Ok((lazy_ms, lazy_rss, eager_ms, eager_rss))
}

/// One row of the `--scale` curve.
struct ScaleRow {
    n: usize,
    ingest_tables_per_s: f64,
    commit_ms: f64,
    index_build_ms: f64,
    shards: usize,
    open_ms_lazy: f64,
    rss_mb_lazy: f64,
    open_ms_eager: f64,
    rss_mb_eager: f64,
}

/// Corpus sizes for the curve: 1 000 · 10 000 · … capped at (and always
/// including) `top`.
fn scale_steps(top: usize) -> Vec<usize> {
    let mut steps: Vec<usize> = std::iter::successors(Some(1_000usize), |n| {
        n.checked_mul(10).filter(|&n| n < top)
    })
    .filter(|&n| n < top)
    .collect();
    steps.push(top);
    steps
}

fn run_scale_step(world: &World, n: usize, threads: usize) -> Result<ScaleRow, String> {
    eprintln!("bench_store[scale]: {n} tables ...");
    let tables: Vec<Table> = gen_pretrain_corpus(world, n, 23);
    let probe_id = tables[0].id.clone();
    let hashes: Vec<u64> = tables.iter().map(|t| hash_str(&t.id)).collect();
    let dir = fresh_dir(&format!("scale_{n}"));
    let mut cat = Catalog::open(&dir).map_err(|e| e.to_string())?;

    let t0 = Instant::now();
    cat.ingest_tables(&tables, &hashes, threads).map_err(|e| e.to_string())?;
    let ingest_tables_per_s = n as f64 / t0.elapsed().as_secs_f64();
    drop(tables);

    // A catalog's first commit durably folds everything into shards.
    let t0 = Instant::now();
    cat.commit().map_err(|e| e.to_string())?;
    let commit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let shards = cat.shard_count();

    // One index build so the reopens below measure open, not construction.
    let t0 = Instant::now();
    cat.searcher().map_err(|e| e.to_string())?;
    let index_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(cat);

    let (open_ms_lazy, rss_mb_lazy, open_ms_eager, rss_mb_eager) =
        measure_reopens(&dir, &probe_id)?;
    eprintln!(
        "bench_store[scale]: {n:>7} tables  ingest {ingest_tables_per_s:>7.0}/s  \
         commit {commit_ms:>8.0} ms  index {index_build_ms:>8.0} ms  {shards:>3} shard(s)  \
         open lazy {open_ms_lazy:>7.1} ms ({rss_mb_lazy:.0} MiB) / \
         eager {open_ms_eager:>7.1} ms ({rss_mb_eager:.0} MiB)"
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(ScaleRow {
        n,
        ingest_tables_per_s,
        commit_ms,
        index_build_ms,
        shards,
        open_ms_lazy,
        rss_mb_lazy,
        open_ms_eager,
        rss_mb_eager,
    })
}

fn main() -> Result<(), String> {
    // Child mode: `bench_store --measure-open <lazy|eager> <dir> <probe-id>`.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "--measure-open") {
        let [_, mode, dir, probe] = &argv[..] else {
            return Err("--measure-open needs <lazy|eager> <dir> <probe-id>".into());
        };
        let mode = match mode.as_str() {
            "lazy" => SnapshotMode::Lazy,
            "eager" => SnapshotMode::Eager,
            other => return Err(format!("unknown snapshot mode {other:?}")),
        };
        return measure_open(dir, mode, probe);
    }

    let args = parse_args()?;
    let n = args.n;
    let world = World::generate(WorldConfig::default());
    let req = DiscoveryRequest::builder(QueryMode::Join).k(10).build().map_err(|e| e.to_string())?;

    let mut m_sketch = Vec::new();
    let mut m_ingest = Vec::new();
    let mut m_index = Vec::new();
    let mut m_p50 = Vec::new();
    let mut m_p95 = Vec::new();
    let mut m_serial = Vec::new();
    let mut m_batch = Vec::new();
    let mut m_trace_off = Vec::new();
    let mut m_trace_on = Vec::new();
    let mut m_open_lazy = Vec::new();
    let mut m_open_eager = Vec::new();
    let mut m_rss_lazy = Vec::new();
    let mut m_rss_eager = Vec::new();

    if !args.scale_only {
        eprintln!("bench_store: generating {n}-table corpus ...");
        let tables: Vec<Table> = gen_pretrain_corpus(&world, n, 17);
        let hashes: Vec<u64> = tables.iter().map(|t| hash_str(&t.id)).collect();
        let cfg = SketchConfig::default();

        for run in 0..args.runs {
            // Pure sketching throughput (no persistence).
            let t0 = Instant::now();
            let mut cols = 0usize;
            for t in &tables {
                cols += TableSketch::build(t, &cfg).num_cols();
            }
            let sketch_rate = n as f64 / t0.elapsed().as_secs_f64();
            m_sketch.push(sketch_rate);
            eprintln!("bench_store[{run}]: sketch  {sketch_rate:>9.0} tables/s ({cols} columns)");

            // Fresh-catalog ingest throughput.
            let dir = fresh_dir("ingest");
            let t0 = Instant::now();
            let mut cat = Catalog::open(&dir).map_err(|e| e.to_string())?;
            let report =
                cat.ingest_tables(&tables, &hashes, args.threads).map_err(|e| e.to_string())?;
            cat.commit().map_err(|e| e.to_string())?;
            let ingest_rate = n as f64 / t0.elapsed().as_secs_f64();
            m_ingest.push(ingest_rate);
            assert_eq!(report.added, n, "every table is new in a fresh catalog");
            eprintln!(
                "bench_store[{run}]: ingest  {ingest_rate:>9.0} tables/s over {} thread(s)",
                args.threads
            );

            // Cold ANN index build (the first searcher() call).
            let t0 = Instant::now();
            let searcher = cat.searcher().map_err(|e| e.to_string())?;
            let index_build_ms = t0.elapsed().as_secs_f64() * 1e3;
            m_index.push(index_build_ms);
            eprintln!("bench_store[{run}]: index   {index_build_ms:>9.1} ms cold build");

            // Serial query latency.
            let sketches: Vec<TableSketch> =
                tables.iter().take(args.queries).map(|t| searcher.sketch(t)).collect();
            let mut lat_us: Vec<f64> = Vec::with_capacity(sketches.len());
            let serial_t0 = Instant::now();
            for s in &sketches {
                let t0 = Instant::now();
                searcher.search_sketch(s, &req).map_err(|e| e.to_string())?;
                lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            let serial_secs = serial_t0.elapsed().as_secs_f64();
            lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];
            m_p50.push(pct(0.5));
            m_p95.push(pct(0.95));
            let serial_rate = sketches.len() as f64 / serial_secs;
            m_serial.push(serial_rate);
            eprintln!(
                "bench_store[{run}]: query   p50 {:>7.0} µs, p95 {:>7.0} µs",
                pct(0.5),
                pct(0.95)
            );

            // Batch fan-out throughput over the same queries.
            let t0 = Instant::now();
            let responses = searcher.search_batch(&sketches, &req).map_err(|e| e.to_string())?;
            let batch_rate = responses.len() as f64 / t0.elapsed().as_secs_f64();
            m_batch.push(batch_rate);
            eprintln!(
                "bench_store[{run}]: batch   {batch_rate:>9.0} queries/s ({serial_rate:.0} serial, {:.2}x)",
                batch_rate / serial_rate
            );

            // Tracing overhead: the same serial loop, once with tracing off
            // (re-measured so both sides share warm caches) and once with it
            // on. Several passes so the window isn't a handful of queries.
            let passes = (256 / sketches.len()).max(1);
            let timed_loop = |searcher: &tsfm_store::Searcher| -> Result<f64, String> {
                let t0 = Instant::now();
                for _ in 0..passes {
                    for s in &sketches {
                        searcher.search_sketch(s, &req).map_err(|e| e.to_string())?;
                    }
                }
                Ok((passes * sketches.len()) as f64 / t0.elapsed().as_secs_f64())
            };
            let off_rate = timed_loop(&searcher)?;
            tsfm_obs::trace::enable();
            let on_rate = timed_loop(&searcher)?;
            tsfm_obs::trace::disable();
            let spans = tsfm_obs::trace::drain().len();
            m_trace_off.push(off_rate);
            m_trace_on.push(on_rate);
            eprintln!(
                "bench_store[{run}]: tracing {off_rate:>9.0} q/s off, {on_rate:>9.0} q/s on \
                 ({:+.2}% when enabled, {spans} spans)",
                (off_rate - on_rate) / off_rate * 100.0
            );

            // Cold-open cost per snapshot mode: fold into shards, drop
            // everything, and reopen in child processes.
            drop(searcher);
            cat.compact().map_err(|e| e.to_string())?;
            drop(cat);
            let (lazy_ms, lazy_rss, eager_ms, eager_rss) = measure_reopens(&dir, &tables[0].id)?;
            m_open_lazy.push(lazy_ms);
            m_rss_lazy.push(lazy_rss);
            m_open_eager.push(eager_ms);
            m_rss_eager.push(eager_rss);
            eprintln!(
                "bench_store[{run}]: open    lazy {lazy_ms:>7.1} ms ({lazy_rss:.0} MiB), \
                 eager {eager_ms:>7.1} ms ({eager_rss:.0} MiB)"
            );

            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    let scale_rows = match args.scale {
        Some(top) => {
            let mut rows = Vec::new();
            for step in scale_steps(top) {
                rows.push(run_scale_step(&world, step, args.threads)?);
            }
            rows
        }
        None => Vec::new(),
    };

    // Headline open numbers: medians over the main runs, or (scale-only)
    // the largest curve step.
    let (open_ms_lazy, rss_mb_lazy, open_ms_eager, rss_mb_eager) = if args.scale_only {
        let last = scale_rows.last().ok_or("--scale produced no rows")?;
        (last.open_ms_lazy, last.rss_mb_lazy, last.open_ms_eager, last.rss_mb_eager)
    } else {
        (
            median(&mut m_open_lazy),
            median(&mut m_rss_lazy),
            median(&mut m_open_eager),
            median(&mut m_rss_eager),
        )
    };

    let scale_json: Vec<String> = scale_rows
        .iter()
        .map(|r| {
            format!(
                "{{\"n\":{},\"ingest_tables_per_s\":{:.1},\"commit_ms\":{:.1},\
                 \"index_build_ms\":{:.1},\"shards\":{},\"open_ms_lazy\":{:.2},\
                 \"rss_mb_lazy\":{:.1},\"open_ms_eager\":{:.2},\"rss_mb_eager\":{:.1}}}",
                r.n,
                r.ingest_tables_per_s,
                r.commit_ms,
                r.index_build_ms,
                r.shards,
                r.open_ms_lazy,
                r.rss_mb_lazy,
                r.open_ms_eager,
                r.rss_mb_eager
            )
        })
        .collect();

    let main_sections = if args.scale_only {
        String::new()
    } else {
        let trace_off = median(&mut m_trace_off);
        let trace_on = median(&mut m_trace_on);
        format!(
            "\"sketch_tables_per_s\":{:.1},\"ingest_tables_per_s\":{:.1},\
             \"index_build_ms\":{:.1},\"query_p50_us\":{:.1},\"query_p95_us\":{:.1},\
             \"serial_batch_queries_per_s\":{:.1},\"batch_queries_per_s\":{:.1},\
             \"tracing\":{{\"off_queries_per_s\":{trace_off:.1},\
             \"on_queries_per_s\":{trace_on:.1},\
             \"on_overhead_pct\":{:.2}}},",
            median(&mut m_sketch),
            median(&mut m_ingest),
            median(&mut m_index),
            median(&mut m_p50),
            median(&mut m_p95),
            median(&mut m_serial),
            median(&mut m_batch),
            (trace_off - trace_on) / trace_off * 100.0,
        )
    };
    let json = format!(
        "{{\"meta\":{},\"n\":{n},\"queries\":{},\"threads\":{},\"runs\":{},\
         {main_sections}\"open_ms_lazy\":{open_ms_lazy:.2},\"rss_mb_lazy\":{rss_mb_lazy:.1},\
         \"open_ms_eager\":{open_ms_eager:.2},\"rss_mb_eager\":{rss_mb_eager:.1},\
         \"scale_curve\":[{}]}}",
        tsfm_bench::bench_meta_json(),
        args.queries,
        args.threads,
        args.runs,
        scale_json.join(","),
    );
    // The file must be trustworthy for CI and cross-PR tracking: re-parse
    // it with the store's own JSON parser before declaring success.
    wire::parse_json(&json).map_err(|e| format!("emitted invalid JSON: {e}"))?;
    // Durable commit (tmp + fsync + rename): a result file is either the
    // previous complete run or this one, never a torn mix CI might parse.
    tsfm_store::durable::commit_file(&args.out, format!("{json}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    println!("{json}");
    eprintln!("bench_store: wrote {}", args.out.display());

    // The O(1)-open regression gate, checked over every lazy open this
    // invocation measured (headline and curve alike).
    if let Some(gate) = args.open_gate_ms {
        let worst = scale_rows
            .iter()
            .map(|r| r.open_ms_lazy)
            .chain(std::iter::once(open_ms_lazy))
            .fold(0.0f64, f64::max);
        if worst > gate {
            return Err(format!(
                "lazy open took {worst:.1} ms, over the --open-gate-ms {gate} budget"
            ));
        }
        eprintln!("bench_store: lazy open gate ok ({worst:.1} ms <= {gate} ms)");
    }
    Ok(())
}
