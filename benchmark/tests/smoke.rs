//! `--quick` smoke: every workload end to end at toy scale, untraced and
//! traced, through the real binary (restart children and all). Seconds,
//! not a measurement — it checks that a run is correct, prints exactly
//! the declared metrics, and that the exact metrics repeat to the last
//! digit whatever the seed.

use std::process::Command;
use tsfm_benchmark::output::{MetricDef, END_TO_END, PER_LAYER};
use tsfm_benchmark::workload::WORKLOADS;
use tsfm_store::wire::{parse_json, Json};

struct Run {
    info: Json,
    result: Json,
}

impl Run {
    fn metric(&self, name: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name} missing"))
    }
    fn info_str(&self, key: &str) -> String {
        self.info.get("info").and_then(|i| i.get(key)).and_then(Json::as_str).unwrap_or_default().to_string()
    }
}

fn quick(workload: &str, seed: u64, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_tsfm_benchmark"))
        .args(["run", "--quick", "--workload", workload, "--seconds", "1"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("spawn tsfm_benchmark");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} trace={trace}: {}\n{stderr}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = parse_json(lines.next().expect("result line")).expect("result JSON");
    let info = parse_json(lines.next().expect("info line")).expect("info JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{workload}: {stderr}");
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{workload}: {stderr}");
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    Run { info, result }
}

fn assert_names(run: &Run, defs: &[MetricDef]) {
    let Some(Json::Obj(metrics)) = run.result.get("metrics") else { panic!("metrics") };
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let declared: Vec<&str> = defs.iter().map(|d| d.0).collect();
    assert_eq!(printed, declared);
}

#[test]
fn every_workload_runs_clean_untraced() {
    for w in &WORKLOADS {
        let run = quick(w.name, 1, 0);
        assert_names(&run, &END_TO_END);
        for &(name, _) in &END_TO_END {
            assert!(run.metric(name) > 0.0, "{}: {name} must never be 0", w.name);
        }
    }
}

#[test]
fn every_workload_runs_clean_traced() {
    for w in &WORKLOADS {
        let run = quick(w.name, 1, 1);
        assert_names(&run, &PER_LAYER);
        // An eager snapshot never consults the shard cache: no miss.
        if !w.lazy {
            assert_eq!(run.metric("store.shard.cache_hit_ratio"), 1.0, "{}", w.name);
        }
        assert!(run.metric("store.shard.count") >= 1.0, "the replay catalog is compacted");
        let trace = run.info_str("trace_file");
        let json = parse_json(&std::fs::read_to_string(&trace).expect("trace file")).expect("trace JSON");
        assert!(matches!(json.get("traceEvents"), Some(Json::Arr(events)) if !events.is_empty()));
        let _ = std::fs::remove_file(trace);
    }
}

#[test]
fn a_seed_repeats_its_traffic_and_every_seed_measures_the_same_dataset() {
    let w = "serve_inline_csv";
    let (a, b, c) = (quick(w, 7, 0), quick(w, 7, 0), quick(w, 8, 0));
    assert_eq!(a.info_str("traffic_hash"), b.info_str("traffic_hash"));
    assert_ne!(a.info_str("traffic_hash"), c.info_str("traffic_hash"));
    for other in [&b, &c] {
        assert_eq!(a.info_str("lake_hash"), other.info_str("lake_hash"));
        for exact in ["recall_at_10", "gold_f1_at_10", "disk_bytes_per_table"] {
            assert_eq!(a.metric(exact), other.metric(exact), "{exact} must repeat to the last digit");
        }
    }
}
