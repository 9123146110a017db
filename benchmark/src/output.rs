//! Metric names and the result line.
//!
//! The names here are the ones `BENCHMARK.json` declares (a test checks
//! the two agree exactly). A run prints, as the last line of stdout, one
//! JSON object with exactly the keys `correct`, `attempted`, `failed` and
//! `metrics`; the metrics are every end-to-end metric of an untraced run,
//! or every per-layer metric of a traced one.

use std::collections::BTreeMap;

/// `(name, unit)`.
pub type MetricDef = (&'static str, &'static str);

pub const END_TO_END: [MetricDef; 12] = [
    ("setup_s", "s"),
    ("ingest_tables_per_s", "tables/s"),
    ("index_build_s", "s"),
    ("update_visible_s", "s"),
    ("restart_to_answer_ms", "ms"),
    ("serve_qps", "1/s"),
    ("serve_p50_us", "us"),
    ("serve_p99_us", "us"),
    ("recall_at_10", "ratio"),
    ("gold_f1_at_10", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("disk_bytes_per_table", "bytes"),
];

pub const PER_LAYER: [MetricDef; 59] = [
    ("table.csv_parse_us_per_table", "us"),
    ("table.csv_bytes_per_table", "bytes"),
    ("sketch.build_us_per_table", "us"),
    ("sketch.build_us_per_column", "us"),
    ("sketch.columns_per_table", "count"),
    ("store.catalog.add_record_us_per_table", "us"),
    ("store.catalog.commit_ms", "ms"),
    ("store.catalog.compact_ms", "ms"),
    ("store.catalog.open_ms", "ms"),
    ("store.catalog.load_records_ms", "ms"),
    ("store.catalog.index_cache_load_ms", "ms"),
    ("store.catalog.index_cache_write_ms", "ms"),
    ("store.catalog.snapshot_build_ms", "ms"),
    ("store.catalog.files_per_table", "count"),
    ("store.catalog.index_cache_bytes", "bytes"),
    ("store.catalog.index_rebuilds", "count"),
    ("store.catalog.index_cache_hits", "count"),
    ("store.catalog.compactions", "count"),
    ("store.durable.bytes_written_per_table", "bytes"),
    ("store.durable.segments_written_per_table", "count"),
    ("store.durable.disk_bytes_per_csv_byte", "ratio"),
    ("store.shard.arena_read_us", "us"),
    ("store.shard.sketch_of_us", "us"),
    ("store.shard.cache_hit_ratio", "ratio"),
    ("store.shard.arena_bytes", "bytes"),
    ("store.shard.count", "count"),
    ("search.hnsw_build_ms", "ms"),
    ("search.hnsw_insert_us_per_column", "us"),
    ("search.hnsw_nodes", "count"),
    ("search.hnsw_search_us", "us"),
    ("search.rank_us", "us"),
    ("search.lsh_us", "us"),
    ("search.brute_force_us_per_query", "us"),
    ("search.recall_at_10.join", "ratio"),
    ("search.recall_at_10.union", "ratio"),
    ("search.recall_at_10.subset", "ratio"),
    ("store.engine.search_us.join", "us"),
    ("store.engine.search_us.union", "us"),
    ("store.engine.search_us.subset", "us"),
    ("store.engine.features_us", "us"),
    ("store.engine.other_us", "us"),
    ("store.wire.parse_us", "us"),
    ("store.wire.serialize_us", "us"),
    ("store.wire.request_bytes", "bytes"),
    ("store.wire.reply_bytes", "bytes"),
    ("store.serve.execute_us", "us"),
    ("store.serve.transport_us", "us"),
    ("store.serve.errors", "count"),
    ("store.serve.shed", "count"),
    ("store.serve.swap_stall_ms", "ms"),
    ("store.serve.open_loop_p50_us", "us"),
    ("store.serve.open_loop_p99_us", "us"),
    ("store.serve.open_loop_late_ms", "ms"),
    ("bench.table_sketch_share_of_request", "ratio"),
    ("bench.ingest_stage_sum_ratio", "ratio"),
    ("bench.searcher_stage_sum_ratio", "ratio"),
    ("bench.execute_stage_sum_ratio", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.run_s", "s"),
];

/// Metric values collected during a run, by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: exactly the metrics of `defs`, in that order,
    /// each with all its digits. A metric that was never measured or is
    /// not finite is an error — the contract has no way to say "missing".
    pub fn result_json(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(defs.len());
        for &(name, unit) in defs {
            let v = self.metrics.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            fields.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            fields.join(",")
        ))
    }
}

/// Operations attempted and failed, with the reasons for stderr. Every
/// request, ingest, index build, probe, comparison and restart counts; an
/// error reply, a timeout, or an answer that differs from the reference
/// is a failure — counted, never a panic.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// Set by a check whose failure makes the whole run incorrect even
    /// though no single operation failed (e.g. recall under its floor).
    pub incorrect: bool,
}

impl Ops {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Count one operation; `why` is printed when it failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("tsfm_benchmark: FAILED: {}", why());
            }
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsfm_store::wire::{parse_json, Json};

    fn outcome(defs: &[MetricDef]) -> Outcome {
        let mut metrics = Metrics::default();
        for (i, &(name, _)) in defs.iter().enumerate() {
            metrics.set(name, 1.0 + i as f64 / 7.0);
        }
        Outcome { correct: true, attempted: 12, failed: 0, metrics }
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Json::Arr(items)) = json.get(section) else { panic!("{section} missing") };
        items
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn result_line_round_trips_and_names_exactly_the_declared_metrics() {
        for (section, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let line = outcome(defs).result_json(defs).unwrap();
            let json = parse_json(&line).unwrap();
            let Json::Obj(top) = &json else { panic!("not an object") };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
            let Some(Json::Obj(metrics)) = json.get("metrics") else { panic!("metrics") };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    assert!(v.get("value").and_then(Json::as_f64).is_some(), "{k}");
                    (k.clone(), v.get("unit").and_then(Json::as_str).unwrap().to_string())
                })
                .collect();
            assert_eq!(printed, declared(section), "{section} vs BENCHMARK.json");
        }
    }

    #[test]
    fn workloads_match_the_declared_ones() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Json::Arr(items)) = json.get("workloads") else { panic!("workloads") };
        let declared: Vec<(&str, &str)> = items
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> =
            crate::workload::WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn an_unmeasured_or_non_finite_metric_is_an_error() {
        let mut o = outcome(&END_TO_END);
        o.metrics.set("serve_qps", f64::NAN);
        assert!(o.result_json(&END_TO_END).unwrap_err().contains("serve_qps"));
        let o = Outcome { metrics: Metrics::default(), ..o };
        assert!(o.result_json(&END_TO_END).unwrap_err().contains("setup_s"));
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for &(n, u) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(n), "{n}");
            assert!(ok_unit(u), "{u}");
            assert!(seen.insert(n), "{n} used twice");
        }
    }
}
