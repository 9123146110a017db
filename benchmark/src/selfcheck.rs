//! `selfcheck`: an A/A run. Two interleaved sets of runs of the *same*
//! binary — per workload A, B, A, B, …, each set over seeds 1..=runs —
//! and, per workload × end-to-end metric, both medians, their relative
//! difference, each set's spread ((Q3 − Q1) / median) and the metric's
//! bound from `BENCHMARK.json`. A difference past the bound — or, with
//! the acceptance protocol's ten runs per set, a spread past it (`setup_s`
//! excepted, as there) — is a breach and the exit code is non-zero: a
//! benchmark that disagrees with itself cannot judge a change.

use crate::output::END_TO_END;
use crate::stats::{iqr_over_median, median};
use crate::workload::WORKLOADS;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use tsfm_store::wire::{parse_json, Json};

/// Runs per set from which a set's spread is judged against the bound:
/// the acceptance protocol's ten. The quartiles of fewer values are
/// their extremes, and one slow run is not a noisy benchmark.
const JUDGE_SPREAD_FROM: usize = 10;

pub struct Declared {
    pub run_seconds: f64,
    /// name → (better, bound)
    pub bounds: BTreeMap<String, (String, f64)>,
}

pub fn declared() -> Result<Declared, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let json = parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let run_seconds = json.get("run_seconds").and_then(Json::as_f64).ok_or("run_seconds missing")?;
    let Some(Json::Arr(items)) = json.get("end_to_end") else {
        return Err("end_to_end missing".into());
    };
    let mut bounds = BTreeMap::new();
    for m in items {
        let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
        let (Some(name), Some(better), Some(bound)) =
            (field("name"), field("better"), m.get("bound").and_then(Json::as_f64))
        else {
            return Err("end_to_end entry needs name, better and bound".into());
        };
        bounds.insert(name, (better, bound));
    }
    Ok(Declared { run_seconds, bounds })
}

/// One `run` of this binary; its end-to-end metrics by name.
fn one_run(exe: &Path, workload: &str, seed: u64, seconds: f64, quick: bool) -> Result<BTreeMap<String, f64>, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &seed.to_string(), "--trace", "0"])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("run {workload} seed {seed} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let json = parse_json(last).map_err(|e| format!("result line: {e}"))?;
    if json.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("run {workload} seed {seed} reported correct=false"));
    }
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| v.get("value").and_then(Json::as_f64).map(|x| (k.clone(), x)))
        .collect())
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(better: &str, a: f64, b: f64) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Run the A/A comparison and print it as Markdown. `Ok(false)` on a
/// breach.
pub fn selfcheck(runs: usize, seconds: Option<f64>, quick: bool) -> Result<bool, String> {
    let decl = declared()?;
    let seconds = seconds.unwrap_or(decl.run_seconds);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    println!("# A/A self-check\n");
    println!(
        "Two interleaved sets (A, B, A, B, …) of {runs} runs per workload of the same binary, \
         `--seconds {seconds}`{}, seeds 1..={runs} in both sets, nproc {}. `diff` is how much \
         worse set B's median is than set A's (negative: better), as a share of A; `spread` is \
         each set's (Q3 − Q1) / median. A `diff` beyond the bound in either direction is a \
         breach; {}.\n",
        if quick { ", `--quick`" } else { "" },
        crate::run::nproc(),
        if runs >= JUDGE_SPREAD_FROM {
            "so is a spread beyond it (`setup_s` excepted)"
        } else {
            "spreads are printed, not judged, below ten runs per set (the quartiles of three values are their extremes)"
        },
    );
    let mut ok = true;
    for w in &WORKLOADS {
        let mut sets: [Vec<BTreeMap<String, f64>>; 2] = Default::default();
        for r in 0..runs {
            for set in &mut sets {
                set.push(one_run(&exe, w.name, r as u64 + 1, seconds, quick)?);
            }
        }
        println!("## {}\n", w.name);
        println!("| metric | median A | median B | diff | spread A | spread B | bound | verdict |");
        println!("|---|---|---|---|---|---|---|---|");
        for &(name, unit) in &END_TO_END {
            let col = |s: &[BTreeMap<String, f64>]| -> Vec<f64> { s.iter().filter_map(|m| m.get(name).copied()).collect() };
            let (a, b) = (col(&sets[0]), col(&sets[1]));
            let (Some(ma), Some(mb)) = (median(&a), median(&b)) else {
                return Err(format!("{name} missing from a run"));
            };
            let (better, bound) = decl.bounds.get(name).cloned().ok_or_else(|| format!("{name} has no bound"))?;
            // Worse in either direction: A/A has no "change" side.
            let diff = worsening(&better, ma, mb);
            let (sa, sb) = (iqr_over_median(&a).unwrap_or(0.0), iqr_over_median(&b).unwrap_or(0.0));
            let breach = diff.abs() > bound
                || (runs >= JUDGE_SPREAD_FROM && name != "setup_s" && sa.max(sb) > bound);
            ok &= !breach;
            println!(
                "| `{name}` ({unit}) | {ma:.6} | {mb:.6} | {:+.2} % | {:.2} % | {:.2} % | {:.1} % | {} |",
                diff * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                if breach { "**BREACH**" } else { "ok" }
            );
        }
        println!();
    }
    println!(
        "{}",
        match (ok, runs >= JUDGE_SPREAD_FROM) {
            (true, true) => "All medians agree and all spreads stay within their bounds.",
            (true, false) => "All medians agree within their bounds.",
            (false, _) => "At least one metric breached its bound.",
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening("lower", 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening("lower", 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening("higher", 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening("higher", 100.0, 110.0) + 0.10).abs() < 1e-12);
    }

    #[test]
    fn every_end_to_end_metric_has_a_declared_bound() {
        let d = declared().unwrap();
        for &(name, _) in &END_TO_END {
            let (better, bound) = &d.bounds[name];
            assert!(better == "higher" || better == "lower", "{name}");
            assert!(*bound > 0.0 && *bound <= d.bounds["setup_s"].1, "{name}: set-up has the widest bound");
        }
        // The numbers that repeat to the last digit are gated tightly:
        // they are what speed is read beside.
        for exact in ["recall_at_10", "gold_f1_at_10", "disk_bytes_per_table"] {
            assert!(d.bounds[exact].1 <= 0.01, "{exact}");
        }
        assert!(d.bounds["setup_s"].1 <= 0.25);
        assert_eq!(d.bounds.len(), END_TO_END.len());
        assert!((1.0..=60.0).contains(&d.run_seconds));
    }
}
