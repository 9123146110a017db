//! ```text
//! tsfm_benchmark run --workload W --seed N --seconds S --trace 0|1
//!                    [--quick] [--trace-file FILE]
//! tsfm_benchmark check
//! tsfm_benchmark selfcheck [--runs R] [--seconds S] [--quick]
//! tsfm_benchmark child <catalog> <eager|lazy> <requests>     (internal)
//! ```
//!
//! `run` prints one `{"info":…}` line and then, as the last line of
//! stdout, the result object `BENCHMARK.json` describes: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tsfm_benchmark::output::{END_TO_END, PER_LAYER};
use tsfm_benchmark::run::{Info, RunArgs};
use tsfm_benchmark::{check, child, layers, run, selfcheck, workload};

const USAGE: &str = "usage: tsfm_benchmark run --workload W --seed N --seconds S --trace 0|1 \
                     [--quick] [--trace-file FILE] | check | \
                     selfcheck [--runs R] [--seconds S] [--quick]";

/// `--flag value` pairs and bare `--quick`.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.0.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => self.0.get(i + 1).map(|v| Some(v.as_str())).ok_or(format!("{flag} needs a value")),
        }
    }
    fn required<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?.ok_or(format!("{flag} is required\n{USAGE}"))?;
        v.parse().map_err(|_| format!("invalid {flag} {v:?}"))
    }
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn run_cmd(flags: &Flags) -> Result<bool, String> {
    check::profiles_match()?;
    let name: String = flags.required("--workload")?;
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    let workload =
        workload::find(&name).ok_or(format!("unknown workload {name:?} (one of {})", names.join(", ")))?;
    let seconds: f64 = flags.required("--seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match flags.required::<u8>("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let args = RunArgs {
        workload,
        seed: flags.required("--seed")?,
        seconds,
        trace,
        quick: flags.has("--quick"),
        trace_file: flags.value("--trace-file")?.map(PathBuf::from),
    };
    let mut info = Info::default();
    let (outcome, defs) = if args.trace {
        (layers::traced(&args, &mut info)?, &PER_LAYER[..])
    } else {
        (run::measured(&args, &mut info)?, &END_TO_END[..])
    };
    let result = outcome.result_json(defs)?;
    println!("{}", info.json());
    println!("{result}");
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags(argv.get(1..).unwrap_or_default().to_vec());
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => run_cmd(&flags),
        Some("check") => check::profiles_match().map(|()| {
            println!("[profile.release] matches the root manifest");
            true
        }),
        Some("selfcheck") => (|| {
            let runs = flags.value("--runs")?.map_or(Ok(5), str::parse).map_err(|_| "invalid --runs")?;
            let seconds = flags.value("--seconds")?.map(str::parse).transpose().map_err(|_| "invalid --seconds")?;
            selfcheck::selfcheck(runs, seconds, flags.has("--quick"))
        })(),
        Some("child") => match &argv[1..] {
            [catalog, mode, requests] => {
                child::child_main(Path::new(catalog), mode == "lazy", Path::new(requests)).map(|()| true)
            }
            _ => Err(USAGE.to_string()),
        },
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        // An incorrect run still prints its result line (`correct:false`)
        // and exits 0: the counts say what failed.
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) if argv.first().is_some_and(|c| c == "run") => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tsfm_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
