//! `tsfm_benchmark` — the repo's end-to-end benchmark (see `README.md` in
//! this directory and `BENCHMARK.json` at the root).
//!
//! It drives the library from outside, through public functions only
//! (`Catalog`, `Searcher`, `Server`/`ServerHandle`, `wire`, `csv`,
//! `TableSketch`, `QueryEngine::build`, `BruteForceIndex`,
//! `rank::near_tables`, the `tsfm_lake` generators), and changes nothing
//! outside its own directory.
//!
//! * [`workload`] — the four lifecycle workloads and their constants;
//! * [`inputs`] — seeded lake, query, gold and churn generation;
//! * [`run`] — the untraced run: the twelve end-to-end metrics;
//! * [`layers`] — the traced run: per-layer metrics from a span-recorded
//!   replay through each layer's public function;
//! * [`trace`] — the in-memory span recorder and self-time arithmetic;
//! * [`client`] — closed-loop and open-loop load generation over TCP;
//! * [`exact`] — the brute-force rankings recall is scored against;
//! * [`child`] — the restart child process;
//! * [`stats`], [`output`] — quartiles/percentiles and the result line;
//! * [`check`], [`selfcheck`] — profile-drift guard and the A/A run.

#![forbid(unsafe_code)]

pub mod check;
pub mod child;
pub mod client;
pub mod exact;
pub mod inputs;
pub mod layers;
pub mod output;
pub mod run;
pub mod selfcheck;
pub mod stats;
pub mod trace;
pub mod workload;
