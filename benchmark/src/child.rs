//! The restart child: what a freshly started `tsfm serve` does before its
//! first answer, in a process of its own so that time and peak RSS are
//! honest — `Catalog::open` → `searcher()` (index-cache hit) → answers.
//!
//! Protocol (stdout, tab-separated, one line per event):
//!
//! ```text
//! answer <n> <hits json>      one per request line, the first flushed at once
//! done   <VmHWM kB>
//! ```

use crate::client::hits_of;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;
use tsfm_store::serve::execute;
use tsfm_store::{wire, Catalog, ServeRequest, SnapshotMode};

/// Peak resident set of this process in kB (`VmHWM`), 0 where
/// `/proc/self/status` does not exist.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Entry point of `tsfm_benchmark child <catalog> <eager|lazy> <requests>`.
pub fn child_main(catalog: &Path, lazy: bool, requests: &Path) -> Result<(), String> {
    let mut cat = Catalog::open(catalog).map_err(|e| format!("open: {e}"))?;
    if lazy {
        cat.set_snapshot_mode(SnapshotMode::Lazy);
    }
    let searcher = cat.searcher().map_err(|e| format!("searcher: {e}"))?;
    let text = std::fs::read_to_string(requests).map_err(|e| format!("requests: {e}"))?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (n, line) in text.lines().enumerate() {
        let req = ServeRequest::parse_line(line).map_err(|e| format!("request {n}: {e}"))?;
        let reply = match execute(&searcher, &req) {
            Ok(resp) => wire::response_json(&resp),
            Err(e) => wire::error_json(&e),
        };
        writeln!(out, "answer\t{n}\t{}", hits_of(&reply).unwrap_or(&reply))
            .and_then(|()| out.flush())
            .map_err(|e| format!("stdout: {e}"))?;
    }
    writeln!(out, "done\t{}", peak_rss_kb())
        .map_err(|e| format!("stdout: {e}"))
}

/// What the parent learned from one restart.
#[derive(Debug, Clone, Default)]
pub struct Restart {
    /// Spawn → first answer line read by the parent.
    pub to_answer_ms: f64,
    pub peak_rss_kb: u64,
    /// Hits text per request, in order.
    pub answers: Vec<String>,
}

/// Spawn one restart child, wait for it, and return what it reported.
pub fn restart(exe: &Path, catalog: &Path, lazy: bool, requests: &Path) -> Result<Restart, String> {
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .arg("child")
        .arg(catalog)
        .arg(if lazy { "lazy" } else { "eager" })
        .arg(requests)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = child.stdout.take().ok_or("child stdout missing")?;
    let mut out = Restart::default();
    let mut first = true;
    let mut done = false;
    // A read error ends the loop, not the function: the child is always
    // waited for, whatever it printed.
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        let mut f = line.split('\t');
        match f.next() {
            Some("answer") => {
                if first {
                    out.to_answer_ms = t0.elapsed().as_secs_f64() * 1e3;
                    first = false;
                }
                out.answers.push(f.nth(1).unwrap_or_default().to_string());
            }
            Some("done") => {
                out.peak_rss_kb = f.next().and_then(|v| v.parse().ok()).unwrap_or(0);
                done = true;
            }
            _ => {}
        }
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() || !done {
        return Err(format!("restart child failed ({status})"));
    }
    Ok(out)
}
