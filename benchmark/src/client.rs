//! Load generation over the JSONL-over-TCP protocol.
//!
//! Closed loop: exactly `nproc` connections, one client thread each — a
//! client sends its next request only after the previous reply, so a slow
//! server receives less load. Open loop: requests leave on a fixed
//! schedule regardless of replies and each is timed **from when it was
//! due**, which counts the wait a stall imposes on later requests.

use crate::stats;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A reply that must not take longer than this is a failed operation,
/// not a sample.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| format!("timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn { reader, writer: stream, line: String::new() })
    }

    pub fn send(&mut self, request: &str) -> Result<(), String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))
    }

    /// The next reply line (without its newline).
    pub fn recv(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    pub fn roundtrip(&mut self, request: &str) -> Result<&str, String> {
        self.send(request)?;
        self.recv()
    }

    /// Split into independently owned halves for pipelined (open-loop)
    /// use: one thread writes on schedule, another reads replies.
    pub fn split(self) -> (TcpStream, BufReader<TcpStream>) {
        (self.writer, self.reader)
    }
}

pub fn is_error(reply: &str) -> bool {
    reply.starts_with("{\"error\"")
}

pub fn is_unknown_table(reply: &str) -> bool {
    is_error(reply) && reply.contains("\"kind\":\"unknown_table\"")
}

/// The `"hits":[...]` array text of a reply (hit objects hold no nested
/// arrays and table ids are escaped, so the first `]` closes it). Two
/// replies rank identically iff these are equal.
pub fn hits_of(reply: &str) -> Option<&str> {
    let start = reply.find("\"hits\":[")? + "\"hits\":".len();
    let end = start + reply[start..].find(']')? + 1;
    Some(&reply[start..end])
}

/// Table ids of a reply's hits, in rank order.
pub fn hit_ids(reply: &str) -> Vec<String> {
    let Some(hits) = hits_of(reply) else { return Vec::new() };
    hits.split("\"table\":\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_string)
        .collect()
}

/// One client thread's share of a window: latencies, failures, spans.
type ClientPart = (Vec<f64>, u64, Vec<(u64, u64)>);

/// What one closed-loop window measured.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub replies: u64,
    pub failed: u64,
    pub seconds: f64,
    /// Client-side latencies in µs, ascending.
    pub latencies_us: Vec<f64>,
    /// `(start, end)` of every request in ns since the span epoch, when
    /// the window was asked to record spans (the traced window).
    pub spans: Vec<(u64, u64)>,
}

impl Window {
    pub fn qps(&self) -> f64 {
        self.replies as f64 / self.seconds
    }
    pub fn p50_us(&self) -> Option<f64> {
        stats::percentile_sorted(&self.latencies_us, 0.50)
    }
    /// `None` when the window holds too few samples for a p99.
    pub fn p99_us(&self) -> Option<f64> {
        stats::supported_percentile(&self.latencies_us, 0.99)
    }
}

/// One closed-loop window: `conns` connections (one thread each) issue
/// lines drawn uniformly from `pool` (a fixed per-thread pseudo-random
/// sequence — a cyclic scan would be the one access pattern an LRU cache
/// never hits on) until `length` has passed or `stop` is set.
/// An error reply or a transport error is a failed operation; the
/// connection is reopened after a transport error. With a `span_epoch`
/// every request is also recorded as a span.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &[String],
    conns: usize,
    length: Duration,
    stop: Option<&AtomicBool>,
    span_epoch: Option<Instant>,
) -> Window {
    let t0 = Instant::now();
    let parts: Vec<ClientPart> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(8192);
                    let mut spans = Vec::new();
                    let mut failed = 0u64;
                    let mut conn = Conn::open(addr).ok();
                    let mut pick = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c as u64 + 1);
                    while t0.elapsed() < length && !stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                        let Some(cn) = conn.as_mut() else {
                            failed += 1;
                            conn = Conn::open(addr).ok();
                            continue;
                        };
                        // xorshift64: cheap, fixed, and independent per thread.
                        pick ^= pick << 13;
                        pick ^= pick >> 7;
                        pick ^= pick << 17;
                        let r0 = Instant::now();
                        match cn.roundtrip(&pool[(pick % pool.len() as u64) as usize]) {
                            Ok(reply) if !is_error(reply) => {
                                let ns = r0.elapsed().as_nanos() as u64;
                                lat.push(ns as f64 / 1e3);
                                if let Some(epoch) = span_epoch {
                                    let start = r0.saturating_duration_since(epoch).as_nanos() as u64;
                                    spans.push((start, start + ns));
                                }
                            }
                            Ok(_) => failed += 1,
                            Err(_) => {
                                failed += 1;
                                conn = None;
                            }
                        }
                    }
                    (lat, failed, spans)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or((Vec::new(), 1, Vec::new()))).collect()
    });
    let seconds = t0.elapsed().as_secs_f64();
    let mut w = Window { seconds, ..Window::default() };
    for (lat, f, spans) in parts {
        w.latencies_us.extend(lat);
        w.spans.extend(spans);
        w.failed += f;
    }
    w.latencies_us.sort_by(f64::total_cmp);
    w.replies = w.latencies_us.len() as u64;
    w
}

/// Due times of an open-loop pass: request `i` is due `i / rate` after
/// the start — fixed by the declared rate alone, never by replies.
pub fn due_offsets(rate_qps: f64, count: usize) -> Vec<Duration> {
    (0..count).map(|i| Duration::from_secs_f64(i as f64 / rate_qps)).collect()
}

/// Latency of request `i` in an open-loop pass, measured from its due
/// time — so a request sent late because the generator or the server
/// stalled carries that wait.
pub fn latency_from_due(start: Instant, due: Duration, replied: Instant) -> Duration {
    replied.saturating_duration_since(start + due)
}

#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    pub failed: u64,
    /// From due time to reply, µs, ascending.
    pub latencies_us: Vec<f64>,
    /// Worst lateness of a send against its due time, ms.
    pub max_late_ms: f64,
}

/// Open-loop pass: one scheduler thread sends request `i` at its due
/// time, round-robin over `conns` pipelined connections; one reader
/// thread per connection stamps replies (the protocol answers each
/// connection in order). `count` requests at `rate_qps`.
pub fn open_loop(
    addr: SocketAddr,
    pool: &[String],
    conns: usize,
    rate_qps: f64,
    count: usize,
) -> OpenLoop {
    let mut writers = Vec::with_capacity(conns);
    let mut readers = Vec::with_capacity(conns);
    for _ in 0..conns.max(1) {
        let Ok(conn) = Conn::open(addr) else {
            return OpenLoop { failed: count as u64, ..OpenLoop::default() };
        };
        let (w, r) = conn.split();
        writers.push(w);
        readers.push(r);
    }
    let conns = writers.len();
    let due = due_offsets(rate_qps, count);
    let start = Instant::now() + Duration::from_millis(5);
    let due = &due;
    let (max_late, replies) = std::thread::scope(|scope| {
        let w = scope.spawn(move || {
            let mut max_late = Duration::ZERO;
            for (i, d) in due.iter().enumerate() {
                let at = start + *d;
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                max_late = max_late.max(Instant::now().saturating_duration_since(at));
                let (line, writer) = (&pool[i % pool.len()], &mut writers[i % conns]);
                if writer.write_all(line.as_bytes()).and_then(|()| writer.write_all(b"\n")).is_err()
                {
                    break;
                }
            }
            max_late
        });
        let rs: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(c, mut reader)| {
                scope.spawn(move || {
                    // Connection `c` carries requests c, c + conns, ...
                    let mut out: Vec<(usize, Instant, bool)> = Vec::new();
                    let mut line = String::new();
                    for i in (c..count).step_by(conns) {
                        line.clear();
                        match reader.read_line(&mut line) {
                            Ok(n) if n > 0 => out.push((i, Instant::now(), !is_error(&line))),
                            _ => break,
                        }
                    }
                    out
                })
            })
            .collect();
        let max_late = w.join().unwrap_or(Duration::ZERO);
        let replies: Vec<(usize, Instant, bool)> =
            rs.into_iter().flat_map(|r| r.join().unwrap_or_default()).collect();
        (max_late, replies)
    });
    let mut latencies_us = Vec::with_capacity(replies.len());
    let mut failed = count as u64 - replies.len() as u64;
    for &(i, at, ok) in &replies {
        if ok {
            latencies_us.push(latency_from_due(start, due[i], at).as_nanos() as f64 / 1e3);
        } else {
            failed += 1;
        }
    }
    latencies_us.sort_by(f64::total_cmp);
    OpenLoop { failed, latencies_us, max_late_ms: max_late.as_secs_f64() * 1e3 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_schedule_is_fixed_by_rate_alone() {
        let due = due_offsets(1000.0, 4);
        assert_eq!(due[0], Duration::ZERO);
        assert_eq!(due[3], Duration::from_millis(3));
    }

    #[test]
    fn open_loop_latency_counts_from_due_time_not_send_time() {
        let start = Instant::now();
        let due = Duration::from_millis(10);
        // Due at +10 ms; a stalled generator sent it at +50 ms and the
        // reply came at +52 ms: the request waited 42 ms, not 2.
        let replied = start + Duration::from_millis(52);
        assert_eq!(latency_from_due(start, due, replied), Duration::from_millis(42));
        // A reply stamped before its due time (clock granularity) is 0.
        assert_eq!(latency_from_due(start, due, start), Duration::ZERO);
    }

    #[test]
    fn hits_are_extracted_from_a_reply() {
        let reply = "{\"query\":\"t1\",\"mode\":\"join\",\"corpus\":3,\"micros\":9,\"hits\":[\
                     {\"rank\":1,\"table\":\"a\",\"matching_columns\":2,\"score\":0.5},\
                     {\"rank\":2,\"table\":\"b\",\"matching_columns\":1,\"score\":0.7}]}";
        assert_eq!(hit_ids(reply), vec!["a".to_string(), "b".to_string()]);
        assert!(hits_of(reply).unwrap().starts_with("[{\"rank\":1"));
        assert!(!is_error(reply));
        let err = "{\"error\":{\"kind\":\"unknown_table\",\"detail\":\"x\"},\"client\":true}";
        assert!(is_error(err) && is_unknown_table(err));
        assert!(hit_ids(err).is_empty());
    }
}
