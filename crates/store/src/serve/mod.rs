//! The production serve frontend: a bounded-concurrency JSONL-over-TCP
//! discovery server.
//!
//! The original `tsfm serve` loop spawned one unbounded thread per
//! connection and trusted clients completely: a newline-free stream could
//! buffer without bound, an idle peer parked a worker forever, and enough
//! connections exhausted threads and file descriptors. This module is the
//! hardened replacement — hand-rolled on `std` only (crates.io is
//! unreachable), in the same spirit as the hand-rolled JSON in
//! [`crate::wire`]:
//!
//! * **Bounded worker pool.** At most [`ServeConfig::max_connections`]
//!   worker threads exist; workers are pooled and reused across
//!   connections (spawned lazily, trimmed after ten idle seconds).
//!   Accepted connections beyond the pool wait in a queue of at most
//!   [`ServeConfig::pending_capacity`]; past that the acceptor *sheds*:
//!   it answers with a one-line [`crate::wire::unavailable_json`] reply
//!   and closes, so overload degrades into fast, explicit refusals
//!   instead of unbounded resource growth.
//! * **Timeouts everywhere.** A connection idle between requests longer
//!   than `idle_timeout` is closed; a request line that does not complete
//!   within `read_timeout` of its first byte is closed (slowloris
//!   defence — the deadline is absolute, so trickling bytes does not
//!   reset it); a peer that stops draining replies hits `write_timeout`
//!   and is closed (per-connection write backpressure).
//! * **Request-line cap.** Lines longer than `max_line_bytes` are
//!   answered with a typed `invalid_request` error and the connection is
//!   closed — a newline-free stream can no longer exhaust memory.
//! * **Pipelining.** Clients may send many requests without waiting;
//!   replies come back in order, one line each.
//! * **Hot reload.** The [`Searcher`] snapshot lives behind an
//!   [`RwLock`]; [`ServerHandle::swap_searcher`] installs a new snapshot
//!   without dropping in-flight queries (each request clones the `Arc`s
//!   it needs up front).
//! * **Graceful shutdown.** [`ServerHandle::shutdown`] stops the
//!   acceptor, lets every in-flight request finish, then closes
//!   connections and joins the workers.
//! * **Ops surface.** Each server records its counters, gauges and
//!   latency histogram in a [`tsfm_obs::Registry`] of its own, so two
//!   servers in one process never mix counts. The `{"op":"stats"}` wire
//!   verb reports them as JSON ([`MetricsSnapshot`]); `{"op":"metrics"}`
//!   renders the same registry, then the process-wide
//!   [`tsfm_obs::metrics::global`] one, as Prometheus text;
//!   `{"op":"slowlog"}` reports the slowest requests seen, each with the
//!   per-stage breakdown the engine's profiler produced. The serve loop
//!   profiles every query (a handful of clock reads against a hundreds-
//!   of-microseconds query) so the slowlog always has stage attribution,
//!   and strips the breakdown from replies unless the client asked for
//!   `"profile":true`.

mod pool;

use crate::error::{StoreError, StoreResult};
use crate::request::DiscoveryResponse;
use crate::searcher::Searcher;
use crate::wire::{self, ServeCommand, ServeRequest};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};
use tsfm_obs::slowlog::{unix_ms_now, SlowEntry, Slowlog};
use tsfm_obs::{Counter, Gauge, Histogram, Registry};
use tsfm_table::csv;

/// How often blocked reads wake up to re-check deadlines and the
/// shutdown flag. Short enough that shutdown and deadline enforcement
/// feel immediate; long enough to cost nothing.
const POLL_SLICE: Duration = Duration::from_millis(100);

/// How many of the slowest requests the `slowlog` verb retains.
const SLOWLOG_CAPACITY: usize = 32;

/// Tuning knobs for [`Server`]. The defaults suit an interactive
/// discovery service; every limit exists to bound a resource a hostile
/// or broken client could otherwise grow without limit.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum concurrently served connections == maximum worker threads.
    pub max_connections: usize,
    /// Accepted connections allowed to wait for a free worker before the
    /// acceptor starts shedding.
    pub pending_capacity: usize,
    /// Close a connection idle (no request in progress) this long.
    pub idle_timeout: Duration,
    /// A request line must complete within this of its first byte.
    pub read_timeout: Duration,
    /// Give up on a peer that does not drain a reply within this.
    pub write_timeout: Duration,
    /// Hard cap on one request line (bytes, newline excluded).
    pub max_line_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_connections: 256,
            pending_capacity: 256,
            idle_timeout: Duration::from_secs(60),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_line_bytes: 4 << 20,
        }
    }
}

/// Shared state between the acceptor, the workers, and every handle.
struct Shared {
    cfg: ServeConfig,
    searcher: RwLock<Searcher>,
    metrics: Instruments,
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Accepted connections waiting for a worker.
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    /// Live worker threads (busy or idle).
    workers: AtomicUsize,
    /// Workers currently parked on the queue.
    idle_workers: AtomicUsize,
    /// The slowest requests seen, with per-stage breakdowns.
    slowlog: Slowlog,
    /// Test-only injection point: when set, the next connection handler
    /// panics on entry so tests can exercise the pool's panic
    /// containment without a reachable panic in production code.
    #[cfg(test)]
    panic_next_connection: AtomicBool,
}

/// A bounded-concurrency JSONL-over-TCP discovery server. Construct with
/// [`Server::bind`], then call [`Server::run`] (blocking) on a dedicated
/// thread; control it from anywhere through a [`ServerHandle`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A cheap clonable control handle: shutdown, snapshot hot-swap, and
/// metrics access.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `addr` and prepare to serve `searcher`. Port 0 binds an
    /// ephemeral port — read it back via [`Server::local_addr`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        searcher: Searcher,
        cfg: ServeConfig,
    ) -> StoreResult<Server> {
        if cfg.max_connections == 0 {
            return Err(StoreError::invalid("max_connections must be >= 1"));
        }
        if cfg.max_line_bytes == 0 {
            return Err(StoreError::invalid("max_line_bytes must be >= 1"));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let metrics = Instruments::new();
        metrics.tables.set(searcher.len() as i64);
        let shared = Arc::new(Shared {
            cfg,
            searcher: RwLock::new(searcher),
            metrics,
            addr,
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            workers: AtomicUsize::new(0),
            idle_workers: AtomicUsize::new(0),
            slowlog: Slowlog::new(SLOWLOG_CAPACITY),
            #[cfg(test)]
            panic_next_connection: AtomicBool::new(false),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves `--port 0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: self.shared.clone() }
    }

    /// Accept and dispatch until [`ServerHandle::shutdown`] is called.
    /// Consumes the server; returns once every worker has drained its
    /// in-flight request and exited.
    pub fn run(self) -> StoreResult<()> {
        let shared = &self.shared;
        let mut joins = Vec::new();
        for stream in self.listener.incoming() {
            if shared.shutdown.load(Ordering::Acquire) {
                break; // the shutdown wake-up connection, or a late accept
            }
            let stream = match stream {
                Ok(s) => s,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => continue, // transient accept failure (EMFILE etc.)
            };
            shared.metrics.accepted.inc();
            pool::dispatch(shared, stream, &mut joins);
        }

        // Graceful drain: close queued-but-unserved connections, wake
        // every parked worker so it can observe the flag and exit, then
        // wait for in-flight requests to complete.
        shared.shutdown.store(true, Ordering::Release);
        tsfm_obs::sync::lock_unpoisoned(&shared.queue).clear();
        shared.queue_cv.notify_all();
        for j in joins {
            let _ = j.join();
        }
        Ok(())
    }
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Ask the server to stop. The acceptor wakes immediately; workers
    /// finish the request they are serving, close their connections, and
    /// exit. [`Server::run`] returns once they have.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        // Blocking `accept` only returns on a connection: poke it.
        let _ = TcpStream::connect_timeout(&self.shared.addr, Duration::from_secs(1));
    }

    /// Install a new snapshot (catalog hot-reload). In-flight queries
    /// keep the snapshot they started with; the next request on every
    /// connection sees the new one. Returns the reload generation (1 for
    /// the first swap).
    pub fn swap_searcher(&self, searcher: Searcher) -> u64 {
        let m = &self.shared.metrics;
        // Under the write lock: swaps count in order, and the tables gauge
        // moves with its snapshot.
        let mut current = tsfm_obs::sync::write_unpoisoned(&self.shared.searcher);
        m.tables.set(searcher.len() as i64);
        *current = searcher;
        m.reloads.inc();
        m.reloads.get()
    }

    /// The snapshot currently serving queries.
    pub fn searcher(&self) -> Searcher {
        tsfm_obs::sync::read_unpoisoned(&self.shared.searcher).clone()
    }

    /// Point-in-time ops counters (what the `stats` verb reports).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Live worker threads (for tests asserting the pool stays bounded).
    pub fn worker_count(&self) -> usize {
        self.shared.workers.load(Ordering::Relaxed)
    }

    /// The slowest requests seen so far (what the `slowlog` verb reports),
    /// slowest first.
    pub fn slowlog(&self) -> Vec<SlowEntry> {
        self.shared.slowlog.snapshot()
    }

    /// The Prometheus text the `metrics` verb reports.
    pub fn prometheus_text(&self) -> String {
        self.shared.metrics.prometheus_text()
    }
}

/// Discard whatever the peer already sent, bounded in bytes and time, so
/// closing the socket sends FIN instead of RST — an RST can destroy a
/// just-written error reply before the client reads it. The bounds keep
/// this from becoming its own resource sink: a peer still streaming past
/// them simply gets the reset.
fn drain_before_close(reader: &mut BufReader<TcpStream>) {
    const DRAIN_BYTE_BUDGET: usize = 1 << 20;
    const DRAIN_TIME_BUDGET: Duration = Duration::from_secs(1);
    let t0 = Instant::now();
    let mut drained = 0usize;
    while drained < DRAIN_BYTE_BUDGET && t0.elapsed() < DRAIN_TIME_BUDGET {
        match reader.fill_buf() {
            Ok([]) => return, // clean EOF: peer is done
            Ok(chunk) => {
                let n = chunk.len();
                drained += n;
                reader.consume(n);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Quiet for a full poll slice: the pipe is empty enough.
                return;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Why `read_request_line` stopped.
enum LineOutcome {
    /// A complete line (newline stripped) is in the buffer.
    Line,
    /// Peer closed its write half (or mid-line EOF).
    Eof,
    /// The line exceeded the cap before a newline arrived.
    Overflow,
    /// No request in progress and the idle deadline passed.
    IdleTimeout,
    /// A partial line stalled past the read deadline (slowloris).
    SlowRead,
    /// Server shutting down between requests.
    Shutdown,
    /// Hard I/O error.
    Failed,
}

/// Read one `\n`-terminated request line into `line`, enforcing the line
/// cap, the idle deadline, and the absolute per-line read deadline. The
/// socket carries a short poll timeout ([`POLL_SLICE`]) so deadline and
/// shutdown checks run even while the peer is silent.
fn read_request_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    shared: &Shared,
) -> LineOutcome {
    line.clear();
    let idle_deadline = Instant::now() + shared.cfg.idle_timeout;
    let mut line_deadline: Option<Instant> = None;
    loop {
        if shared.shutdown.load(Ordering::Acquire) && line.is_empty() {
            return LineOutcome::Shutdown;
        }
        // The line deadline is absolute: check it even while bytes are
        // arriving, or a client trickling one byte per poll slice would
        // hold a worker forever (the classic slowloris).
        if let Some(d) = line_deadline {
            if Instant::now() >= d {
                return LineOutcome::SlowRead;
            }
        }
        let chunk = match reader.fill_buf() {
            Ok([]) => return LineOutcome::Eof,
            Ok(chunk) => chunk,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                let now = Instant::now();
                if let Some(d) = line_deadline {
                    if now >= d {
                        return LineOutcome::SlowRead;
                    }
                } else if now >= idle_deadline {
                    return LineOutcome::IdleTimeout;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return LineOutcome::Failed,
        };
        // First byte of a request starts the absolute line deadline.
        if line_deadline.is_none() {
            line_deadline = Some(Instant::now() + shared.cfg.read_timeout);
        }
        if let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
            if line.len() + nl > shared.cfg.max_line_bytes {
                return LineOutcome::Overflow;
            }
            line.extend_from_slice(&chunk[..nl]);
            reader.consume(nl + 1);
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return LineOutcome::Line;
        }
        let take = chunk.len();
        if line.len() + take > shared.cfg.max_line_bytes {
            // Consume what we peeked so the buffer does not replay it;
            // the connection is closing anyway.
            reader.consume(take);
            return LineOutcome::Overflow;
        }
        line.extend_from_slice(chunk);
        reader.consume(take);
    }
}

/// Serve one connection to completion: read JSONL requests, answer each
/// with one JSON line, enforce every limit. Request-level failures are
/// answered through the typed error serializer and never kill the server.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    #[cfg(test)]
    if shared.panic_next_connection.swap(false, Ordering::Relaxed) {
        panic!("injected: connection handler panic (test hook)");
    }
    let _ = stream.set_nodelay(true);
    // Short poll timeout — the loop, not the kernel, owns the deadlines.
    if stream.set_read_timeout(Some(POLL_SLICE)).is_err()
        || stream.set_write_timeout(Some(shared.cfg.write_timeout)).is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut line = Vec::new();

    loop {
        match read_request_line(&mut reader, &mut line, shared) {
            LineOutcome::Line => {
                if line.iter().all(u8::is_ascii_whitespace) {
                    continue; // blank keep-alive line
                }
                let reply = match std::str::from_utf8(&line) {
                    Ok(text) => handle_line(shared, text),
                    Err(_) => {
                        count_error(shared, true);
                        wire::error_json(&StoreError::invalid("request line is not valid UTF-8"))
                    }
                };
                if send_line(&mut writer, &reply).is_err() {
                    shared.metrics.closed_slow_write.inc();
                    return;
                }
            }
            LineOutcome::Overflow => {
                shared.metrics.overlong_lines.inc();
                count_error(shared, true);
                let max = shared.cfg.max_line_bytes;
                reject(&mut writer, &mut reader, format!("request line exceeds {max} bytes"));
                return; // cannot resync mid-line: close
            }
            LineOutcome::IdleTimeout => {
                shared.metrics.closed_idle.inc();
                return;
            }
            LineOutcome::SlowRead => {
                shared.metrics.closed_slow_read.inc();
                let t = shared.cfg.read_timeout;
                reject(&mut writer, &mut reader, format!("request line not completed within {t:?}"));
                return;
            }
            LineOutcome::Eof | LineOutcome::Shutdown | LineOutcome::Failed => return,
        }
    }
}

/// Write one reply line and flush it. An error means the peer is gone or
/// not draining: the write-backpressure bound.
fn send_line(writer: &mut BufWriter<TcpStream>, reply: &str) -> std::io::Result<()> {
    writer.write_all(reply.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Answer a line the connection cannot resync after with a typed
/// `invalid_request` error, then drain what the peer already sent so the
/// close does not destroy the reply.
fn reject(writer: &mut BufWriter<TcpStream>, reader: &mut BufReader<TcpStream>, detail: String) {
    if send_line(writer, &wire::error_json(&StoreError::invalid(detail))).is_ok() {
        drain_before_close(reader);
    }
}

fn count_error(shared: &Shared, client: bool) {
    let m = &shared.metrics;
    let outcome = if client { &m.requests_client_error } else { &m.requests_server_error };
    outcome.inc();
}

/// Parse and execute one request line, returning the reply line (no
/// trailing newline). Never panics, never returns an un-serialized error.
fn handle_line(shared: &Shared, line: &str) -> String {
    match ServeCommand::parse_line(line) {
        Ok(ServeCommand::Stats) => {
            shared.metrics.requests_ok.inc();
            stats_json(shared)
        }
        Ok(ServeCommand::Metrics) => {
            shared.metrics.requests_ok.inc();
            let text = shared.metrics.prometheus_text();
            format!("{{\"metrics\":\"{}\"}}", wire::escape_json(&text))
        }
        Ok(ServeCommand::Slowlog) => {
            shared.metrics.requests_ok.inc();
            slowlog_json(shared)
        }
        Ok(ServeCommand::Query(mut req)) => {
            // Clone the snapshot up front: a concurrent hot-swap must not
            // affect a query already started.
            let searcher = tsfm_obs::sync::read_unpoisoned(&shared.searcher).clone();
            // Profile every query regardless of what the client asked:
            // the cost is a handful of clock reads, and it means the
            // slowlog always carries a stage breakdown. The reply only
            // keeps the breakdown when the client opted in.
            let client_wants_profile = req.request.profile();
            req.request = req.request.clone().with_profile(true);
            let t0 = Instant::now();
            match execute(&searcher, &req) {
                Ok(mut resp) => {
                    let total_us = t0.elapsed().as_micros() as u64;
                    shared.metrics.latency.record(total_us);
                    shared.metrics.requests_ok.inc();
                    shared.slowlog.record(SlowEntry {
                        label: resp.query_id.clone(),
                        detail: resp.mode.name().to_string(),
                        total_us,
                        unix_ms: unix_ms_now(),
                        stages: resp.profile.clone().unwrap_or_default(),
                    });
                    if !client_wants_profile {
                        resp.profile = None;
                    }
                    wire::response_json(&resp)
                }
                Err(e) => {
                    count_error(shared, e.is_client_error());
                    wire::error_json(&e)
                }
            }
        }
        Err(e) => {
            count_error(shared, e.is_client_error());
            wire::error_json(&e)
        }
    }
}

/// Run one parsed discovery request against a snapshot. This is the
/// single execution path shared by the server and any embedding caller;
/// the `(None, None)` arm is a typed error, not a panic — `parse_line`
/// rejects it today, but a connection worker must never carry a panic
/// surface for a state a future refactor could reintroduce.
pub fn execute(searcher: &Searcher, req: &ServeRequest) -> StoreResult<DiscoveryResponse> {
    match (&req.csv, &req.id) {
        (Some(text), _) => {
            let table = csv::table_from_csv(&req.query_id, &req.query_id, text);
            searcher.search_table(&table, &req.request)
        }
        (None, Some(id)) => searcher.search_id(id, &req.request),
        (None, None) => Err(StoreError::invalid(
            "request needs a query table: inline \"csv\" or a stored \"id\"",
        )),
    }
}

/// This server's instruments, registered in its own [`Registry`]; both
/// ops verbs read them, and each field's help text says what it counts.
/// Workers bump them without a lock or a name lookup: one relaxed atomic
/// per event. Every request has exactly one outcome, stats included.
struct Instruments {
    registry: Registry,
    started: Instant,
    uptime_ms: Arc<Gauge>,
    tables: Arc<Gauge>,
    active: Arc<Gauge>,
    reloads: Arc<Counter>,
    accepted: Arc<Counter>,
    shed: Arc<Counter>,
    closed_idle: Arc<Counter>,
    closed_slow_read: Arc<Counter>,
    closed_slow_write: Arc<Counter>,
    /// Always 0 in a healthy server; any nonzero value is a bug worth a page.
    worker_panics: Arc<Counter>,
    overlong_lines: Arc<Counter>,
    requests_ok: Arc<Counter>,
    requests_client_error: Arc<Counter>,
    requests_server_error: Arc<Counter>,
    latency: Arc<Histogram>,
}

impl Instruments {
    fn new() -> Self {
        let registry = Registry::new();
        let (r, c) = (&registry, |name: &str, help: &str| registry.counter(name, help));
        let by = |family: &str, help: &str, key: &str, values: [&str; 3]| {
            values.map(|v| c(&format!("{family}{{{key}=\"{v}\"}}"), help))
        };
        let [closed_idle, closed_slow_read, closed_slow_write] =
            by("tsfm_serve_connections_closed_total", "Connections closed by limit enforcement",
                "reason", ["idle", "slow_read", "slow_write"]);
        let [requests_ok, requests_client_error, requests_server_error] =
            by("tsfm_serve_requests_total", "Requests served, by outcome",
                "outcome", ["ok", "client_error", "server_error"]);
        Self {
            started: Instant::now(),
            uptime_ms: r.gauge("tsfm_serve_uptime_ms", "Milliseconds since the server started"),
            tables: r.gauge("tsfm_serve_tables", "Tables in the serving snapshot"),
            active: r.gauge("tsfm_serve_connections_active",
                "Connections currently owned by a worker"),
            reloads: c("tsfm_serve_reloads_total", "Searcher snapshot hot-swaps"),
            accepted: c("tsfm_serve_connections_accepted_total",
                "Connections accepted from the listener"),
            shed: c("tsfm_serve_connections_shed_total",
                "Connections refused at capacity with an unavailable reply"),
            closed_idle,
            closed_slow_read,
            closed_slow_write,
            worker_panics: c("tsfm_serve_worker_panics_total",
                "Connection-handler panics contained by the worker pool"),
            overlong_lines: c("tsfm_serve_overlong_lines_total",
                "Request lines rejected for exceeding the line cap"),
            requests_ok,
            requests_client_error,
            requests_server_error,
            latency: r.histogram("tsfm_serve_latency_us", "Successful query latency, microseconds"),
            registry,
        }
    }

    /// The uptime gauge, brought up to date for a reader.
    fn uptime_ms(&self) -> u64 {
        let ms = self.started.elapsed().as_millis() as u64;
        self.uptime_ms.set(ms as i64);
        ms
    }

    /// Point-in-time copy of every instrument.
    fn snapshot(&self) -> MetricsSnapshot {
        let ok = self.requests_ok.get();
        let client_error = self.requests_client_error.get();
        let server_error = self.requests_server_error.get();
        let l = &self.latency;
        MetricsSnapshot {
            uptime_ms: self.uptime_ms(),
            tables: self.tables.get() as u64,
            reloads: self.reloads.get(),
            accepted: self.accepted.get(),
            shed: self.shed.get(),
            active: self.active.get() as usize,
            closed_idle: self.closed_idle.get(),
            closed_slow_read: self.closed_slow_read.get(),
            closed_slow_write: self.closed_slow_write.get(),
            overlong_lines: self.overlong_lines.get(),
            requests_total: ok + client_error + server_error,
            requests_ok: ok,
            requests_client_error: client_error,
            requests_server_error: server_error,
            worker_panics: self.worker_panics.get(),
            latency_count: l.count(),
            latency_mean_us: l.mean(),
            latency_p50_us: l.percentile(0.50),
            latency_p95_us: l.percentile(0.95),
            latency_p99_us: l.percentile(0.99),
            latency_max_us: l.max(),
        }
    }

    /// The `{"op":"metrics"}` payload: this server's `tsfm_serve_*`
    /// families, then the process-wide registry (sketch, search and
    /// catalog instruments).
    fn prometheus_text(&self) -> String {
        self.uptime_ms();
        let mut text = self.registry.prometheus_text();
        text.push_str(&tsfm_obs::metrics::global().prometheus_text());
        text
    }
}

/// A copy of one server's instruments at one instant (fields may be a few
/// events apart under concurrent load; each is individually exact).
/// `requests_total` is the sum of the three outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub uptime_ms: u64,
    pub tables: u64,
    pub reloads: u64,
    pub accepted: u64,
    pub shed: u64,
    pub active: usize,
    pub closed_idle: u64,
    pub closed_slow_read: u64,
    pub closed_slow_write: u64,
    pub overlong_lines: u64,
    pub requests_total: u64,
    pub requests_ok: u64,
    pub requests_client_error: u64,
    pub requests_server_error: u64,
    pub worker_panics: u64,
    pub latency_count: u64,
    pub latency_mean_us: f64,
    pub latency_p50_us: u64,
    pub latency_p95_us: u64,
    pub latency_p99_us: u64,
    pub latency_max_us: u64,
}

/// The `{"op":"stats"}` reply: ops counters, corpus counters, and latency
/// percentiles, as one JSON line.
fn stats_json(shared: &Shared) -> String {
    let MetricsSnapshot {
        uptime_ms, tables, reloads, accepted, shed, active, closed_idle, closed_slow_read,
        closed_slow_write, overlong_lines, requests_total: total, requests_ok: ok,
        requests_client_error: client_error, requests_server_error: server_error,
        worker_panics: _, latency_count: count, latency_mean_us: mean, latency_p50_us: p50,
        latency_p95_us: p95, latency_p99_us: p99, latency_max_us: max,
    } = shared.metrics.snapshot();
    let epoch = tsfm_obs::sync::read_unpoisoned(&shared.searcher).epoch();
    format!(
        "{{\"stats\":{{\"uptime_ms\":{uptime_ms},\"tables\":{tables},\"epoch\":{epoch},\
         \"reloads\":{reloads},\
         \"connections\":{{\"active\":{active},\"accepted\":{accepted},\"shed\":{shed},\
         \"closed_idle\":{closed_idle},\"closed_slow_read\":{closed_slow_read},\
         \"closed_slow_write\":{closed_slow_write},\"overlong_lines\":{overlong_lines}}},\
         \"requests\":{{\"total\":{total},\"ok\":{ok},\"client_error\":{client_error},\
         \"server_error\":{server_error}}},\
         \"latency_us\":{{\"count\":{count},\"mean\":{mean:.1},\"p50\":{p50},\"p95\":{p95},\
         \"p99\":{p99},\"max\":{max}}}}}}}"
    )
}

/// The `{"op":"slowlog"}` reply: slowest requests first, each with its
/// stage breakdown in execution order.
fn slowlog_json(shared: &Shared) -> String {
    let entries = shared.slowlog.snapshot();
    let items: Vec<String> = entries
        .iter()
        .map(|e| {
            let stages: Vec<String> = e
                .stages
                .iter()
                .map(|(stage, us)| format!("[\"{}\",{us}]", wire::escape_json(stage)))
                .collect();
            format!(
                "{{\"query\":\"{}\",\"mode\":\"{}\",\"micros\":{},\"unix_ms\":{},\"stages\":[{}]}}",
                wire::escape_json(&e.label),
                wire::escape_json(&e.detail),
                e.total_us,
                e.unix_ms,
                stages.join(",")
            )
        })
        .collect();
    format!("{{\"slowlog\":[{}]}}", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::wire::Json;
    use std::io::Read;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsfm_serve_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A catalog with `n` tiny tables (`t0..tn`), its searcher, and dir.
    fn searcher_with(tag: &str, n: usize) -> (Searcher, PathBuf) {
        let dir = tmp_dir(tag);
        let mut cat = Catalog::open(&dir).unwrap();
        for i in 0..n {
            let t = csv::table_from_csv(
                &format!("t{i}"),
                &format!("t{i}"),
                &format!("city,pop\nVienna{i},{}\nGraz{i},{}\n", 100 + i, 200 + i),
            );
            cat.add_table(&t, i as u64 + 1).unwrap();
        }
        let s = cat.searcher().unwrap();
        cat.commit().unwrap();
        (s, dir)
    }

    /// Start a server on an ephemeral port with `cfg`; returns its handle
    /// and the join handle of the run thread.
    fn start(
        tag: &str,
        n: usize,
        cfg: ServeConfig,
    ) -> (ServerHandle, std::thread::JoinHandle<StoreResult<()>>, SocketAddr) {
        let (searcher, _dir) = searcher_with(tag, n);
        let server = Server::bind("127.0.0.1:0", searcher, cfg).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        // Return the run result instead of unwrapping inside the thread:
        // a panic or error in the acceptor must fail the test at join
        // time, not vanish into a dead thread.
        let join = std::thread::spawn(move || server.run());
        (handle, join, addr)
    }

    /// Shut the server down and propagate any run-thread panic or error.
    fn stop(handle: &ServerHandle, join: std::thread::JoinHandle<StoreResult<()>>) {
        handle.shutdown();
        join.join().expect("serve run thread panicked").expect("serve run returned an error");
    }

    fn roundtrip(stream: &mut (impl Write + Unpin), reader: &mut impl BufRead, req: &str) -> Json {
        writeln!(stream, "{req}").unwrap();
        stream.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        wire::parse_json(line.trim()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    #[test]
    fn serves_queries_and_stats_over_one_connection() {
        let (handle, join, addr) = start("basic", 3, ServeConfig::default());
        let (mut w, mut r) = connect(addr);

        let reply = roundtrip(&mut w, &mut r, r#"{"mode":"join","k":2,"id":"t0"}"#);
        assert!(reply.get("hits").is_some(), "{reply:?}");
        assert_eq!(reply.get("corpus").unwrap().as_f64(), Some(3.0));

        // Typed client error, connection stays usable.
        let reply = roundtrip(&mut w, &mut r, r#"{"mode":"join","id":"nope"}"#);
        assert_eq!(
            reply.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("unknown_table")
        );

        let reply = roundtrip(&mut w, &mut r, r#"{"op":"stats"}"#);
        let stats = reply.get("stats").expect("stats object");
        assert_eq!(stats.get("tables").unwrap().as_f64(), Some(3.0));
        let requests = stats.get("requests").unwrap();
        assert_eq!(requests.get("total").unwrap().as_f64(), Some(3.0));
        assert_eq!(requests.get("ok").unwrap().as_f64(), Some(2.0));
        assert_eq!(requests.get("client_error").unwrap().as_f64(), Some(1.0));
        let lat = stats.get("latency_us").unwrap();
        assert_eq!(lat.get("count").unwrap().as_f64(), Some(1.0));

        drop((w, r));
        stop(&handle, join);
    }

    /// Spin until `probe` is true or ~2s elapse. The pool updates its
    /// counters after the client-visible effect (the dropped socket), so
    /// tests must tolerate that small window.
    fn wait_until(probe: impl Fn() -> bool) -> bool {
        for _ in 0..2000 {
            if probe() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        probe()
    }

    #[test]
    fn pool_survives_panicking_connection_handlers() {
        let (handle, join, addr) = start("panic", 2, ServeConfig::default());

        // Two injected panics in a row: the pool must absorb both with
        // balanced counters, not leak capacity one panic at a time.
        for round in 1..=2u64 {
            handle.shared.panic_next_connection.store(true, Ordering::Relaxed);
            let (w, mut r) = connect(addr);
            let mut line = String::new();
            let n = r.read_line(&mut line).unwrap();
            assert_eq!(n, 0, "round {round}: panicked handler must drop the connection, got {line:?}");
            drop((w, r));
            assert!(
                wait_until(|| handle.metrics().worker_panics == round),
                "round {round}: worker_panics stuck at {}",
                handle.metrics().worker_panics
            );
        }

        // The pool still serves after the panics.
        let (mut w, mut r) = connect(addr);
        let reply = roundtrip(&mut w, &mut r, r#"{"mode":"join","k":1,"id":"t0"}"#);
        assert!(reply.get("hits").is_some(), "{reply:?}");
        drop((w, r));

        assert_eq!(handle.metrics().worker_panics, 2);
        assert!(
            wait_until(|| handle.metrics().active == 0),
            "active counter must be balanced across panics, got {}",
            handle.metrics().active
        );
        stop(&handle, join);
    }

    #[test]
    fn metrics_and_slowlog_verbs_report_observability() {
        let (handle, join, addr) = start("obsverbs", 2, ServeConfig::default());
        let (mut w, mut r) = connect(addr);

        // A profiled query returns a stage breakdown that sums exactly to
        // the reported engine micros; an unprofiled one stays clean.
        let v = roundtrip(&mut w, &mut r, r#"{"mode":"join","k":1,"id":"t0","profile":true}"#);
        let Json::Arr(stages) = v.get("profile").expect("profile requested") else { panic!() };
        assert!(!stages.is_empty());
        let sum: f64 = stages
            .iter()
            .map(|s| {
                let Json::Arr(pair) = s else { panic!("stage is [name, us]: {s:?}") };
                pair[1].as_f64().unwrap()
            })
            .sum();
        assert_eq!(Some(sum), v.get("micros").unwrap().as_f64(), "{v:?}");
        let v = roundtrip(&mut w, &mut r, r#"{"mode":"union","k":1,"id":"t1"}"#);
        assert!(v.get("profile").is_none(), "profile must be opt-in: {v:?}");

        // The metrics verb answers parseable Prometheus text counting the
        // two queries above plus (like stats) the metrics request itself.
        let v = roundtrip(&mut w, &mut r, r#"{"op":"metrics"}"#);
        let text = v.get("metrics").expect("metrics payload").as_str().unwrap();
        assert!(text.contains("# TYPE tsfm_serve_requests_total counter"), "{text}");
        assert!(text.contains("tsfm_serve_requests_total{outcome=\"ok\"} 3\n"), "{text}");
        assert!(text.contains("tsfm_serve_tables 2\n"), "{text}");
        assert!(handle.prometheus_text().contains("tsfm_serve_requests_total"));

        // The slowlog kept both queries — each with a stage breakdown
        // even though only one client asked to see its profile.
        let v = roundtrip(&mut w, &mut r, r#"{"op":"slowlog"}"#);
        let Json::Arr(entries) = v.get("slowlog").expect("slowlog payload") else { panic!() };
        assert_eq!(entries.len(), 2, "{v:?}");
        for e in entries {
            let Json::Arr(st) = e.get("stages").unwrap() else { panic!("{e:?}") };
            assert!(!st.is_empty(), "every entry carries stages: {e:?}");
            assert!(e.get("micros").unwrap().as_f64().unwrap() >= 0.0);
        }
        // Slowest first.
        let micros: Vec<f64> =
            entries.iter().map(|e| e.get("micros").unwrap().as_f64().unwrap()).collect();
        assert!(micros[0] >= micros[1], "{micros:?}");
        assert_eq!(handle.slowlog().len(), 2);

        stop(&handle, join);
    }

    /// Each server counts in a registry of its own: traffic to one never
    /// shows in the other's snapshot or exposition.
    #[test]
    fn two_servers_keep_separate_counts() {
        const N: u64 = 5;
        let (first, join1, addr1) = start("separate_a", 1, ServeConfig::default());
        let (second, join2, _) = start("separate_b", 1, ServeConfig::default());
        let (mut w, mut r) = connect(addr1);
        for _ in 0..N {
            let v = roundtrip(&mut w, &mut r, r#"{"mode":"join","k":1,"id":"t0"}"#);
            assert!(v.get("hits").is_some(), "{v:?}");
        }
        drop((w, r));
        assert_eq!(first.metrics().requests_ok, N);
        assert_eq!(second.metrics().requests_ok, 0);
        let ok = |n: u64| format!("tsfm_serve_requests_total{{outcome=\"ok\"}} {n}\n");
        assert!(first.prometheus_text().contains(&ok(N)), "{}", first.prometheus_text());
        assert!(second.prometheus_text().contains(&ok(0)), "{}", second.prometheus_text());
        stop(&first, join1);
        stop(&second, join2);
    }

    /// A server after one connection, one answered and one rejected query,
    /// and one reload to a seven-table searcher.
    fn served_once(tag: &str) -> (ServerHandle, std::thread::JoinHandle<StoreResult<()>>) {
        let (handle, join, addr) = start(tag, 2, ServeConfig::default());
        let (mut w, mut r) = connect(addr);
        let v = roundtrip(&mut w, &mut r, r#"{"mode":"join","k":1,"id":"t0"}"#);
        assert!(v.get("hits").is_some(), "{v:?}");
        let v = roundtrip(&mut w, &mut r, r#"{"mode":"join","k":1,"id":"nope"}"#);
        assert!(v.get("error").is_some(), "{v:?}");
        drop((w, r));
        let (bigger, _dir) = searcher_with(&format!("{tag}_big"), 7);
        assert_eq!(handle.swap_searcher(bigger), 1);
        (handle, join)
    }

    /// The snapshot copies the registry's counts of what happened.
    #[test]
    fn metrics_snapshot_copies_counters() {
        let (handle, join) = served_once("snapshot");
        let m = handle.metrics();
        assert_eq!((m.accepted, m.shed, m.tables, m.reloads), (1, 0, 7, 1));
        assert_eq!((m.requests_total, m.requests_ok, m.requests_client_error), (2, 1, 1));
        assert_eq!((m.latency_count, m.requests_server_error, m.worker_panics), (1, 0, 0));
        assert!(m.latency_p50_us <= m.latency_max_us);
        stop(&handle, join);
    }

    /// The exposition carries every `tsfm_serve_*` family once and each
    /// line is `name[{labels}] value`.
    #[test]
    fn prometheus_text_is_well_formed_and_complete() {
        let (handle, join) = served_once("exposition");
        let text = handle.prometheus_text();
        for line in [
            "tsfm_serve_tables 7\n",
            "tsfm_serve_reloads_total 1\n",
            "tsfm_serve_connections_accepted_total 1\n",
            "tsfm_serve_connections_shed_total 0\n",
            "tsfm_serve_requests_total{outcome=\"ok\"} 1\n",
            "tsfm_serve_requests_total{outcome=\"client_error\"} 1\n",
            "tsfm_serve_requests_total{outcome=\"server_error\"} 0\n",
            "tsfm_serve_connections_closed_total{reason=\"idle\"} 0\n",
            "tsfm_serve_connections_closed_total{reason=\"slow_read\"} 0\n",
            "tsfm_serve_connections_closed_total{reason=\"slow_write\"} 0\n",
            "tsfm_serve_latency_us_count 1\n",
        ] {
            assert!(text.contains(line), "missing {line:?} in {text}");
        }
        for (family, kind) in [
            ("tsfm_serve_uptime_ms", "gauge"),
            ("tsfm_serve_tables", "gauge"),
            ("tsfm_serve_connections_active", "gauge"),
            ("tsfm_serve_reloads_total", "counter"),
            ("tsfm_serve_connections_accepted_total", "counter"),
            ("tsfm_serve_connections_shed_total", "counter"),
            ("tsfm_serve_connections_closed_total", "counter"),
            ("tsfm_serve_worker_panics_total", "counter"),
            ("tsfm_serve_overlong_lines_total", "counter"),
            ("tsfm_serve_requests_total", "counter"),
            ("tsfm_serve_latency_us", "summary"),
        ] {
            let typed = format!("# TYPE {family} {kind}\n");
            assert_eq!(text.matches(&typed).count(), 1, "{typed:?} once in {text}");
            assert_eq!(text.matches(&format!("# HELP {family} ")).count(), 1, "{family}");
        }
        // Exposition grammar: every non-comment, non-blank line is
        // `name[{labels}] value` with a numeric value.
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let (series, value) = line.rsplit_once(' ').expect("name value");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
            let (name, labels) = series.split_at(series.find('{').unwrap_or(series.len()));
            assert!(!name.is_empty(), "no name in {line:?}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'), "{line:?}");
            assert!(labels.is_empty() || labels.ends_with("\"}") && labels.contains("=\""), "{line:?}");
        }
        stop(&handle, join);
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let (handle, join, addr) = start("pipeline", 4, ServeConfig::default());
        let (mut w, mut r) = connect(addr);
        // Fire a burst without reading a single reply.
        for i in 0..4 {
            writeln!(w, "{{\"mode\":\"join\",\"k\":1,\"id\":\"t{i}\"}}").unwrap();
        }
        w.flush().unwrap();
        for i in 0..4 {
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            let v = wire::parse_json(line.trim()).unwrap();
            assert_eq!(v.get("query").unwrap().as_str(), Some(format!("t{i}").as_str()));
        }
        drop((w, r));
        stop(&handle, join);
    }

    #[test]
    fn oversized_line_gets_typed_error_then_close() {
        let cfg = ServeConfig { max_line_bytes: 256, ..ServeConfig::default() };
        let (handle, join, addr) = start("cap", 1, cfg);
        let (mut w, mut r) = connect(addr);
        // 4 KiB with no newline: far past the cap.
        w.write_all(&vec![b'x'; 4096]).unwrap();
        w.flush().unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        let v = wire::parse_json(line.trim()).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("invalid_request")
        );
        assert!(
            v.get("error").unwrap().get("detail").unwrap().as_str().unwrap().contains("exceeds"),
            "{line}"
        );
        // Connection must now be closed.
        let mut rest = String::new();
        r.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty());
        assert!(handle.metrics().overlong_lines >= 1);
        stop(&handle, join);
    }

    #[test]
    fn slow_request_line_is_cut_at_the_absolute_deadline() {
        let cfg = ServeConfig {
            read_timeout: Duration::from_millis(300),
            idle_timeout: Duration::from_secs(30),
            ..ServeConfig::default()
        };
        let (handle, join, addr) = start("loris", 1, cfg);
        let (mut w, mut r) = connect(addr);
        // Trickle bytes forever without a newline: the absolute deadline
        // must cut us off even though each byte "resets" nothing.
        let t0 = Instant::now();
        let mut reply = String::new();
        loop {
            if w.write_all(b"x").and_then(|()| w.flush()).is_err() {
                break; // server closed its read half
            }
            // A reply means the server sent the slow-read error.
            w.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
            match r.read_line(&mut reply) {
                Ok(0) => break,
                Ok(_) => break,
                Err(_) => {} // nothing yet, keep trickling
            }
            std::thread::sleep(Duration::from_millis(30));
            assert!(t0.elapsed() < Duration::from_secs(10), "never cut off");
        }
        assert!(
            t0.elapsed() >= Duration::from_millis(250),
            "cut off before the deadline: {:?}",
            t0.elapsed()
        );
        if !reply.trim().is_empty() {
            let v = wire::parse_json(reply.trim()).unwrap();
            assert!(v.get("error").is_some(), "{reply}");
        }
        // Meanwhile the server still answers a healthy connection.
        let (mut w2, mut r2) = connect(addr);
        let ok = roundtrip(&mut w2, &mut r2, r#"{"mode":"join","k":1,"id":"t0"}"#);
        assert!(ok.get("hits").is_some());
        assert!(handle.metrics().closed_slow_read >= 1);
        stop(&handle, join);
    }

    #[test]
    fn idle_connections_are_reaped() {
        let cfg = ServeConfig {
            idle_timeout: Duration::from_millis(300),
            ..ServeConfig::default()
        };
        let (handle, join, addr) = start("idle", 1, cfg);
        let (w, mut r) = connect(addr);
        let t0 = Instant::now();
        let mut rest = String::new();
        r.read_to_string(&mut rest).unwrap(); // blocks until server closes
        assert!(rest.is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(250));
        assert!(t0.elapsed() < Duration::from_secs(10));
        assert!(handle.metrics().closed_idle >= 1);
        drop(w);
        stop(&handle, join);
    }

    #[test]
    fn pool_stays_bounded_and_workers_are_reused() {
        let cfg = ServeConfig {
            max_connections: 2,
            ..ServeConfig::default()
        };
        let (handle, join, addr) = start("pool", 1, cfg);
        for _ in 0..20 {
            let (mut w, mut r) = connect(addr);
            let v = roundtrip(&mut w, &mut r, r#"{"mode":"join","k":1,"id":"t0"}"#);
            assert!(v.get("hits").is_some());
        }
        assert!(
            handle.worker_count() <= 2,
            "pool exceeded its bound: {} workers",
            handle.worker_count()
        );
        let m = handle.metrics();
        assert_eq!(m.accepted, 20);
        assert_eq!(m.requests_ok, 20);
        stop(&handle, join);
    }

    #[test]
    fn concurrent_clients_are_all_counted() {
        const CLIENTS: usize = 64;
        const QUERIES: usize = 8;
        let cfg = ServeConfig { max_connections: 2 * CLIENTS, ..ServeConfig::default() };
        let (handle, join, addr) = start("concurrent", QUERIES, cfg);
        // Every client connects before any sends, and none hangs up
        // before all have been answered, so 64 connections are open at once.
        let connected = std::sync::Barrier::new(CLIENTS);
        let answered = std::sync::Barrier::new(CLIENTS);
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                s.spawn(|| {
                    let (mut w, mut r) = connect(addr);
                    connected.wait();
                    for q in 0..QUERIES {
                        let req = format!(r#"{{"mode":"join","k":3,"id":"t{q}"}}"#);
                        let v = roundtrip(&mut w, &mut r, &req);
                        assert!(v.get("hits").is_some(), "{v:?}");
                    }
                    answered.wait();
                });
            }
        });
        let m = handle.metrics();
        assert_eq!(m.requests_ok, (CLIENTS * QUERIES) as u64);
        assert_eq!(m.shed, 0);
        assert!(handle.worker_count() <= 2 * CLIENTS, "{} workers", handle.worker_count());
        stop(&handle, join);
    }

    #[test]
    fn overload_sheds_with_an_unavailable_reply() {
        let cfg = ServeConfig {
            max_connections: 1,
            pending_capacity: 0,
            idle_timeout: Duration::from_secs(30),
            ..ServeConfig::default()
        };
        let (handle, join, addr) = start("shed", 1, cfg);
        // Occupy the only worker with a held-open connection, and prove
        // it is being served before provoking the shed.
        let (mut w1, mut r1) = connect(addr);
        let v = roundtrip(&mut w1, &mut r1, r#"{"mode":"join","k":1,"id":"t0"}"#);
        assert!(v.get("hits").is_some());

        // The next connection must be refused with a parseable line.
        let (_w2, mut r2) = connect(addr);
        let mut line = String::new();
        r2.read_line(&mut line).unwrap();
        let v = wire::parse_json(line.trim()).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        assert_eq!(v.get("error").unwrap().get("kind").unwrap().as_str(), Some("unavailable"));
        assert_eq!(v.get("client").unwrap().as_bool(), Some(false));
        assert!(handle.metrics().shed >= 1);

        // The first connection is still fine.
        let v = roundtrip(&mut w1, &mut r1, r#"{"op":"stats"}"#);
        assert!(v.get("stats").is_some());
        stop(&handle, join);
    }

    #[test]
    fn hot_swap_serves_new_snapshot_without_dropping_the_connection() {
        let (handle, join, addr) = start("swap", 1, ServeConfig::default());
        let (mut w, mut r) = connect(addr);
        let v = roundtrip(&mut w, &mut r, r#"{"mode":"join","k":1,"id":"t0"}"#);
        assert_eq!(v.get("corpus").unwrap().as_f64(), Some(1.0));

        // Build a bigger catalog and swap it in mid-connection.
        let (bigger, _dir) = searcher_with("swap_big", 3);
        assert_eq!(handle.swap_searcher(bigger), 1);

        let v = roundtrip(&mut w, &mut r, r#"{"mode":"join","k":1,"id":"t2"}"#);
        assert_eq!(v.get("corpus").unwrap().as_f64(), Some(3.0), "new snapshot visible");
        let v = roundtrip(&mut w, &mut r, r#"{"op":"stats"}"#);
        assert_eq!(v.get("stats").unwrap().get("reloads").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("stats").unwrap().get("tables").unwrap().as_f64(), Some(3.0));
        stop(&handle, join);
    }

    #[test]
    fn graceful_shutdown_finishes_in_flight_requests() {
        let (handle, join, addr) = start("shutdown", 1, ServeConfig::default());
        let (mut w, mut r) = connect(addr);
        let v = roundtrip(&mut w, &mut r, r#"{"mode":"join","k":1,"id":"t0"}"#);
        assert!(v.get("hits").is_some());
        stop(&handle, join);
        // New connections are refused once run() has returned.
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err()
                || TcpStream::connect(addr)
                    .and_then(|mut s| {
                        let mut buf = [0u8; 1];
                        s.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
                        s.read(&mut buf).map(|n| n == 0)
                    })
                    .unwrap_or(true),
            "server still serving after shutdown"
        );
    }

    #[test]
    fn invalid_utf8_line_is_answered_not_fatal() {
        let (handle, join, addr) = start("utf8", 1, ServeConfig::default());
        let (mut w, mut r) = connect(addr);
        w.write_all(&[0xff, 0xfe, b'\n']).unwrap();
        w.flush().unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        let v = wire::parse_json(line.trim()).unwrap();
        assert!(
            v.get("error").unwrap().get("detail").unwrap().as_str().unwrap().contains("UTF-8")
        );
        // Still serving on the same connection.
        let v = roundtrip(&mut w, &mut r, r#"{"mode":"join","k":1,"id":"t0"}"#);
        assert!(v.get("hits").is_some());
        stop(&handle, join);
    }

    #[test]
    fn execute_with_neither_csv_nor_id_is_a_typed_error() {
        // The old serve loop had `unreachable!` here; it must be a typed
        // InvalidRequest even though parse_line rejects the shape today.
        let (searcher, _dir) = searcher_with("neither", 1);
        let parsed = ServeRequest::parse_line(r#"{"mode":"join","id":"t0"}"#).unwrap();
        let req = ServeRequest { csv: None, id: None, ..parsed };
        match execute(&searcher, &req) {
            Err(StoreError::InvalidRequest(msg)) => {
                assert!(msg.contains("query table"), "{msg}")
            }
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
    }

    #[test]
    fn config_validation() {
        let (searcher, _dir) = searcher_with("cfg", 1);
        let bad = ServeConfig { max_connections: 0, ..ServeConfig::default() };
        assert!(matches!(
            Server::bind("127.0.0.1:0", searcher.clone(), bad),
            Err(StoreError::InvalidRequest(_))
        ));
        let bad = ServeConfig { max_line_bytes: 0, ..ServeConfig::default() };
        assert!(matches!(
            Server::bind("127.0.0.1:0", searcher, bad),
            Err(StoreError::InvalidRequest(_))
        ));
    }
}
