//! The bounded worker pool behind the serve frontend — the only module
//! in the workspace allowed to call `std::thread::spawn` (the
//! `no-spawn-outside-pool` lint pins it here).
//!
//! Two containment properties matter more than the dispatch mechanics:
//!
//! * **Panics stop at the worker.** A connection handler that panics is
//!   caught right here; the worker counts it
//!   (`tsfm_serve_worker_panics_total`), closes that connection, and goes
//!   back to the queue. Without the catch, one panicking handler would
//!   unwind through the worker while the `active`/`workers` counters
//!   still include it — the pool believes it has capacity it no longer
//!   has, and under load the acceptor sheds forever.
//! * **Poison stops nowhere.** All queue/condvar access goes through
//!   [`tsfm_obs::sync`]: even if a panic escapes while the queue mutex is
//!   held (an allocation failure inside `push_back`, say), the other
//!   workers and the acceptor recover the guard instead of cascading the
//!   panic through every `.lock().unwrap()` in the process.

use super::{serve_connection, Shared};
use crate::wire;
use std::io::Write;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tsfm_obs::sync::{lock_unpoisoned, wait_timeout_unpoisoned};

/// Idle pooled workers exit after this long without work.
const WORKER_LINGER: Duration = Duration::from_secs(10);

/// Shed / enqueue / spawn decision for one accepted connection, made
/// under the queue lock so it sees a coherent queue depth. Shed when
/// every worker slot is taken, none is idle, and the pending queue is
/// full: a parseable refusal beats stalling the client or growing
/// without bound.
pub(super) fn dispatch(shared: &Arc<Shared>, stream: TcpStream, joins: &mut Vec<JoinHandle<()>>) {
    let workers_now = shared.workers.load(Ordering::Relaxed);
    let idle_now = shared.idle_workers.load(Ordering::Relaxed);
    let need_spawn = {
        let mut q = lock_unpoisoned(&shared.queue);
        if workers_now >= shared.cfg.max_connections
            && idle_now == 0
            && q.len() >= shared.cfg.pending_capacity
        {
            drop(q);
            shared.metrics.shed.inc();
            shed(stream);
            return;
        }
        q.push_back(stream);
        // Spawn on queue depth, not on `idle == 0`: during a connect
        // burst a just-notified worker is still counted idle, and gating
        // on the stale flag would strand the whole burst behind one
        // worker.
        workers_now < shared.cfg.max_connections && idle_now < q.len()
    };
    if need_spawn {
        shared.workers.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(shared);
        joins.push(std::thread::spawn(move || worker_loop(&shared)));
    }
    shared.queue_cv.notify_one();
}

/// Best-effort one-line refusal to a connection we will not serve. Must
/// never block the acceptor: tiny write, short timeout.
fn shed(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut s = stream;
    let _ = s.write_all(wire::unavailable_json("server at connection capacity").as_bytes());
    let _ = s.write_all(b"\n");
}

/// Worker: serve queued connections until the pool shuts down or the
/// worker has lingered idle too long.
pub(super) fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let conn = {
            let mut q = lock_unpoisoned(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    shared.workers.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
                if let Some(c) = q.pop_front() {
                    break c;
                }
                shared.idle_workers.fetch_add(1, Ordering::Relaxed);
                let (guard, timeout) =
                    wait_timeout_unpoisoned(&shared.queue_cv, q, WORKER_LINGER);
                q = guard;
                shared.idle_workers.fetch_sub(1, Ordering::Relaxed);
                if timeout.timed_out() && q.is_empty() {
                    // Lingered long enough: trim the pool.
                    shared.workers.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
            }
        };
        shared.metrics.active.add(1);
        // Contain handler panics to this connection: the worker itself
        // must survive, with its counters balanced, or the pool leaks
        // capacity one panic at a time. `AssertUnwindSafe` is sound here
        // because everything the closure touches is either owned (the
        // stream, dropped on unwind) or lock-free/poison-tolerant shared
        // state that is valid at every intermediate step.
        let outcome = catch_unwind(AssertUnwindSafe(|| serve_connection(shared, conn)));
        shared.metrics.active.add(-1);
        if outcome.is_err() {
            shared.metrics.worker_panics.inc();
        }
    }
}
