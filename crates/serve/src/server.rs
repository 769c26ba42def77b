//! The sweep daemon: accept loop, admission, workers, per-connection
//! frame streaming.
//!
//! # Threading
//!
//! One [`Server::run`] call owns everything inside a thread scope:
//!
//! * the accept loop (the calling thread) polls a non-blocking listener
//!   and a shutdown flag;
//! * `workers` long-lived worker loops run *on the `cq-par` pool*, all
//!   draining one shared [`BoundedQueue`];
//! * each connection gets a handler thread that parses request lines,
//!   admits grids, and streams result frames back in completion order.
//!
//! # Backpressure
//!
//! Admission is all-or-nothing per request ([`BoundedQueue::try_push_batch`]):
//! a grid either fits the queue's free slots now or the client gets a
//! `rejected` frame with retry advice. The server never buffers an
//! unadmitted cell, so its memory under overload is bounded by
//! `queue_cap` plus per-connection line buffers.
//!
//! # Coalescing
//!
//! Identical in-flight cells are deduplicated at admission by the
//! [`Cell`] itself: its three preset names are a complete description
//! of the simulator's inputs (the [`registry`] contract), and no two
//! presets resolve to the same inputs, so equal cells are exactly the
//! cells with equal records. A cell already admitted-but-unfinished
//! attaches a *waiter* to the running job instead of consuming a queue
//! slot, and every waiter receives a clone of the primary's record, so
//! all requesters see byte-identical `record` payloads. Admission
//! resolves no preset; the worker resolves each cell once, when it
//! simulates it. Waiter registration participates in all-or-nothing
//! admission — a rejected batch detaches its waiters and unpublishes
//! its would-be primaries under the same lock. Each attachment
//! increments the `serve.coalesced` counter.
//!
//! # Failure semantics
//!
//! Workers run every cell once through [`cq_par::catch_task`], so a
//! poisoned cell (panic in the simulator) becomes a `cell_error` frame
//! carrying the panic message; sibling cells, other requests and the
//! worker itself are unaffected. Cells are deterministic, so a cell that
//! panicked is not retried. Request parse/validation failures never
//! reach the queue.

use crate::protocol::{parse_request, Cell, Frame, Request, SweepRequest};
use crate::registry;
use cq_accel::CambriconQ;
use cq_par::{BatchRejected, BoundedQueue, Pool};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

/// Test hook: runs on the worker right before a cell is simulated.
/// Panics it raises are isolated exactly like simulator panics, which is
/// how the tests drive the poisoned-cell path without patching the
/// simulator.
pub type FaultHook = Arc<dyn Fn(&Cell) + Send + Sync>;

/// Tunables of a [`Server`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker loops draining the cell queue (≥ 1).
    pub workers: usize,
    /// Queue capacity in cells; bounds admitted-but-unstarted work.
    pub queue_cap: usize,
    /// Advice sent with `rejected` frames.
    pub retry_after_ms: u64,
    /// Optional per-cell test hook (see [`FaultHook`]).
    pub fault: Option<FaultHook>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_cap: 256,
            retry_after_ms: 25,
            fault: None,
        }
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("workers", &self.workers)
            .field("queue_cap", &self.queue_cap)
            .field("retry_after_ms", &self.retry_after_ms)
            .field("fault", &self.fault.is_some())
            .finish()
    }
}

/// Simulates one validated cell and encodes the result as the exact
/// [`cq_sim::SimResult::to_record`] line. Pure and memoized behind the
/// process-wide `HwCostCache`, so repeated cells are served from cache
/// with byte-identical records. Errors only on unknown preset names.
pub fn simulate_cell(cell: &Cell) -> Result<String, String> {
    let net = registry::net(&cell.net).ok_or_else(|| format!("unknown net {:?}", cell.net))?;
    let config = registry::config(&cell.config)
        .ok_or_else(|| format!("unknown config {:?}", cell.config))?;
    let optimizer = registry::optimizer(&cell.optimizer)
        .ok_or_else(|| format!("unknown optimizer {:?}", cell.optimizer))?;
    Ok(CambriconQ::new(config)
        .simulate(&net, optimizer)
        .to_record())
}

/// The reply half of a sweep's result channel; errors arrive already
/// rendered so one outcome can fan out to every coalesced waiter.
type Reply = mpsc::Sender<(Cell, Result<String, String>)>;

struct Job {
    cell: Cell,
    reply: Reply,
}

/// A requester attached to another request's in-flight cell. `token`
/// identifies the owning request so a rejected batch can detach exactly
/// its own waiters; `cell` echoes the requester's keywords on its frame.
struct Waiter {
    token: u64,
    cell: Cell,
    reply: Reply,
}

/// A bound-but-not-yet-running sweep daemon.
pub struct Server {
    listener: TcpListener,
    queue: BoundedQueue<Job>,
    cfg: ServerConfig,
    shutdown: Arc<AtomicBool>,
    /// In-flight cells; the value holds the waiters to fan the
    /// primary's result out to. Present ⇒ admitted, unfinished.
    inflight: Mutex<HashMap<Cell, Vec<Waiter>>>,
    /// Request token source for waiter rollback.
    next_token: AtomicU64,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            queue: BoundedQueue::new(cfg.queue_cap),
            cfg,
            shutdown: Arc::new(AtomicBool::new(false)),
            inflight: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(0),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag that stops [`Server::run`] when set (from a signal
    /// handler's monitor thread, or a test).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serves until the shutdown flag is set (by a `shutdown` request or
    /// [`Server::shutdown_handle`]). On return every admitted cell has
    /// been computed and replied, the queue is closed, and all workers
    /// and connection handlers have exited.
    pub fn run(&self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let pool = Pool::new(self.cfg.workers.max(1));
        std::thread::scope(|s| {
            // Workers drain the queue on the cq-par pool; the fan-out
            // call blocks until the queue closes, so park it on its own
            // scope thread.
            s.spawn(|| {
                pool.parallel_map(self.cfg.workers.max(1), |w| self.worker_loop(w));
            });
            loop {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        cq_obs::counter!("serve.connections").incr();
                        s.spawn(|| self.handle_conn(stream));
                    }
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                    {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            // Stop admitting, let workers drain what was admitted.
            self.queue.close();
        });
        Ok(())
    }

    fn worker_loop(&self, _worker: usize) {
        while let Some(job) = self.queue.pop() {
            let Job { cell, reply } = job;
            let outcome = cq_par::catch_task(|| {
                if let Some(hook) = &self.cfg.fault {
                    hook(&cell);
                }
                simulate_cell(&cell).expect("cell presets validated at admission")
            })
            .map_err(|message| format!("panicked: {message}"));
            match &outcome {
                Ok(_) => cq_obs::counter!("serve.cells_ok").incr(),
                Err(_) => cq_obs::counter!("serve.cells_failed").incr(),
            }
            // Retire the in-flight entry first: once it is gone, a new
            // identical cell becomes a fresh primary instead of attaching
            // to a job that has already fanned out.
            let waiters = self
                .inflight
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&cell)
                .unwrap_or_default();
            for w in waiters {
                // Same `record`/`error` string for every requester — the
                // byte-identity contract of coalescing.
                let _ = w.reply.send((w.cell, outcome.clone()));
            }
            // A dropped receiver means the connection died mid-sweep;
            // the work is still cached for the next request.
            let _ = reply.send((cell, outcome));
        }
    }

    fn handle_conn(&self, stream: TcpStream) {
        // Frames are small and latency-sensitive; without TCP_NODELAY,
        // Nagle + delayed ACK adds ~40ms to every request round trip.
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(stream);
        let mut line = String::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                let _ = writeln!(writer, "{}", Frame::ShuttingDown.encode());
                let _ = writer.flush();
                return;
            }
            match reader.read_line(&mut line) {
                Ok(0) => return, // EOF
                Ok(_) => {
                    let complete = line.ends_with('\n');
                    let trimmed = line.trim().to_string();
                    if complete {
                        line.clear();
                    }
                    if !trimmed.is_empty() && !self.handle_line(&trimmed, &mut writer) {
                        return;
                    }
                    if !complete {
                        // Final unterminated line before EOF.
                        return;
                    }
                }
                // Timeout: loop to re-check the shutdown flag. Data read
                // before the timeout stays accumulated in `line`.
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => return,
            }
        }
    }

    /// Handles one request line; returns `false` when the connection
    /// should close (shutdown acknowledged or the peer is gone).
    fn handle_line(&self, line: &str, writer: &mut BufWriter<TcpStream>) -> bool {
        cq_obs::counter!("serve.requests").incr();
        let send = |writer: &mut BufWriter<TcpStream>, frame: Frame| -> bool {
            writeln!(writer, "{}", frame.encode()).is_ok() && writer.flush().is_ok()
        };
        match parse_request(line) {
            Err(e) => {
                cq_obs::counter!("serve.bad_requests").incr();
                send(writer, Frame::Error { error: e })
            }
            Ok(Request::Ping) => send(writer, Frame::Pong),
            Ok(Request::Shutdown) => {
                self.shutdown.store(true, Ordering::SeqCst);
                let _ = send(writer, Frame::ShuttingDown);
                false
            }
            Ok(Request::Sweep(req)) => self.handle_sweep(&req, writer, &send),
        }
    }

    fn handle_sweep(
        &self,
        req: &SweepRequest,
        writer: &mut BufWriter<TcpStream>,
        send: &dyn Fn(&mut BufWriter<TcpStream>, Frame) -> bool,
    ) -> bool {
        let cells = req.cells();
        let n = cells.len();
        let (tx, rx) = mpsc::channel();
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        // Admission runs under the in-flight lock so registration and the
        // queue push are atomic with respect to worker fan-out: a cell
        // already in flight (from any request, or earlier in this very
        // grid) attaches a waiter instead of consuming a slot.
        let (admitted, needed) = {
            let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
            let mut jobs = Vec::new();
            let mut primaries: Vec<Cell> = Vec::new();
            let mut joined: Vec<Cell> = Vec::new();
            for cell in cells {
                if let Some(waiters) = inflight.get_mut(&cell) {
                    joined.push(cell.clone());
                    waiters.push(Waiter {
                        token,
                        cell,
                        reply: tx.clone(),
                    });
                } else {
                    inflight.insert(cell.clone(), Vec::new());
                    primaries.push(cell.clone());
                    jobs.push(Job {
                        cell,
                        reply: tx.clone(),
                    });
                }
            }
            let needed = jobs.len();
            let coalesced = joined.len();
            let admitted = self.queue.try_push_batch(jobs);
            if admitted.is_err() {
                // All-or-nothing rollback: unpublish this request's
                // would-be primaries and detach exactly its waiters.
                for key in &primaries {
                    inflight.remove(key);
                }
                for key in &joined {
                    if let Some(waiters) = inflight.get_mut(key) {
                        waiters.retain(|w| w.token != token);
                    }
                }
            } else if coalesced > 0 {
                cq_obs::counter!("serve.coalesced").add(coalesced as u64);
            }
            (admitted, needed)
        };
        drop(tx);
        match admitted {
            Ok(()) => {
                cq_obs::counter!("serve.accepted").incr();
                if !send(
                    writer,
                    Frame::Accepted {
                        id: req.id.clone(),
                        cells: n,
                    },
                ) {
                    return false;
                }
                let mut errors = 0usize;
                for _ in 0..n {
                    // Every admitted job replies exactly once, even
                    // through shutdown (close() drains the queue).
                    let Ok((cell, outcome)) = rx.recv() else {
                        return false;
                    };
                    let frame = match outcome {
                        Ok(record) => Frame::Cell {
                            id: req.id.clone(),
                            cell,
                            record,
                        },
                        Err(error) => {
                            errors += 1;
                            Frame::CellError {
                                id: req.id.clone(),
                                cell,
                                error,
                            }
                        }
                    };
                    if !send(writer, frame) {
                        return false;
                    }
                }
                send(
                    writer,
                    Frame::Done {
                        id: req.id.clone(),
                        cells: n,
                        errors,
                        counters: self.done_counters(),
                    },
                )
            }
            Err(BatchRejected::Full { available, .. }) => {
                cq_obs::counter!("serve.rejected").incr();
                send(
                    writer,
                    Frame::Rejected {
                        id: req.id.clone(),
                        reason: format!(
                            "queue full ({available} of {} slots free, {needed} needed)",
                            self.queue.capacity()
                        ),
                        retry_after_ms: self.cfg.retry_after_ms,
                    },
                )
            }
            Err(BatchRejected::TooLarge { capacity, .. }) => {
                cq_obs::counter!("serve.oversized").incr();
                send(
                    writer,
                    Frame::Error {
                        error: format!(
                            "sweep of {n} cells ({needed} after coalescing) can never fit \
                             queue capacity {capacity}; split the request"
                        ),
                    },
                )
            }
            Err(BatchRejected::Closed { .. }) => {
                let _ = send(writer, Frame::ShuttingDown);
                false
            }
        }
    }

    /// The `sim.*`/`serve.*` counter snapshot attached to `done` frames,
    /// plus the queue's high-water mark.
    fn done_counters(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = cq_obs::counters_snapshot()
            .into_iter()
            .filter(|(name, _)| name.starts_with("sim.") || name.starts_with("serve."))
            .map(|(name, v)| (name.to_string(), v))
            .collect();
        out.push(("serve.queue_peak".to_string(), self.queue.peak_len() as u64));
        out
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .field("queue", &self.queue)
            .field("cfg", &self.cfg)
            .finish()
    }
}
