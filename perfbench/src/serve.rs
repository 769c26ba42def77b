//! `serve_warm`: the sweep daemon answering a search-loop client from a
//! warm cache, over one persistent connection in a closed loop.

use crate::report::SIM_NETS;
use crate::runner::{span, Pass, Timings, Workload};
use crate::util::{stream_seed, Digest, Rng};
use cq_accel::CambriconQ;
use cq_serve::registry::{self, CONFIGS, NETS, OPTIMIZERS};
use cq_serve::{simulate_cell, Cell, Frame, Server, ServerConfig, SweepRequest};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cells per request: 5 nets × 4 configs × 3 optimizers.
pub const GRID_CELLS: usize = 5 * 4 * 3;

/// The seeded grid of request `index`: 5 of the 7 nets, 4 of the 5
/// configs and 3 of the 4 optimizers.
pub fn grid(seed: u64, index: usize) -> SweepRequest {
    let stream = (1 << 40) | index as u64;
    let mut rng = Rng::new(stream_seed(seed, stream));
    let mut pick = |names: &[&str], k: usize| -> Vec<String> {
        rng.choose_sorted(names.len(), k)
            .into_iter()
            .map(|i| names[i].to_string())
            .collect()
    };
    SweepRequest {
        id: format!("r{index}"),
        nets: pick(&NETS, 5),
        configs: pick(&CONFIGS, 4),
        optimizers: pick(&OPTIMIZERS, 3),
    }
}

/// What one request came back with.
struct Answer {
    /// Records in grid order, digested.
    digest: u64,
    /// Cell frames equal to the record simulated in-process at set-up.
    matched: usize,
    /// Counters of the `done` frame.
    counters: Vec<(String, u64)>,
    /// Why the request failed, if it did.
    error: Option<String>,
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A daemon that stops answering fails the op instead of hanging
        // the run.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            line: String::new(),
        })
    }

    fn frame(&mut self) -> Result<Frame, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Frame::parse(self.line.trim()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Sends one sweep and reads its frames through `done`. A refused,
    /// failed or short request, or any record that differs from
    /// `expected`, fails (after the stream is drained to `done`, so the
    /// connection stays in step).
    fn request(&mut self, req: &SweepRequest, expected: &HashMap<Cell, String>) -> Answer {
        let cells = req.cells();
        let mut got: Vec<Option<String>> = vec![None; cells.len()];
        let mut answer = Answer {
            digest: 0,
            matched: 0,
            counters: Vec::new(),
            error: None,
        };
        let mut problems = Vec::new();
        if let Err(e) = writeln!(self.writer, "{}", req.encode()).and_then(|()| self.writer.flush())
        {
            answer.error = Some(format!("write: {e}"));
            return answer;
        }
        loop {
            let frame = match self.frame() {
                Ok(f) => f,
                Err(e) => {
                    problems.push(e);
                    break;
                }
            };
            match frame {
                Frame::Accepted { cells: n, .. } if n == cells.len() => {}
                Frame::Cell { cell, record, .. } => match cells.iter().position(|c| *c == cell) {
                    Some(i) if got[i].is_none() => {
                        if expected.get(&cell) == Some(&record) {
                            answer.matched += 1;
                        } else {
                            problems.push(format!("{cell}: record differs"));
                        }
                        got[i] = Some(record);
                    }
                    _ => problems.push(format!("{cell}: unexpected cell frame")),
                },
                Frame::CellError { cell, error, .. } => problems.push(format!("{cell}: {error}")),
                Frame::Done {
                    cells: n,
                    errors,
                    counters,
                    ..
                } => {
                    if n != cells.len() || errors != 0 || got.iter().any(Option::is_none) {
                        problems.push(format!("done after {n} cells, {errors} errors"));
                    }
                    answer.counters = counters;
                    break;
                }
                other => {
                    problems.push(format!("unexpected frame {}", other.encode()));
                    break;
                }
            }
        }
        let mut digest = Digest::default();
        for r in got.iter().flatten() {
            digest.write(r.as_bytes());
        }
        answer.digest = digest.value();
        if !problems.is_empty() {
            answer.error = Some(problems.join("; "));
        }
        answer
    }
}

/// `serve_warm` state: a running in-process daemon, its warm cache, the
/// records every preset cell must come back as, and the connection.
pub struct ServeWarm {
    seed: u64,
    expected: HashMap<Cell, String>,
    client: Option<Client>,
    /// Requests sent so far (indexes the seeded grids).
    sent: usize,
    /// Grids of the last pass, in op order.
    last_grids: Vec<SweepRequest>,
    /// Highest value of each counter over the last pass's `done` frames.
    done_counters: BTreeMap<String, u64>,
    shutdown: Arc<AtomicBool>,
    server: Option<JoinHandle<std::io::Result<()>>>,
}

impl Drop for ServeWarm {
    fn drop(&mut self) {
        // Close the connection first so its handler sees EOF, then stop
        // the accept loop and wait for the daemon to drain.
        self.client = None;
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

/// Every preset cell (7 nets × 5 configs × 4 optimizers).
fn all_cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for net in NETS {
        for config in CONFIGS {
            for optimizer in OPTIMIZERS {
                out.push(Cell {
                    net: net.to_string(),
                    config: config.to_string(),
                    optimizer: optimizer.to_string(),
                });
            }
        }
    }
    out
}

impl Workload for ServeWarm {
    const NAME: &'static str = "serve_warm";
    const COMPOSITION: &'static str = "one sweep request of a seeded 5 nets x 4 configs x \
        3 optimizers grid (60 cells) on a persistent connection to an in-process \
        cq_serve::Server (default config) with a warm cache; closed loop";
    const NOMINAL_OPS_PER_S: f64 = 200.0;
    const WARMUP_OPS: usize = 40;

    fn setup(seed: u64) -> Result<Self, String> {
        cq_accel::clear_sim_cache();
        let server = Server::bind("127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("bind daemon: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run());
        let mut w = ServeWarm {
            seed,
            expected: HashMap::new(),
            client: None,
            sent: 0,
            last_grids: Vec::new(),
            done_counters: BTreeMap::new(),
            shutdown,
            server: Some(handle),
        };
        // Warm the process-wide cache serially, in-process, recording
        // the record every cell must come back as.
        for cell in all_cells() {
            let record = simulate_cell(&cell)?;
            w.expected.insert(cell, record);
        }
        w.client = Some(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
        let warm = w.run(Self::WARMUP_OPS, false);
        if warm.failed > 0 {
            return Err(format!(
                "serve_warm: {} warm-up requests failed",
                warm.failed
            ));
        }
        Ok(w)
    }

    fn run(&mut self, ops: usize, _traced: bool) -> Pass {
        let grids: Vec<SweepRequest> = (0..ops).map(|j| grid(self.seed, self.sent + j)).collect();
        self.sent += ops;
        self.done_counters.clear();
        let client = self.client.as_mut().expect("connected at set-up");
        let mut timings = Timings {
            ops: Vec::with_capacity(ops),
            window_s: 0.0,
        };
        let (mut failed, mut matched) = (0, 0);
        let mut digest = Digest::default();
        let start = Instant::now();
        for (op, req) in grids.iter().enumerate() {
            let mut sp = span("serve.request", op);
            sp.arg("cells", GRID_CELLS);
            let a = timings.time(|| client.request(req, &self.expected));
            drop(sp);
            digest.write_u64(a.digest);
            matched += a.matched;
            failed += usize::from(a.error.is_some());
            for (k, v) in a.counters {
                let e = self.done_counters.entry(k).or_default();
                *e = (*e).max(v);
            }
        }
        timings.window_s = start.elapsed().as_secs_f64();
        self.last_grids = grids;
        Pass {
            timings,
            failed,
            digest: digest.value(),
            heldout_acc: matched as f64 / (ops * GRID_CELLS) as f64,
            checks_ok: true,
        }
    }

    fn replay(&mut self, pass: &Pass) -> Vec<(&'static str, f64)> {
        let ops = pass.ops();
        let n = crate::runner::REPLAYS.min(ops);
        let mut cold = HashSet::new();
        for r in 0..n {
            let op = r * ops / n;
            for cell in self.last_grids[op].cells() {
                let chip = CambriconQ::new(registry::config(&cell.config).expect("preset"));
                let net = registry::net(&cell.net).expect("preset");
                let opt = registry::optimizer(&cell.optimizer).expect("preset");
                {
                    let _sp = span("accel.cache_key", op);
                    std::hint::black_box(chip.cache_key(&net, opt));
                }
                {
                    let _sp = span("serve.simulate_cell", op);
                    let _ = std::hint::black_box(simulate_cell(&cell));
                }
                // The simulator's cold path, which the daemon's warm-up
                // (in `setup_s`) runs once per cell: each distinct cell
                // of the six benchmark networks, simulated again with
                // the cache off.
                let key = SIM_NETS
                    .iter()
                    .find(|(k, _)| *k == cell.net)
                    .map(|(k, _)| *k);
                if let Some(key) = key.filter(|_| cold.insert(cell.clone())) {
                    cq_sim::set_hwcache_enabled(false);
                    {
                        let mut sp = span("accel.simulate", op);
                        sp.arg("net", key).arg("layers", net.layers.len());
                        std::hint::black_box(chip.simulate(&net, opt));
                    }
                    cq_sim::set_hwcache_enabled(true);
                }
            }
        }
        let counter = |name: &str| self.done_counters.get(name).copied().unwrap_or(0) as f64;
        vec![
            ("serve.accepted", counter("serve.accepted")),
            ("serve.rejected", counter("serve.rejected")),
            ("serve.coalesced", counter("serve.coalesced")),
            ("serve.queue_peak", counter("serve.queue_peak")),
            ("serve.cells_ok", counter("serve.cells_ok")),
            ("serve.cells_failed", counter("serve.cells_failed")),
        ]
    }
}
