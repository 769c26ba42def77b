//! Closed-loop load generation against a running daemon.
//!
//! Shared by the `cq_loadgen` binary and the e2e tests: each client keeps
//! exactly one sweep outstanding, retries `rejected` responses after
//! the server's advice, and (optionally) recomputes every streamed
//! record locally to assert byte-identity with a direct
//! [`crate::simulate_cell`] call.

use crate::protocol::{Frame, SweepRequest};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// What a load run should do.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Daemon address, e.g. `127.0.0.1:4655`.
    pub addr: String,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Sweeps each client submits.
    pub requests: usize,
    /// Network presets each sweep crosses.
    pub nets: Vec<String>,
    /// Config presets each sweep crosses.
    pub configs: Vec<String>,
    /// Optimizer presets each sweep crosses.
    pub optimizers: Vec<String>,
    /// Recompute every record locally and compare bytes.
    pub check: bool,
}

impl LoadOptions {
    /// A small deterministic default grid (2 cells per sweep).
    pub fn quick(addr: &str) -> LoadOptions {
        LoadOptions {
            addr: addr.to_string(),
            clients: 2,
            requests: 3,
            nets: vec!["squeezenet".into()],
            configs: vec!["edge".into()],
            optimizers: vec!["sgd".into(), "adam".into()],
            check: true,
        }
    }

    /// The default sustained-load grid (4 cells per sweep).
    pub fn standard(addr: &str) -> LoadOptions {
        LoadOptions {
            addr: addr.to_string(),
            clients: 4,
            requests: 8,
            nets: vec!["squeezenet".into(), "lstm".into()],
            configs: vec!["edge".into()],
            optimizers: vec!["sgd".into(), "adam".into()],
            check: false,
        }
    }

    fn cells_per_request(&self) -> usize {
        self.nets.len() * self.configs.len() * self.optimizers.len()
    }
}

/// Aggregate outcome of a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Sweeps submitted (clients × requests).
    pub requests: usize,
    /// Sweeps that reached a `done` frame.
    pub completed: usize,
    /// `rejected` frames absorbed (each is followed by a retry).
    pub rejections: u64,
    /// `cell` frames received.
    pub cell_frames: u64,
    /// `cell_error` frames received.
    pub cell_errors: u64,
    /// Records that differed from a local recompute (`check` mode).
    pub mismatches: u64,
    /// Transport/protocol errors that aborted a client.
    pub client_errors: u64,
    /// Wall-clock for the whole run, milliseconds.
    pub elapsed_ms: f64,
    /// Completed requests per second (includes retry time).
    pub req_per_s: f64,
    /// Median completed-sweep latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile completed-sweep latency, microseconds.
    pub p99_us: u64,
}

impl LoadReport {
    /// True when every sweep completed with no errors or mismatches.
    pub fn is_clean(&self) -> bool {
        self.completed == self.requests
            && self.cell_errors == 0
            && self.mismatches == 0
            && self.client_errors == 0
    }

    /// One-line JSON rendering (hand-built; matches the repo's
    /// no-serde JSON style).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"requests\":{},\"completed\":{},\"rejections\":{},\"cell_frames\":{},\
             \"cell_errors\":{},\"mismatches\":{},\"client_errors\":{},\"elapsed_ms\":{:.3},\
             \"req_per_s\":{:.3},\"p50_us\":{},\"p99_us\":{}}}",
            self.requests,
            self.completed,
            self.rejections,
            self.cell_frames,
            self.cell_errors,
            self.mismatches,
            self.client_errors,
            self.elapsed_ms,
            self.req_per_s,
            self.p50_us,
            self.p99_us,
        )
    }
}

/// Per-client tally folded into the final [`LoadReport`].
#[derive(Default)]
struct ClientStats {
    completed: usize,
    rejections: u64,
    cell_frames: u64,
    cell_errors: u64,
    mismatches: u64,
    client_errors: u64,
    latencies_us: Vec<u64>,
}

/// Runs the closed-loop clients and aggregates their stats.
pub fn run_load(opts: &LoadOptions) -> LoadReport {
    let started = Instant::now();
    let stats: Vec<ClientStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..opts.clients.max(1))
            .map(|c| s.spawn(move || run_client(opts, c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let elapsed = started.elapsed();

    let mut report = LoadReport {
        requests: opts.clients.max(1) * opts.requests,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        ..LoadReport::default()
    };
    let mut latencies: Vec<u64> = Vec::new();
    for st in stats {
        report.completed += st.completed;
        report.rejections += st.rejections;
        report.cell_frames += st.cell_frames;
        report.cell_errors += st.cell_errors;
        report.mismatches += st.mismatches;
        report.client_errors += st.client_errors;
        latencies.extend(st.latencies_us);
    }
    latencies.sort_unstable();
    report.p50_us = percentile(&latencies, 50);
    report.p99_us = percentile(&latencies, 99);
    if elapsed.as_secs_f64() > 0.0 {
        report.req_per_s = report.completed as f64 / elapsed.as_secs_f64();
    }
    report
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() - 1) * pct / 100;
    sorted[idx]
}

fn run_client(opts: &LoadOptions, client: usize) -> ClientStats {
    let mut st = ClientStats::default();
    let Ok(stream) = TcpStream::connect(&opts.addr) else {
        st.client_errors += opts.requests as u64;
        return st;
    };
    // Request lines are small; Nagle would serialize them behind ACKs.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        st.client_errors += opts.requests as u64;
        return st;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let expected_cells = opts.cells_per_request();

    for r in 0..opts.requests {
        let req = SweepRequest {
            id: format!("c{client}-r{r}"),
            nets: opts.nets.clone(),
            configs: opts.configs.clone(),
            optimizers: opts.optimizers.clone(),
        };
        let begun = Instant::now();
        match drive_request(
            &req,
            &mut reader,
            &mut writer,
            expected_cells,
            opts,
            &mut st,
        ) {
            Ok(()) => {
                st.completed += 1;
                st.latencies_us
                    .push(begun.elapsed().as_micros().min(u64::MAX as u128) as u64);
            }
            Err(()) => {
                st.client_errors += 1;
                return st; // connection is unusable past a transport error
            }
        }
    }
    st
}

/// Submits one sweep, absorbing `rejected` responses with retries,
/// until its `done` frame arrives. `Err(())` means the connection died.
fn drive_request(
    req: &SweepRequest,
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    expected_cells: usize,
    opts: &LoadOptions,
    st: &mut ClientStats,
) -> Result<(), ()> {
    loop {
        writeln!(writer, "{}", req.encode()).map_err(|_| ())?;
        writer.flush().map_err(|_| ())?;
        let mut seen_cells = 0usize;
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return Err(()),
                Ok(_) => {}
            }
            let Ok(frame) = Frame::parse(line.trim()) else {
                return Err(());
            };
            match frame {
                Frame::Accepted { .. } => {}
                Frame::Cell { cell, record, .. } => {
                    st.cell_frames += 1;
                    seen_cells += 1;
                    if opts.check {
                        match crate::simulate_cell(&cell) {
                            Ok(local) if local == record => {}
                            _ => st.mismatches += 1,
                        }
                    }
                }
                Frame::CellError { .. } => {
                    st.cell_errors += 1;
                    seen_cells += 1;
                }
                Frame::Done { cells, .. } => {
                    if cells != expected_cells || seen_cells != cells {
                        st.client_errors += 1;
                    }
                    return Ok(());
                }
                Frame::Rejected { retry_after_ms, .. } => {
                    st.rejections += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                    break; // resubmit the same sweep
                }
                Frame::Error { .. } | Frame::ShuttingDown | Frame::Pong => return Err(()),
            }
        }
    }
}
