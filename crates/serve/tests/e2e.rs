//! End-to-end daemon tests over real sockets: byte-identity with the
//! in-process simulator, bounded-queue backpressure, poisoned-cell
//! isolation, and graceful shutdown.

use cq_serve::{simulate_cell, Cell, Frame, LoadOptions, Server, ServerConfig, SweepRequest};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Binds an ephemeral port and serves on a background thread.
fn start(cfg: ServerConfig) -> (String, Arc<AtomicBool>, JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));
    (addr, handle, join)
}

fn stop(handle: &Arc<AtomicBool>, join: JoinHandle<()>) {
    handle.store(true, Ordering::SeqCst);
    join.join().expect("server thread");
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let read_half = stream.try_clone().expect("clone");
        Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Frame {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        Frame::parse(line.trim()).expect("frame")
    }
}

fn sweep(id: &str, nets: &[&str], configs: &[&str], optimizers: &[&str]) -> SweepRequest {
    let owned = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
    SweepRequest {
        id: id.into(),
        nets: owned(nets),
        configs: owned(configs),
        optimizers: owned(optimizers),
    }
}

/// A reusable open/wait latch for fault hooks.
#[derive(Clone)]
struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    fn new() -> Gate {
        Gate(Arc::new((Mutex::new(false), Condvar::new())))
    }

    fn open(&self) {
        let (m, c) = &*self.0;
        *m.lock().unwrap() = true;
        c.notify_all();
    }

    fn wait(&self) {
        let (m, c) = &*self.0;
        let mut open = m.lock().unwrap();
        while !*open {
            open = c.wait(open).unwrap();
        }
    }
}

#[test]
fn daemon_records_are_byte_identical_to_direct_simulation() {
    let (addr, handle, join) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr);

    let req = sweep(
        "ident",
        &["squeezenet"],
        &["edge", "edge-int4"],
        &["sgd", "adam"],
    );
    let expected: Vec<Cell> = req.cells();
    client.send(&req.encode());

    match client.recv() {
        Frame::Accepted { id, cells } => {
            assert_eq!(id, "ident");
            assert_eq!(cells, 4);
        }
        other => panic!("expected accepted, got {other:?}"),
    }
    let mut seen = 0;
    loop {
        match client.recv() {
            Frame::Cell { id, cell, record } => {
                assert_eq!(id, "ident");
                assert!(expected.contains(&cell), "unexpected cell {cell}");
                // The acceptance criterion: daemon bytes == direct bytes.
                assert_eq!(record, simulate_cell(&cell).unwrap(), "cell {cell}");
                seen += 1;
            }
            Frame::Done {
                id,
                cells,
                errors,
                counters,
            } => {
                assert_eq!(id, "ident");
                assert_eq!((cells, errors), (4, 0));
                assert!(
                    counters.iter().any(|(k, _)| k == "serve.cells_ok"),
                    "done frame carries serve.* counters: {counters:?}"
                );
                assert!(
                    counters.iter().any(|(k, _)| k.starts_with("sim.")),
                    "done frame carries sim.* counters: {counters:?}"
                );
                break;
            }
            other => panic!("expected cell/done, got {other:?}"),
        }
    }
    assert_eq!(seen, 4);

    // Same sweep again: records must be stable (served from cache).
    client.send(
        &sweep(
            "ident2",
            &["squeezenet"],
            &["edge", "edge-int4"],
            &["sgd", "adam"],
        )
        .encode(),
    );
    loop {
        match client.recv() {
            Frame::Cell { cell, record, .. } => {
                assert_eq!(record, simulate_cell(&cell).unwrap());
            }
            Frame::Done { errors, .. } => {
                assert_eq!(errors, 0);
                break;
            }
            Frame::Accepted { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }

    stop(&handle, join);
}

#[test]
fn invalid_requests_get_error_frames_and_the_connection_survives() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut client = Client::connect(&addr);

    client.send("{\"type\":\"ping\"}");
    assert_eq!(client.recv(), Frame::Pong);

    for bad in [
        "this is not json",
        "{\"id\":\"x\",\"nets\":[\"nope\"],\"configs\":[\"edge\"],\"optimizers\":[\"sgd\"]}",
        "{\"type\":\"sweep\"}",
    ] {
        client.send(bad);
        match client.recv() {
            Frame::Error { error } => assert!(!error.is_empty()),
            other => panic!("expected error frame for {bad:?}, got {other:?}"),
        }
    }

    // Still serviceable after three bad requests.
    client.send("{\"type\":\"ping\"}");
    assert_eq!(client.recv(), Frame::Pong);

    stop(&handle, join);
}

#[test]
fn full_queue_rejects_with_retry_advice_and_oversized_grids_error() {
    let gate = Gate::new();
    let entered = Gate::new();
    let hook = {
        let (gate, entered) = (gate.clone(), entered.clone());
        move |_cell: &Cell| {
            entered.open();
            gate.wait();
        }
    };
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_cap: 1,
        retry_after_ms: 7,
        fault: Some(Arc::new(hook)),
    });

    // A: admitted immediately, popped by the lone worker, which then
    // blocks inside the fault hook.
    let mut a = Client::connect(&addr);
    a.send(&sweep("a", &["squeezenet"], &["edge"], &["sgd"]).encode());
    assert!(matches!(a.recv(), Frame::Accepted { cells: 1, .. }));
    entered.wait(); // the worker is now provably busy with A's cell

    // B: fills the queue's single slot.
    let mut b = Client::connect(&addr);
    b.send(&sweep("b", &["squeezenet"], &["edge"], &["adam"]).encode());
    assert!(matches!(b.recv(), Frame::Accepted { cells: 1, .. }));

    // C: nothing free -> rejected with the configured retry advice,
    // and nothing about C is buffered server-side.
    let mut c = Client::connect(&addr);
    let creq = sweep("c", &["squeezenet"], &["edge"], &["rmsprop"]);
    c.send(&creq.encode());
    match c.recv() {
        Frame::Rejected {
            id,
            reason,
            retry_after_ms,
        } => {
            assert_eq!(id, "c");
            assert!(reason.contains("queue full"), "{reason}");
            assert_eq!(retry_after_ms, 7);
        }
        other => panic!("expected rejected, got {other:?}"),
    }

    // A grid bigger than the queue can never be admitted — unless it
    // coalesces. These cells are not in flight (C's rmsprop was
    // rejected, adagrad never submitted), so the typed error fires
    // instead of an infinite retry loop.
    let mut big = Client::connect(&addr);
    big.send(&sweep("big", &["squeezenet"], &["edge"], &["adagrad", "rmsprop"]).encode());
    match big.recv() {
        Frame::Error { error } => assert!(error.contains("can never fit"), "{error}"),
        other => panic!("expected error, got {other:?}"),
    }

    // Unblock the worker: A and B complete, and C's retry succeeds.
    gate.open();
    for client in [&mut a, &mut b] {
        loop {
            match client.recv() {
                Frame::Done { errors, .. } => {
                    assert_eq!(errors, 0);
                    break;
                }
                Frame::Cell { .. } => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    c.send(&creq.encode());
    loop {
        match c.recv() {
            Frame::Done { errors, .. } => {
                assert_eq!(errors, 0);
                break;
            }
            Frame::Accepted { .. } | Frame::Cell { .. } => {}
            Frame::Rejected { retry_after_ms, .. } => {
                // Worker may still be finishing B; honour the advice.
                std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                c.send(&creq.encode());
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    stop(&handle, join);
}

#[test]
fn duplicate_inflight_cells_coalesce_without_queue_slots() {
    let gate = Gate::new();
    let entered = Gate::new();
    let hook = {
        let (gate, entered) = (gate.clone(), entered.clone());
        move |cell: &Cell| {
            // Block only the first (sgd) cell so duplicates provably
            // arrive while it is in flight; the adam cell runs free.
            if cell.optimizer == "sgd" {
                entered.open();
                gate.wait();
            }
        }
    };
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_cap: 1,
        fault: Some(Arc::new(hook)),
        ..ServerConfig::default()
    });

    // A: admitted, popped by the lone worker, blocked inside the hook.
    let mut a = Client::connect(&addr);
    a.send(&sweep("a", &["squeezenet"], &["edge"], &["sgd"]).encode());
    assert!(matches!(a.recv(), Frame::Accepted { cells: 1, .. }));
    entered.wait();

    // X: a *different* cell fills the queue's only slot.
    let mut x = Client::connect(&addr);
    x.send(&sweep("x", &["squeezenet"], &["edge"], &["adam"]).encode());
    assert!(matches!(x.recv(), Frame::Accepted { cells: 1, .. }));

    // B: identical to A's in-flight cell. The queue is full, so without
    // coalescing this would be rejected; with coalescing it attaches a
    // waiter and is accepted without consuming a slot.
    let mut b = Client::connect(&addr);
    b.send(&sweep("b", &["squeezenet"], &["edge"], &["sgd"]).encode());
    assert!(matches!(b.recv(), Frame::Accepted { cells: 1, .. }));

    // C: two copies of the same cell in one grid (duplicate net
    // keyword) — both coalesce onto A's job, zero slots needed even
    // though the grid is bigger than the whole queue.
    let mut c = Client::connect(&addr);
    c.send(&sweep("c", &["squeezenet", "squeezenet"], &["edge"], &["sgd"]).encode());
    assert!(matches!(c.recv(), Frame::Accepted { cells: 2, .. }));

    gate.open();

    let collect = |client: &mut Client, want_cells: usize| -> Vec<String> {
        let mut records = Vec::new();
        loop {
            match client.recv() {
                Frame::Cell { record, .. } => records.push(record),
                Frame::Done {
                    cells,
                    errors,
                    counters,
                    ..
                } => {
                    assert_eq!((cells, errors), (want_cells, 0));
                    assert!(
                        counters
                            .iter()
                            .any(|(k, v)| k == "serve.coalesced" && *v >= 3),
                        "serve.coalesced should count all 3 attached waiters: {counters:?}"
                    );
                    break;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        records
    };
    let ra = collect(&mut a, 1);
    let rb = collect(&mut b, 1);
    let rc = collect(&mut c, 2);
    let _ = collect(&mut x, 1);

    // Byte-identity across every requester of the coalesced cell, and
    // against a direct in-process simulation.
    let direct = simulate_cell(&Cell {
        net: "squeezenet".into(),
        config: "edge".into(),
        optimizer: "sgd".into(),
    })
    .unwrap();
    assert_eq!(ra, vec![direct.clone()]);
    assert_eq!(rb, ra, "coalesced requester must get byte-identical record");
    assert_eq!(rc, vec![direct.clone(), direct]);

    stop(&handle, join);
}

#[test]
fn poisoned_cell_becomes_cell_error_and_siblings_survive() {
    // The hook counts its calls per optimizer, so the test can see how
    // often the worker ran each cell.
    let calls: Arc<Mutex<HashMap<String, usize>>> = Arc::default();
    let hook = {
        let calls = Arc::clone(&calls);
        move |cell: &Cell| {
            *calls
                .lock()
                .unwrap()
                .entry(cell.optimizer.clone())
                .or_default() += 1;
            if cell.optimizer == "adagrad" {
                panic!("poisoned cell {cell}");
            }
        }
    };
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        fault: Some(Arc::new(hook)),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr);
    client.send(&sweep("p", &["squeezenet"], &["edge"], &["sgd", "adagrad", "adam"]).encode());

    assert!(matches!(client.recv(), Frame::Accepted { cells: 3, .. }));
    let (mut ok, mut failed) = (Vec::new(), Vec::new());
    loop {
        match client.recv() {
            Frame::Cell { cell, record, .. } => {
                assert_eq!(record, simulate_cell(&cell).unwrap());
                ok.push(cell.optimizer.clone());
            }
            Frame::CellError { cell, error, .. } => {
                // The frame carries the panic message itself.
                assert!(
                    error.contains("poisoned cell squeezenet/edge/adagrad"),
                    "{error}"
                );
                failed.push(cell.optimizer.clone());
            }
            Frame::Done { cells, errors, .. } => {
                assert_eq!((cells, errors), (3, 1));
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    ok.sort();
    assert_eq!(ok, ["adam", "sgd"]);
    assert_eq!(failed, ["adagrad"]);
    // A deterministic cell that panicked would panic again: it ran once.
    assert_eq!(calls.lock().unwrap().get("adagrad"), Some(&1));

    // The worker survived the panic: the daemon still serves.
    client.send("{\"type\":\"ping\"}");
    assert_eq!(client.recv(), Frame::Pong);

    stop(&handle, join);
}

#[test]
fn protocol_shutdown_acknowledges_and_stops_the_server() {
    let (addr, _handle, join) = start(ServerConfig::default());
    let mut client = Client::connect(&addr);

    client.send(&sweep("pre", &["squeezenet"], &["edge"], &["sgd"]).encode());
    loop {
        match client.recv() {
            Frame::Done { errors, .. } => {
                assert_eq!(errors, 0);
                break;
            }
            Frame::Accepted { .. } | Frame::Cell { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }

    client.send("{\"type\":\"shutdown\"}");
    assert_eq!(client.recv(), Frame::ShuttingDown);
    // run() must return on its own once the shutdown request lands.
    join.join().expect("server thread");
}

#[test]
fn loadgen_quick_run_is_clean_against_a_live_daemon() {
    let (addr, handle, join) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut opts = LoadOptions::quick(&addr);
    opts.clients = 2;
    opts.requests = 2;
    let report = cq_serve::run_load(&opts);
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.completed, 4);
    assert_eq!(report.cell_frames, 4 * 2); // 2 cells per quick sweep
    assert_eq!(report.mismatches, 0);
    stop(&handle, join);
}
