//! The sweep daemon binary.
//!
//! ```text
//! cq_serve [--addr 127.0.0.1:4655] [--workers N] [--queue-cap N] [--retry-after-ms N]
//! ```
//!
//! Refuses any `CQ_*` name outside [`cq_obs::KNOBS`] and resolves
//! `CQ_MAPPING` before it opens a socket, so a misspelt name or a bad
//! value stops the daemon at start-up instead of being ignored or
//! failing its first request. Prints
//! `cq-serve listening on <addr>` once the socket is bound (CI waits for
//! that line), then serves until SIGTERM/SIGINT or a protocol-level
//! `{"type":"shutdown"}` request. Shutdown drains every admitted cell
//! before exiting, and `CQ_TRACE` observability flushes on the way
//! out, so traces stay valid.

#![deny(unsafe_code)]

use cq_serve::{Server, ServerConfig};
use std::sync::atomic::Ordering;

/// SIGTERM/SIGINT handling without any libc crate: bind the C `signal`
/// entry point directly and have the handler do nothing but an atomic
/// store (async-signal-safe). The daemon's accept loop polls the flag.
#[cfg(unix)]
mod sig {
    #![allow(unsafe_code)]
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set from the signal handler; polled by a monitor thread.
    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Installs the handler for SIGTERM (15) and SIGINT (2).
    pub fn install() {
        // SAFETY: `signal` is the standard C binding; the handler only
        // performs an atomic store, which is async-signal-safe.
        unsafe {
            signal(15, on_signal as *const () as usize);
            signal(2, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    use std::sync::atomic::AtomicBool;

    /// Never set on non-unix targets; shutdown is protocol-only there.
    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    /// No-op.
    pub fn install() {}
}

fn usage() -> ! {
    eprintln!(
        "usage: cq_serve [--addr HOST:PORT] [--workers N] [--queue-cap N] [--retry-after-ms N]"
    );
    std::process::exit(2);
}

fn main() {
    cq_obs::reject_unknown_knobs();
    let mut addr = "127.0.0.1:4655".to_string();
    let mut cfg = ServerConfig::default();
    fn number<T: std::str::FromStr>(name: &str, value: Option<String>) -> T {
        value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("cq_serve: {name} wants a number");
            std::process::exit(2);
        })
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| usage()),
            "--workers" => cfg.workers = number("--workers", args.next()),
            "--queue-cap" => cfg.queue_cap = number("--queue-cap", args.next()),
            "--retry-after-ms" => cfg.retry_after_ms = number("--retry-after-ms", args.next()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("cq_serve: unknown flag {other:?}");
                usage();
            }
        }
    }

    // Every cell simulates under this policy; an invalid value aborts
    // here, before the daemon announces itself.
    let _ = cq_sim::mapping::env_policy();
    if let Err(e) = cq_obs::init_from_env() {
        eprintln!("cq_serve: observability init failed: {e}");
        std::process::exit(1);
    }

    let server = match Server::bind(&addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cq_serve: bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let bound = server
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.clone());

    sig::install();
    let handle = server.shutdown_handle();
    std::thread::spawn(move || loop {
        if sig::SHUTDOWN.load(Ordering::SeqCst) {
            handle.store(true, Ordering::SeqCst);
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });

    println!("cq-serve listening on {bound}");
    if let Err(e) = server.run() {
        eprintln!("cq_serve: serve loop failed: {e}");
        cq_obs::finish();
        std::process::exit(1);
    }

    for (name, value) in cq_obs::counters_snapshot() {
        if name.starts_with("serve.") || name.starts_with("sim.") {
            eprintln!("cq_serve: {name} = {value}");
        }
    }
    cq_obs::finish();
    println!("cq-serve drained and stopped");
}
