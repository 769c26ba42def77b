//! Closed-loop load generator for a running `cq_serve` daemon.
//!
//! ```text
//! cq_loadgen --addr 127.0.0.1:4655 [--clients N] [--requests N] [--quick] [--check]
//!            [--nets a,b] [--configs a,b] [--optimizers a,b]
//! ```
//!
//! Each client keeps one sweep outstanding and retries `rejected`
//! responses after the server's `retry_after_ms` advice. `--check`
//! recomputes every streamed record in-process and compares bytes —
//! the daemon byte-identity acceptance check. Prints a single JSON
//! report line; exits non-zero if any sweep failed, any record
//! mismatched, or any transport error occurred. A `CQ_*` name outside
//! [`cq_obs::KNOBS`] or an invalid `CQ_MAPPING` aborts before the first
//! connection.

use cq_serve::{run_load, LoadOptions};

fn usage() -> ! {
    eprintln!(
        "usage: cq_loadgen --addr HOST:PORT [--clients N] [--requests N] [--quick] [--check] \
         [--nets a,b] [--configs a,b] [--optimizers a,b]"
    );
    std::process::exit(2);
}

fn csv(s: &str) -> Vec<String> {
    s.split(',')
        .map(|p| p.trim().to_string())
        .filter(|p| !p.is_empty())
        .collect()
}

fn main() {
    cq_obs::reject_unknown_knobs();
    let mut addr = "127.0.0.1:4655".to_string();
    let mut quick = false;
    let mut check = false;
    let mut clients: Option<usize> = None;
    let mut requests: Option<usize> = None;
    let mut nets: Option<Vec<String>> = None;
    let mut configs: Option<Vec<String>> = None;
    let mut optimizers: Option<Vec<String>> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| usage()),
            "--clients" => clients = args.next().and_then(|v| v.parse().ok()).or_else(|| usage()),
            "--requests" => requests = args.next().and_then(|v| v.parse().ok()).or_else(|| usage()),
            "--nets" => nets = Some(csv(&args.next().unwrap_or_else(|| usage()))),
            "--configs" => configs = Some(csv(&args.next().unwrap_or_else(|| usage()))),
            "--optimizers" => optimizers = Some(csv(&args.next().unwrap_or_else(|| usage()))),
            "--quick" => quick = true,
            "--check" => check = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("cq_loadgen: unknown flag {other:?}");
                usage();
            }
        }
    }

    // `--check` recomputes records under this policy.
    let _ = cq_sim::mapping::env_policy();
    let mut opts = if quick {
        LoadOptions::quick(&addr)
    } else {
        LoadOptions::standard(&addr)
    };
    if let Some(c) = clients {
        opts.clients = c.max(1);
    }
    if let Some(r) = requests {
        opts.requests = r;
    }
    if let Some(n) = nets {
        opts.nets = n;
    }
    if let Some(c) = configs {
        opts.configs = c;
    }
    if let Some(o) = optimizers {
        opts.optimizers = o;
    }
    if check {
        opts.check = true;
    }

    let report = run_load(&opts);
    println!("{}", report.to_json());
    if !report.is_clean() {
        eprintln!(
            "cq_loadgen: FAILED ({}/{} completed, {} cell errors, {} mismatches, {} client errors)",
            report.completed,
            report.requests,
            report.cell_errors,
            report.mismatches,
            report.client_errors
        );
        std::process::exit(1);
    }
}
