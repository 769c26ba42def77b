//! Chaos sweep: the fault-sweep grid run through the crash-safe
//! execution layer, with seeded *software* faults (task panics,
//! stragglers) injected on top and a journal making the whole run
//! resumable after a SIGKILL.
//!
//! ```text
//! chaos_sweep --journal sweep.journal [--out report.txt] \
//!             [--chaos on|off] [--kill-after N] [--seed S]
//! ```
//!
//! Exit codes: 0 success, 1 cells failed (or zero-cost check failed),
//! 2 usage error. With `--kill-after N` the process SIGKILLs itself
//! after the Nth journal record; rerunning the same command line then
//! resumes from the journal and must produce a byte-identical report.

use cq_experiments::chaos::{arm_kill_after, parse_chaos_args};
use cq_experiments::{chaos, resilience};
use cq_resil::SweepJournal;

fn main() {
    let _profile = cq_experiments::profiling::init_for_bin();
    let args = match parse_chaos_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chaos_sweep: {e}");
            eprintln!(
                "usage: chaos_sweep --journal PATH [--out PATH] [--chaos on|off] \
                 [--kill-after N] [--seed S]"
            );
            std::process::exit(2);
        }
    };
    let Some(journal_path) = args.journal.clone() else {
        eprintln!("chaos_sweep: no journal (pass --journal PATH)");
        std::process::exit(2);
    };

    let journal = match SweepJournal::open(&journal_path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("chaos_sweep: cannot open journal {journal_path:?}: {e}");
            std::process::exit(2);
        }
    };
    let stats = journal.stats();
    eprintln!(
        "[chaos] journal {journal_path}: {} completed cells ({} recovered, {} dropped lines)",
        journal.len(),
        stats.recovered,
        stats.dropped
    );
    if let Some(n) = args.kill_after {
        arm_kill_after(&journal, n);
        eprintln!("[chaos] armed: process dies after {n} fresh records");
    }

    let plan = args.plan();
    eprintln!(
        "[chaos] software faults: {}",
        if plan.is_active() {
            format!(
                "on (seed {}, panic {:.0}%, slow {:.0}%)",
                plan.seed,
                plan.panic_rate * 100.0,
                plan.slow_rate * 100.0
            )
        } else {
            "off".to_string()
        }
    );

    // The zero-cost gate the plain fault_sweep also enforces.
    if let Err(e) = resilience::zero_cost_check() {
        eprintln!("ZERO-COST CHECK FAILED: {e}");
        std::process::exit(1);
    }

    let outcome = match resilience::run_sweep_journaled(&journal, &chaos::sweep_policy(), &plan) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("chaos_sweep: journal write failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "[chaos] {} cells: {} resumed, {} computed, {} recorded",
        outcome.results.len(),
        outcome.resumed,
        outcome.computed,
        outcome.recorded
    );

    let failures = outcome.failures();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("[chaos] FAILED {f}");
        }
        eprintln!(
            "[chaos] {} cells failed their attempt budget",
            failures.len()
        );
        std::process::exit(1);
    }

    let rows: Vec<_> = outcome
        .results
        .into_iter()
        .map(|r| r.expect("failures handled above"))
        .collect();
    let report = format!(
        "Chaos sweep — fault-sweep grid under the crash-safe execution layer\n\n{}",
        resilience::sweep_table(&rows)
    );
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("chaos_sweep: cannot write report {path:?}: {e}");
                std::process::exit(1);
            }
            eprintln!("[chaos] report written to {path}");
        }
        None => print!("{report}"),
    }
}
