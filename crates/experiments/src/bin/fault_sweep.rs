//! Fault sweep: six benchmarks × three bit-error rates × three protection
//! configurations (no-ECC / ECC / ECC+E²BQM fallback).
//!
//! With `--journal PATH` the sweep runs through the crash-safe execution
//! layer: completed cells are recorded as they finish and a rerun
//! resumes instead of recomputing.
use cq_experiments::chaos::sweep_policy;
use cq_experiments::profiling::flag_path;
use cq_experiments::resilience;
use cq_faults::ChaosPlan;
use cq_resil::SweepJournal;

fn main() {
    let _profile = cq_experiments::profiling::init_for_bin();
    println!("Fault sweep — resilience under injected DRAM/SRAM/θ-register faults\n");
    match resilience::zero_cost_check() {
        Ok(net) => println!("zero-cost check ({net}): fault rate 0 is bit-identical, ECC idle\n"),
        Err(e) => {
            eprintln!("ZERO-COST CHECK FAILED: {e}");
            std::process::exit(1);
        }
    }
    let rows = match flag_path(std::env::args().skip(1), "--journal") {
        None => resilience::run_sweep(),
        Some(path) => {
            let journal = SweepJournal::open(&path).unwrap_or_else(|e| {
                eprintln!("fault_sweep: cannot open journal {path:?}: {e}");
                std::process::exit(2);
            });
            let outcome =
                resilience::run_sweep_journaled(&journal, &sweep_policy(), &ChaosPlan::off())
                    .unwrap_or_else(|e| {
                        eprintln!("fault_sweep: journal write failed: {e}");
                        std::process::exit(1);
                    });
            eprintln!(
                "[journal] {path}: {} resumed, {} computed, {} recorded",
                outcome.resumed, outcome.computed, outcome.recorded
            );
            let failures = outcome.failures();
            if !failures.is_empty() {
                for f in &failures {
                    eprintln!("FAILED {f}");
                }
                std::process::exit(1);
            }
            outcome
                .results
                .into_iter()
                .map(|r| r.expect("failures handled above"))
                .collect()
        }
    };
    print!("{}", resilience::sweep_table(&rows));
    println!(
        "\n{} cells. SECDED corrects isolated flips for cycles+energy; the guarded",
        rows.len()
    );
    println!("quantizer converts θ/overflow faults into logged precision degradation.");
}
