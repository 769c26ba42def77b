//! Extended Table VIII: every Table III algorithm, executable.
//!
//! With `--journal PATH` each (task, algorithm) training run is
//! journaled as it finishes and a rerun resumes instead of retraining.
use cq_experiments::chaos::sweep_policy;
use cq_experiments::profiling::flag_path;
use cq_faults::ChaosPlan;
use cq_resil::SweepJournal;

fn main() {
    let _profile = cq_experiments::profiling::init_for_bin();
    println!("Table VIII (extended) — all five Table III algorithms (accuracy %)\n");
    match flag_path(std::env::args().skip(1), "--journal") {
        None => print!("{}", cq_experiments::accuracy::table8_extended(42)),
        Some(path) => {
            let journal = SweepJournal::open(&path).unwrap_or_else(|e| {
                eprintln!("table8_extended: cannot open journal {path:?}: {e}");
                std::process::exit(2);
            });
            let (table, outcome) = cq_experiments::accuracy::table8_extended_journaled(
                42,
                &journal,
                &sweep_policy(),
                &ChaosPlan::off(),
            )
            .unwrap_or_else(|e| {
                eprintln!("table8_extended: journal write failed: {e}");
                std::process::exit(1);
            });
            eprintln!(
                "[journal] {path}: {} resumed, {} computed, {} recorded",
                outcome.resumed, outcome.computed, outcome.recorded
            );
            print!("{table}");
            if !outcome.failures().is_empty() {
                std::process::exit(1);
            }
        }
    }
}
