//! Autotune the cq-par GEMM blocking and write a `cq_par::tune` profile.
//!
//! ```text
//! cq_tune [--quick] [--out PATH]
//! ```
//!
//! Without `--out` the winning profile is printed to stdout (after the
//! progress log, which goes to stderr). `--quick` runs the coarse CI
//! grid; omit it when regenerating the committed default profiles. The
//! GEMM reads only the committed profile for its SIMD level, so a tuned
//! plan takes effect through `--out crates/par/profiles/<level>.profile`
//! and a rebuild.

use cq_tune::{tune_with_log, TuneOptions};

fn main() {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("cq_tune: --out requires a path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "cq_tune: unknown argument {other:?} (usage: cq_tune [--quick] [--out PATH])"
                );
                std::process::exit(2);
            }
        }
    }

    eprintln!(
        "cq_tune: searching ({} mode, simd={})",
        if quick { "quick" } else { "full" },
        cq_par::simd_level().name()
    );
    let result = tune_with_log(TuneOptions { quick }, |line| eprintln!("{line}"));
    let profile = result.profile();
    eprintln!(
        "cq_tune: best {:.3} MACs/ns ({:.1} GFLOP/s) over {} candidates",
        result.macs_per_ns,
        2.0 * result.macs_per_ns,
        result.candidates
    );
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &profile) {
                eprintln!("cq_tune: failed to write {path:?}: {e}");
                std::process::exit(1);
            }
            eprintln!("cq_tune: wrote {path}");
        }
        None => print!("{profile}"),
    }
}
