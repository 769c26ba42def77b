//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets the workload up, times its ops, checks every output and prints
//! the run stamp, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (which also
//! writes a JSONL trace under `out/` in this package's directory).
//! Exits non-zero without a result on bad arguments, on any `CQ_*`
//! environment variable, or when a workload cannot be set up.

use cq_perfbench::report::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("bad {flag} value {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Each CQ_* variable changes the program under test; a number must
    // always name the configuration that produced it.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CQ_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("perfbench: refusing to run with {knobs:?} set; unset them");
        return ExitCode::from(2);
    }
    let trace_path = args.trace.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.jsonl", args.workload))
    });
    let outcome = match cq_perfbench::run(
        &args.workload,
        args.seed,
        None,
        args.seconds,
        trace_path.as_deref(),
        process_start,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("stamp: {}", outcome.stamp);
    let spec: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        cq_perfbench::report::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            spec,
            &outcome.metrics,
        )
    );
    ExitCode::SUCCESS
}
