//! Per-layer mapping search: default vs searched mappings on the cycle
//! simulator.
//!
//! ```text
//! mapping_search [--quick] [--out report.txt]
//! ```
//!
//! "Searched" is a chip built with `MappingPolicy::Search`. `--quick`
//! restricts the study to AlexNet + PTB-LSTM (the CI smoke set).
//! Exit codes: 0 success, 1 unwritable report, 2 usage error.

use cq_experiments::mapping;

struct Args {
    quick: bool,
    out: Option<String>,
}

fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<Args, String> {
    let mut out = Args {
        quick: false,
        out: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => out.quick = true,
            "--out" => out.out = Some(args.next().ok_or("--out needs a path")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() {
    let _trace = cq_par::start();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mapping_search: {e}");
            eprintln!("usage: mapping_search [--quick] [--out PATH]");
            std::process::exit(2);
        }
    };

    let nets = mapping::benchmark_nets(args.quick);
    let reports = mapping::run_study(&nets);

    let mut report =
        String::from("Mapping search — per-layer searched mappings vs the streaming default\n\n");
    report.push_str(&mapping::summary_table(&reports).to_string());
    for r in &reports {
        report.push_str(&format!("\n{}\n", r.network));
        report.push_str(&mapping::layer_table(r).to_string());
    }
    report.push_str(
        "\n1.00x = the streaming default (searched mappings fall back to it\nwhen no capacity-legal candidate wins); larger = searched is better.\n",
    );

    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("mapping_search: cannot write report {path:?}: {e}");
                std::process::exit(1);
            }
            eprintln!("[mapping] report written to {path}");
        }
        None => print!("{report}"),
    }
}
