//! The benchmark's own checks: seeded inputs, op composition, metric
//! names against `BENCHMARK.json`, and the traced pass.

use cq_experiments::accuracy::ProxyTask;
use cq_obs::json::{parse, Json};
use cq_perfbench::dse::{design_points, DesignPoint, SimDse, STRATA};
use cq_perfbench::report::{result_line, END_TO_END, PER_LAYER};
use cq_perfbench::runner::{Outcome, Workload};
use cq_perfbench::serve::{grid, ServeWarm, GRID_CELLS};
use cq_perfbench::train::{cnn_batch, TrainHqt, TrainInt8};
use cq_perfbench::{UNLISTED, WORKLOADS};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Workloads share process-wide state (the simulation cache, the trace
/// sink, the counters), so tests that run them take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn owned(spec: &[(&str, &str)]) -> Vec<(String, String)> {
    spec.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(names_units(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names_units(&doc, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for name in UNLISTED {
        assert!(!workloads.contains(&name), "{name} is listed");
    }

    // The printed line carries exactly the spec's metrics, by name and
    // unit, and nothing else.
    let line = result_line(true, 3, 0, &END_TO_END, &[("ops_per_cpu_s", 2.5)]);
    let printed = parse(&line).expect("result line is JSON");
    let keys: Vec<&str> = printed
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = printed.get("metrics").expect("metrics");
    assert_eq!(metrics.as_obj().expect("object").len(), END_TO_END.len());
    for (name, unit) in END_TO_END {
        let m = metrics.get(name).expect("metric printed");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        assert!(m.get("value").and_then(Json::as_f64).is_some());
    }
}

#[test]
fn same_seed_same_inputs_other_seed_different() {
    assert_eq!(design_points(3, 40), design_points(3, 40));
    assert_ne!(design_points(3, 40), design_points(4, 40));
    assert_eq!(grid(3, 7), grid(3, 7));
    assert_ne!(grid(3, 7), grid(4, 7));
    assert_ne!(grid(3, 7), grid(3, 8));
    assert_eq!(cnn_batch(3, 2).x, cnn_batch(3, 2).x);
    assert_ne!(cnn_batch(3, 2).x, cnn_batch(4, 2).x);
    let (_, a, _) = ProxyTask::AlexNet.build(3);
    let (_, b, _) = ProxyTask::AlexNet.build(4);
    assert_ne!(a.x, b.x);
}

#[test]
fn every_op_has_the_same_composition() {
    // sim_dse: distinct points; each block of STRATA ops covers every
    // NDP × format × bandwidth combination once and every level of the
    // other settings equally often, so all blocks hold the same values.
    let points = design_points(11, 10 * STRATA);
    assert_eq!(points.iter().collect::<HashSet<_>>().len(), points.len());
    let settings = |block: &[DesignPoint]| {
        let mut cols: Vec<Vec<usize>> = vec![
            block.iter().map(|p| p.pe_rows).collect(),
            block.iter().map(|p| p.pe_cols).collect(),
            block.iter().map(|p| p.pe_arrays).collect(),
            block.iter().map(|p| p.nbin_kb).collect(),
            block.iter().map(|p| p.sb_kb).collect(),
            block.iter().map(|p| p.nbout_kb).collect(),
            block.iter().map(|p| p.clock_mhz).collect(),
        ];
        cols.iter_mut().for_each(|c| c.sort_unstable());
        cols
    };
    let first = settings(&points[..STRATA]);
    for block in points.chunks(STRATA) {
        let strata: HashSet<_> = block.iter().map(|p| (p.ndp, p.int4, p.bw_scale)).collect();
        assert_eq!(strata.len(), STRATA);
        assert_eq!(settings(block), first);
    }
    // serve_warm: every request is a 5 × 4 × 3 grid.
    for j in 0..50 {
        let g = grid(11, j);
        assert_eq!(
            (g.nets.len(), g.configs.len(), g.optimizers.len()),
            (5, 4, 3)
        );
        assert_eq!(g.cells().len(), GRID_CELLS);
        assert_eq!(g.cells().iter().collect::<HashSet<_>>().len(), GRID_CELLS);
    }
    // train_int8: every minibatch has the same shape and class mix.
    let first = cnn_batch(11, 0);
    for j in 1..4 {
        let b = cnn_batch(11, j);
        assert_eq!(b.x.dims(), &[32, 3, 32, 32]);
        assert_eq!(b.labels, first.labels);
    }
    // train_hqt: the six proxies' full batches hold 896 samples.
    let samples: usize = ProxyTask::ALL
        .iter()
        .map(|t| t.build(11).1.labels.len())
        .sum();
    assert_eq!(samples, 896);
}

/// Runs two untraced passes with one seed and one with another; the
/// digests and held-out accuracy must repeat exactly, and differ across
/// seeds.
fn repeats<W: Workload>(ops: usize) {
    let run = |seed| {
        let pass = W::setup(seed).expect("setup").run(ops, false);
        assert_eq!(pass.failed, 0, "{} failed ops", W::NAME);
        assert!(pass.checks_ok, "{} checks", W::NAME);
        (pass.digest, pass.heldout_acc.to_bits())
    };
    let a = run(21);
    assert_eq!(a, run(21), "{} does not repeat", W::NAME);
    assert_ne!(a.0, run(22).0, "{} ignores its seed", W::NAME);
}

#[test]
fn same_seed_repeats_digest_and_heldout_acc() {
    let _g = serial();
    repeats::<TrainHqt>(3);
    repeats::<TrainInt8>(3);
    repeats::<SimDse>(3);
    repeats::<ServeWarm>(6);
}

fn validate_trace(trace: &Path) {
    let repo = manifest_dir().parent().expect("repository root");
    let status = std::process::Command::new(env!("CARGO"))
        .args(["run", "--quiet", "--offline", "--manifest-path"])
        .arg(repo.join("crates/obs/Cargo.toml"))
        .args(["--bin", "validate_trace", "--target-dir"])
        .arg(manifest_dir().join("out/validate-target"))
        .arg("--")
        .arg(trace)
        .arg(repo.join("schemas/trace-schema.json"))
        .status()
        .expect("run validate_trace");
    assert!(status.success(), "{} fails validate_trace", trace.display());
}

#[test]
fn runs_print_their_metrics_and_the_traced_pass_a_valid_trace() {
    let _g = serial();
    let spec: HashSet<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    // Metrics each workload must measure as nonzero.
    let expected: [(&str, &[&str]); 4] = [
        (
            "train_hqt",
            &[
                "nn.forward_ms",
                "nn.backward_ms",
                "quant.fake_quantize_ms",
                "par.f32_gmacs",
            ],
        ),
        (
            "train_int8",
            &[
                "quant.intdomain_ms",
                "quant.ladder_hit_rate",
                "par.i8_gmacs",
                "par.f32_kernel_ms",
            ],
        ),
        (
            "sim_dse",
            &[
                "accel.simulate_ms.lstm",
                "accel.sim_layers_per_s",
                "sim.hwcost_misses",
            ],
        ),
        (
            "serve_warm",
            &[
                "accel.simulate_ms.lstm",
                "accel.cache_key_us",
                "serve.simulate_cell_us",
                "serve.accepted",
                "serve.cells_ok",
                "sim.hwcost_hit_ratio",
            ],
        ),
    ];
    // The untraced run prints exactly the end-to-end metrics.
    let out = cq_perfbench::run("train_int8", 5, Some(3), 1, None, Instant::now()).expect("run");
    assert!(out.correct);
    let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
    let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names, want);

    for (name, nonzero) in expected {
        let trace: PathBuf = manifest_dir().join(format!("out/test-trace-{name}.jsonl"));
        let ops = if name == "serve_warm" { 8 } else { 3 };
        let out: Outcome =
            cq_perfbench::run(name, 5, Some(ops), 1, Some(&trace), Instant::now()).expect("run");
        assert!(
            out.correct,
            "{name}: traced pass did not reproduce: {out:?}"
        );
        for (metric, value) in &out.metrics {
            assert!(spec.contains(metric), "{name}: {metric} is not in the spec");
            assert!(value.is_finite(), "{name}: {metric} = {value}");
        }
        for metric in nonzero {
            let v = out.metrics.iter().find(|m| m.0 == *metric).map(|m| m.1);
            assert!(v.is_some_and(|v| v > 0.0), "{name}: {metric} = {v:?}");
        }
        assert!(out.metrics.iter().any(|m| m.0 == "obs.trace_overhead"));
        validate_trace(&trace);
    }
}
