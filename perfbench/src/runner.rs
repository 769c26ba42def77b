//! Drives one workload through an untraced or a traced run and turns
//! the timings, checks and spans into the printed metrics.

use crate::report::SIM_NETS;
use crate::util::{median, peak_rss_mb, process_cpu_s, quantile};
use cq_obs::{ArgValue, Event, EventKind, MemorySink};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Category of every span the benchmark records around a public call.
pub const SPAN_CAT: &str = "perfbench";

/// How many times an untraced run sets its workload up; `setup_s` is
/// the median.
pub const SETUPS: usize = 5;

/// Evenly spaced op indices a traced run replays the inner layers' entry
/// points for.
pub const REPLAYS: usize = 32;

/// The time one op took.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpTime {
    /// Wall-clock latency in ms.
    pub wall_ms: f64,
    /// CPU time the whole process spent while the op ran, in ms, over
    /// all its threads (see [`process_cpu_s`]). Ops never overlap, so
    /// this is the op's own CPU cost.
    pub cpu_ms: f64,
}

/// Per-op timings of one timed window.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// One per op, in op order.
    pub ops: Vec<OpTime>,
    /// Wall time of the window.
    pub window_s: f64,
}

/// Slices a window is cut into for the reported rate and latency
/// quantiles (at most; each slice keeps at least [`SLICE_MIN_OPS`] ops).
pub const SLICES: usize = 5;

/// Fewest ops a slice may hold, so its p90 has ten ops beyond it.
pub const SLICE_MIN_OPS: usize = 100;

impl Timings {
    /// Times `op` and appends its timing.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> T {
        let (begin, cpu) = (Instant::now(), process_cpu_s());
        let out = std::hint::black_box(op());
        self.ops.push(OpTime {
            cpu_ms: (process_cpu_s() - cpu) * 1e3,
            wall_ms: begin.elapsed().as_secs_f64() * 1e3,
        });
        out
    }

    /// Ops completed per CPU second over the whole window.
    pub fn ops_per_cpu_s(&self) -> f64 {
        self.ops.len() as f64 * 1e3 / self.ops.iter().map(|o| o.cpu_ms).sum::<f64>()
    }

    /// Cuts the ops into equal runs of consecutive ops and returns each
    /// run's `(ops per CPU second, p50 CPU ms, p90 CPU ms)`.
    pub fn slices(&self) -> Vec<(f64, f64, f64)> {
        let len = self.ops.len();
        let n = (len / SLICE_MIN_OPS).clamp(1, SLICES);
        (0..n)
            .map(|k| {
                let mut cpu: Vec<f64> = self.ops[k * len / n..(k + 1) * len / n]
                    .iter()
                    .map(|o| o.cpu_ms)
                    .collect();
                let rate = cpu.len() as f64 * 1e3 / cpu.iter().sum::<f64>();
                cpu.sort_by(f64::total_cmp);
                (rate, quantile(&cpu, 0.5), quantile(&cpu, 0.9))
            })
            .collect()
    }

    /// Median over [`Timings::slices`] of ops per CPU second, p50 and
    /// p90: a burst of contention that covers less than half the window
    /// moves none of them.
    pub fn sliced_medians(&self) -> (f64, f64, f64) {
        let s = self.slices();
        let pick = |f: fn(&(f64, f64, f64)) -> f64| median(&s.iter().map(f).collect::<Vec<_>>());
        (pick(|s| s.0), pick(|s| s.1), pick(|s| s.2))
    }

    /// Wall-clock ops per second, p50 and p90 ms over the whole window,
    /// for the notes.
    pub fn wall(&self) -> (f64, f64, f64) {
        let mut ms: Vec<f64> = self.ops.iter().map(|o| o.wall_ms).collect();
        ms.sort_by(f64::total_cmp);
        (
            self.ops.len() as f64 / self.window_s,
            quantile(&ms, 0.5),
            quantile(&ms, 0.9),
        )
    }
}

/// One timed pass over a workload's ops.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Per-op timings.
    pub timings: Timings,
    /// Ops that failed their checks.
    pub failed: usize,
    /// Digest of every op's outputs; fixed by the seed and op count.
    pub digest: u64,
    /// Held-out accuracy (training), or the fraction of outputs that
    /// match an independent reference computation (simulation, serving).
    pub heldout_acc: f64,
    /// Whether the post-run checks (evaluation, reference recomputation)
    /// passed.
    pub checks_ok: bool,
}

impl Pass {
    /// Ops the pass timed.
    pub fn ops(&self) -> usize {
        self.timings.ops.len()
    }
}

/// A benchmark workload: a seeded set of inputs and the op it times.
pub trait Workload: Sized {
    /// Name as `--workload` takes it.
    const NAME: &'static str;
    /// What one op does; the same for every op of the workload.
    const COMPOSITION: &'static str;
    /// Ops per wall-clock second on a 2-vCPU x86-64 host, a little
    /// under a quiet host's rate. A run of `--seconds s` performs
    /// `s × NOMINAL_OPS_PER_S` ops, so its op count — and with it
    /// `heldout_acc` and the digests — depends only on its arguments.
    const NOMINAL_OPS_PER_S: f64;
    /// Untimed ops run by `setup` so caches, pools and allocators are
    /// warm before the first timed op.
    const WARMUP_OPS: usize;

    /// Generates the inputs from `seed` and runs the warm-up ops.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Times `ops` ops. `traced` splits public calls that otherwise run
    /// as one (a train step) into separately spanned parts; spans are
    /// recorded only while a sink is installed.
    fn run(&mut self, ops: usize, traced: bool) -> Pass;

    /// After a traced pass: times the public entry points the op reaches
    /// only from inside the program, on the op's own shapes or cells, and
    /// returns workload-specific per-layer counters.
    fn replay(&mut self, pass: &Pass) -> Vec<(&'static str, f64)>;
}

/// The op count of a run of `seconds` seconds.
pub fn ops_for<W: Workload>(seconds: u64) -> usize {
    ((seconds as f64 * W::NOMINAL_OPS_PER_S).round() as usize).max(10)
}

/// A span around one public call made for op `op` (free when no sink
/// is installed).
pub fn span(name: &'static str, op: usize) -> cq_obs::Span {
    let mut sp = cq_obs::span!(SPAN_CAT, "{name}");
    sp.arg("op", op);
    sp
}

/// Runs `ops` ops back to back, timing each. Returns the timings and
/// the number of failed ops.
pub fn time_serial(ops: usize, mut op: impl FnMut(usize) -> bool) -> (Timings, usize) {
    let mut t = Timings {
        ops: Vec::with_capacity(ops),
        window_s: 0.0,
    };
    let mut failed = 0;
    let start = Instant::now();
    for i in 0..ops {
        failed += usize::from(!t.time(|| op(i)));
    }
    t.window_s = start.elapsed().as_secs_f64();
    (t, failed)
}

/// What a run prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Ops attempted in the reported pass.
    pub attempted: usize,
    /// Ops that failed in the reported pass.
    pub failed: usize,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// The run stamp (one JSON object).
    pub stamp: String,
    /// Human-readable notes for the lines before the result.
    pub notes: Vec<String>,
}

/// The configuration that produced a number: seed, host parallelism,
/// SIMD level, GEMM tile plan and op composition.
pub fn stamp<W: Workload>(seed: u64, ops: usize, traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let esc = cq_obs::json_escape;
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"ops\": {ops}, \"warmup_ops\": {}, \
         \"trace\": {traced}, \"nproc\": {nproc}, \"pool_threads\": {}, \"simd\": \"{}\", \
         \"plan\": \"{}\", \"composition\": \"{}\"}}",
        W::NAME,
        W::WARMUP_OPS,
        cq_par::Pool::global().threads(),
        cq_par::simd_level().name(),
        esc(&cq_par::describe_active_plan()),
        esc(W::COMPOSITION),
    )
}

/// The untraced run: set up [`SETUPS`] times (the first counted from
/// process start), time `ops` ops on the last set-up, report the
/// end-to-end metrics. Every time it reports is CPU time of the process;
/// the notes give the wall-clock figures beside them.
pub fn untraced<W: Workload>(
    seed: u64,
    ops: usize,
    process_start: Instant,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_wall_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for k in 0..SETUPS {
        // Tear the previous set-up down before timing the next one.
        drop(workload.take());
        // The process CPU clock starts at zero when the process does.
        let (wall, cpu) = if k == 0 {
            (process_start, 0.0)
        } else {
            (Instant::now(), process_cpu_s())
        };
        workload = Some(W::setup(seed)?);
        setup_s.push(process_cpu_s() - cpu);
        setup_wall_s.push(wall.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("SETUPS > 0");
    let pass = w.run(ops, false);
    drop(w);
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let (ops_per_cpu_s, p50, p90) = pass.timings.sliced_medians();
    let metrics = vec![
        ("setup_s", median(&setup_s)),
        ("ops_per_cpu_s", ops_per_cpu_s),
        ("op_cpu_ms_p50", p50),
        ("op_cpu_ms_p90", p90),
        ("ok_frac", 1.0 - pass.failed as f64 / ops as f64),
        ("heldout_acc", pass.heldout_acc),
        ("peak_rss_mb", rss),
    ];
    let (wall_rate, wall_p50, wall_p90) = pass.timings.wall();
    Ok(Outcome {
        correct: pass.failed == 0 && pass.checks_ok,
        attempted: ops,
        failed: pass.failed,
        metrics,
        stamp: stamp::<W>(seed, ops, false),
        notes: vec![
            format!(
                "set-ups: CPU s {setup_s:.3?}, wall s {setup_wall_s:.3?}; digest {:016x}",
                pass.digest
            ),
            format!(
                "per slice (ops per CPU s, CPU ms p50, p90): {:.2?}",
                pass.timings.slices()
            ),
            format!("wall clock: {wall_rate:.2} ops/s, p50 {wall_p50:.2} ms, p90 {wall_p90:.2} ms"),
        ],
    })
}

/// Per-name totals of the benchmark's spans.
#[derive(Debug, Default, Clone)]
struct Agg {
    count: u64,
    dur_us: f64,
    ops: BTreeSet<u64>,
    /// Sums of the numeric span arguments (`elems`, `macs`, `layers`,
    /// `cells`).
    sums: BTreeMap<&'static str, u64>,
}

/// Sums the benchmark's spans by name; `accel.simulate` spans are
/// further split by their `net` argument.
fn aggregate(events: &[Event]) -> BTreeMap<String, Agg> {
    let mut out: BTreeMap<String, Agg> = BTreeMap::new();
    for ev in events {
        let EventKind::Span { dur_us } = ev.kind else {
            continue;
        };
        if ev.cat != SPAN_CAT {
            continue;
        }
        let mut key = ev.name.to_string();
        let mut nums = Vec::new();
        let mut op = None;
        for (k, v) in &ev.args {
            match (*k, v) {
                ("op", ArgValue::U64(i)) => op = Some(*i),
                ("net", ArgValue::Str(net)) => key = format!("{key}.{net}"),
                (k, ArgValue::U64(n)) => nums.push((k, *n)),
                _ => {}
            }
        }
        let agg = out.entry(key).or_default();
        agg.count += 1;
        agg.dur_us += dur_us;
        agg.ops.extend(op);
        for (k, n) in nums {
            *agg.sums.entry(k).or_default() += n;
        }
    }
    out
}

/// Per-layer metrics derived from the span totals: time per op (over the
/// distinct ops a span name covers), mean time per call, and throughput.
fn span_metrics(aggs: &BTreeMap<String, Agg>) -> Vec<(&'static str, f64)> {
    let get = |name: &str| aggs.get(name).cloned().unwrap_or_default();
    let ms_per_op = |name: &str| {
        let a = get(name);
        if a.ops.is_empty() {
            0.0
        } else {
            a.dur_us / 1e3 / a.ops.len() as f64
        }
    };
    let us_per_call = |a: &Agg| {
        if a.count == 0 {
            0.0
        } else {
            a.dur_us / a.count as f64
        }
    };
    let per_us = |a: &Agg, arg: &str| {
        if a.dur_us > 0.0 {
            a.sums.get(arg).copied().unwrap_or(0) as f64 / a.dur_us
        } else {
            0.0
        }
    };
    let mut out = vec![
        ("nn.forward_ms", ms_per_op("nn.forward")),
        ("nn.loss_ms", ms_per_op("nn.loss")),
        ("nn.backward_ms", ms_per_op("nn.backward")),
        ("nn.optimizer_ms", ms_per_op("nn.optimizer")),
        ("quant.fake_quantize_ms", ms_per_op("quant.fake_quantize")),
        (
            "quant.fake_quantize_melems",
            per_us(&get("quant.fake_quantize"), "elems"),
        ),
        ("quant.intdomain_ms", ms_per_op("quant.intdomain")),
        ("par.f32_kernel_ms", ms_per_op("par.f32")),
        ("par.f32_gmacs", per_us(&get("par.f32"), "macs") / 1e3),
        ("par.i8_kernel_ms", ms_per_op("par.i8")),
        ("par.i8_gmacs", per_us(&get("par.i8"), "macs") / 1e3),
    ];
    let mut sim = Agg::default();
    for (net, metric) in SIM_NETS {
        let a = get(&format!("accel.simulate.{net}"));
        out.push((metric, us_per_call(&a) / 1e3));
        sim.dur_us += a.dur_us;
        *sim.sums.entry("layers").or_default() += a.sums.get("layers").copied().unwrap_or(0);
    }
    out.push(("accel.sim_layers_per_s", per_us(&sim, "layers") * 1e6));
    out.push(("accel.cache_key_us", us_per_call(&get("accel.cache_key"))));
    let cell_us = us_per_call(&get("serve.simulate_cell"));
    out.push(("serve.simulate_cell_us", cell_us));
    let req = get("serve.request");
    if req.count > 0 && cell_us > 0.0 {
        let cells = req.sums.get("cells").copied().unwrap_or(0) as f64 / req.count as f64;
        out.push((
            "serve.dispatch_share",
            1.0 - cells * cell_us / us_per_call(&req),
        ));
    }
    out
}

/// A cq-obs counter's current value.
fn obs_counter(name: &str) -> u64 {
    cq_obs::counters_snapshot()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| v)
}

/// The traced run: an untraced pass for reference, then a fresh set-up
/// and a traced pass of the same ops with a `MemorySink` installed, the
/// replays, and the per-layer metrics. Writes the trace as JSONL to
/// `trace_path`.
pub fn traced<W: Workload>(seed: u64, ops: usize, trace_path: &Path) -> Result<Outcome, String> {
    // A process's first set-up runs its ops slower than later ones
    // (`train_int8`: 23 against 28 ops/s), so the reference pass, like
    // the untraced run's timed pass, uses a later set-up.
    drop(W::setup(seed)?);
    let reference = W::setup(seed)?.run(ops, false);

    let mut w = W::setup(seed)?;
    let sink = Arc::new(MemorySink::new());
    cq_obs::install(sink.clone());
    let stamp = stamp::<W>(seed, ops, true);
    cq_obs::emit_instant(
        SPAN_CAT,
        "perfbench.stamp",
        vec![("stamp", ArgValue::Str(stamp.clone()))],
    );
    cq_obs::reset_counters();
    let cache_before = cq_accel::sim_cache_stats();
    let pass = w.run(ops, true);
    let cache = cq_accel::sim_cache_stats();
    let resil = [
        ("resil.retry", obs_counter("resil.retry") as f64),
        ("resil.task_failed", obs_counter("resil.task_failed") as f64),
    ];
    let workload_counters = w.replay(&pass);
    cq_obs::flush();
    cq_obs::uninstall();
    drop(w);
    let events = sink.take();

    let hits = cache.hits - cache_before.hits;
    let misses = cache.misses - cache_before.misses;
    let mut metrics = span_metrics(&aggregate(&events));
    metrics.extend([
        ("sim.hwcost_hits", hits as f64),
        ("sim.hwcost_misses", misses as f64),
        (
            "sim.hwcost_evictions",
            (cache.evictions - cache_before.evictions) as f64,
        ),
        (
            "sim.hwcost_hit_ratio",
            if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
        ),
    ]);
    metrics.extend(resil);
    metrics.extend(workload_counters);
    metrics.push((
        "obs.trace_overhead",
        (reference.timings.ops_per_cpu_s() - pass.timings.ops_per_cpu_s())
            / reference.timings.ops_per_cpu_s(),
    ));

    write_trace(trace_path, &events)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    let reproduced = pass.digest == reference.digest
        && pass.heldout_acc.to_bits() == reference.heldout_acc.to_bits();
    let failed = pass.failed + reference.failed;
    Ok(Outcome {
        correct: reproduced && failed == 0 && pass.checks_ok && reference.checks_ok,
        attempted: 2 * ops,
        failed,
        metrics,
        stamp,
        notes: vec![
            format!(
                "digest untraced {:016x} traced {:016x}; heldout_acc untraced {} traced {}",
                reference.digest, pass.digest, reference.heldout_acc, pass.heldout_acc
            ),
            format!("trace: {} ({} events)", trace_path.display(), events.len()),
        ],
    })
}

fn write_trace(path: &Path, events: &[Event]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for ev in events {
        writeln!(out, "{}", ev.to_jsonl())?;
    }
    out.flush()
}
