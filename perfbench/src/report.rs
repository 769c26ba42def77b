//! Metric names and units (they must match `BENCHMARK.json`) and the
//! result line the benchmark prints last.

/// End-to-end metrics of the untraced pass, in print order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_cpu_s", "1/s"),
    ("op_cpu_ms_p50", "ms"),
    ("op_cpu_ms_p90", "ms"),
    ("ok_frac", "fraction"),
    ("heldout_acc", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// The six simulated networks in `all_benchmarks()` order: the short key
/// their `accel.simulate` spans carry, and their per-layer metric.
pub const SIM_NETS: [(&str, &str); 6] = [
    ("alexnet", "accel.simulate_ms.alexnet"),
    ("resnet18", "accel.simulate_ms.resnet18"),
    ("googlenet", "accel.simulate_ms.googlenet"),
    ("squeezenet", "accel.simulate_ms.squeezenet"),
    ("transformer", "accel.simulate_ms.transformer"),
    ("lstm", "accel.simulate_ms.lstm"),
];

/// Per-layer metrics of the traced pass, in print order.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("nn.forward_ms", "ms"),
    ("nn.loss_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.optimizer_ms", "ms"),
    ("quant.fake_quantize_ms", "ms"),
    ("quant.fake_quantize_melems", "Melem/s"),
    ("quant.intdomain_ms", "ms"),
    ("quant.ladder_hit_rate", "fraction"),
    ("quant.ladder_fallbacks", "count"),
    ("par.f32_kernel_ms", "ms"),
    ("par.f32_gmacs", "GMAC/s"),
    ("par.i8_kernel_ms", "ms"),
    ("par.i8_gmacs", "GMAC/s"),
    ("accel.simulate_ms.alexnet", "ms"),
    ("accel.simulate_ms.resnet18", "ms"),
    ("accel.simulate_ms.googlenet", "ms"),
    ("accel.simulate_ms.squeezenet", "ms"),
    ("accel.simulate_ms.transformer", "ms"),
    ("accel.simulate_ms.lstm", "ms"),
    ("accel.sim_layers_per_s", "1/s"),
    ("accel.cache_key_us", "us"),
    ("sim.hwcost_hits", "count"),
    ("sim.hwcost_misses", "count"),
    ("sim.hwcost_evictions", "count"),
    ("sim.hwcost_hit_ratio", "fraction"),
    ("serve.simulate_cell_us", "us"),
    ("serve.dispatch_share", "fraction"),
    ("serve.accepted", "count"),
    ("serve.rejected", "count"),
    ("serve.coalesced", "count"),
    ("serve.queue_peak", "count"),
    ("serve.cells_ok", "count"),
    ("serve.cells_failed", "count"),
    ("resil.retry", "count"),
    ("resil.task_failed", "count"),
    ("obs.trace_overhead", "fraction"),
];

/// Renders a finite number as JSON with every digit Rust's shortest
/// round-trip formatting gives; non-finite values become `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with every metric of `spec` in order (missing values are
/// reported as 0 — the layer did no work on this workload).
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    spec: &[(&str, &str)],
    values: &[(&str, f64)],
) -> String {
    let metrics: Vec<String> = spec
        .iter()
        .map(|(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |&(_, v)| v);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
