//! One-shot reproduction summary: computes every headline number of the
//! paper live and prints paper-vs-measured side by side.

use cq_accel::{CambriconQ, CqConfig};
use cq_experiments::perf;
use cq_quant::ldq::compression_loss;
use cq_quant::IntFormat;
use cq_sim::geomean;
use cq_sim::hwcost::quantization_overhead;
use cq_sim::report::TextTable;
use cq_workloads::models;

fn main() {
    let _trace = cq_par::start();
    println!("Cambricon-Q reproduction — headline claims, computed live\n");
    let rows = perf::run_comparison();
    let sp_gpu = geomean(&rows.iter().map(|r| r.speedup_gpu()).collect::<Vec<_>>());
    let sp_tpu = geomean(&rows.iter().map(|r| r.speedup_tpu()).collect::<Vec<_>>());
    let en_gpu = geomean(&rows.iter().map(|r| r.energy_gain_gpu()).collect::<Vec<_>>());
    let en_tpu = geomean(&rows.iter().map(|r| r.energy_gain_tpu()).collect::<Vec<_>>());

    // INT4 gains.
    let opt = perf::default_optimizer();
    let int8 = CambriconQ::edge();
    let int4 = CambriconQ::new(CqConfig::edge().with_format(IntFormat::Int4));
    let mut p4 = Vec::new();
    let mut e4 = Vec::new();
    for net in models::all_benchmarks() {
        let r8 = int8.simulate(&net, opt);
        let r4 = int4.simulate(&net, opt);
        p4.push(r4.speedup_over(&r8));
        e4.push(r4.energy_gain_over(&r8));
    }

    // NDP contributions on the extremes.
    let find = |name: &str| rows.iter().find(|r| r.network == name).expect("benchmark");
    let ndp_gain = |name: &str| {
        let r = find(name);
        (r.cq.speedup_over(&r.tpu) / r.cq_no_ndp.speedup_over(&r.tpu) - 1.0) * 100.0
    };

    let (area_pct, power_pct) = quantization_overhead();
    let mut t = TextTable::new(vec!["Claim", "Paper", "Measured"]);
    t.row(vec![
        "speedup vs GPU (geomean)".into(),
        "4.20x".into(),
        format!("{sp_gpu:.2}x"),
    ]);
    t.row(vec![
        "speedup vs TPU (geomean)".into(),
        "1.70x".into(),
        format!("{sp_tpu:.2}x"),
    ]);
    t.row(vec![
        "energy vs GPU (geomean)".into(),
        "6.41x".into(),
        format!("{en_gpu:.2}x"),
    ]);
    t.row(vec![
        "energy vs TPU (geomean)".into(),
        "1.62x".into(),
        format!("{en_tpu:.2}x"),
    ]);
    t.row(vec![
        "INT4-mode perf / energy gain".into(),
        "2.33x / 2.35x".into(),
        format!("{:.2}x / {:.2}x", geomean(&p4), geomean(&e4)),
    ]);
    t.row(vec![
        "NDP benefit: AlexNet / SqueezeNet".into(),
        "large / negligible".into(),
        format!(
            "{:+.0}% / {:+.0}%",
            ndp_gain("AlexNet"),
            ndp_gain("SqueezeNet")
        ),
    ]);
    t.row(vec![
        "quantization HW overhead (area/power)".into(),
        "5.87% / 13.95%".into(),
        format!("{area_pct:.2}% / {power_pct:.2}%"),
    ]);
    t.row(vec![
        "LDQ compression loss @ K=200".into(),
        "<1%".into(),
        format!("{:.2}%", compression_loss(200, 1 << 22) * 100.0),
    ]);
    t.row(vec![
        "peak INT8 throughput".into(),
        "2 TOPS".into(),
        format!("{:.2} TOPS", CqConfig::edge().peak_tops_int8()),
    ]);
    print!("{t}");
    println!("\nRun table8_accuracy for the training-accuracy reproduction");
    println!("(trains 30 proxy models; ~1 minute).");
}
