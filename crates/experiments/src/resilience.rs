//! Fault sweep: resilience of the training iteration under injected
//! hardware faults.
//!
//! The paper evaluates Cambricon-Q on a fault-free machine; this extension
//! asks what the architecture costs — and saves — when the machine is not.
//! Three protection configurations are swept over the six benchmark
//! networks at several DRAM/SRAM bit-error rates:
//!
//! - **no-ECC** — faults land unprotected; every flip is a silent
//!   corruption.
//! - **ECC** — SECDED(72,64) on the DDR path corrects single-bit errors
//!   (charging extra cycles and energy) and flags double-bit errors as
//!   detected-uncorrectable; value-level faults in SRAM and the θ
//!   statistic registers still pass silently.
//! - **ECC+E²BQM** — additionally arms the guarded quantizer: corrupted θ
//!   statistics are rejected and recomputed, non-finite inputs are
//!   sanitized, and overflowing blocks are re-multiplexed onto a wider
//!   format (logged as `DegradedPrecision`) instead of crashing the run.
//!
//! The sweep also asserts the zero-cost property: with fault rate 0 and
//! ECC off, the resilient simulation path is bit-identical to the plain
//! one.

use cq_accel::{CambriconQ, CqConfig, Squ};
use cq_faults::{EventCounts, FaultDomain, FaultEvent, FaultPlan, ResilienceReport};
use cq_ndp::OptimizerKind;
use cq_par::Pool;
use cq_quant::E2bqmQuantizer;
use cq_sim::report::TextTable;
use cq_tensor::Tensor;
use cq_workloads::{models, Network};

/// Bit-error rates swept (per transferred/stored bit).
pub const SWEEP_BERS: [f64; 3] = [1e-7, 1e-6, 1e-5];

/// Seed for every deterministic sampler in the sweep.
pub const SWEEP_SEED: u64 = 0xCA3B_71C0;

/// Gradient-buffer elements sampled per network for value-level injection.
const SAMPLE_ELEMS: usize = 4096;

fn default_optimizer() -> OptimizerKind {
    OptimizerKind::Sgd { lr: 0.01 }
}

/// The three protection configurations of the sweep at one fault rate.
pub fn sweep_plans(ber: f64) -> [FaultPlan; 3] {
    [
        FaultPlan::unprotected(SWEEP_SEED, ber),
        FaultPlan::ecc_only(SWEEP_SEED, ber),
        FaultPlan::full_protection(SWEEP_SEED, ber),
    ]
}

/// A deterministic pseudo-gradient buffer standing in for one SQU input
/// stream of `net`: small mostly-near-zero values with the long-tailed
/// spread the paper's Fig. 2 shows for real gradients.
fn gradient_sample(net: &Network) -> Vec<f32> {
    let mut state = net.total_weights() | 1;
    (0..SAMPLE_ELEMS)
        .map(|_| {
            // xorshift64* — cheap, deterministic, network-dependent.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32;
            (u - 0.5) * 0.02
        })
        .collect()
}

/// Runs the value-level (SRAM + θ-register) injection for one plan and
/// tallies the resulting events.
fn value_level_events(net: &Network, plan: &FaultPlan) -> EventCounts {
    let mut inj = plan.injector();
    let mut data = gradient_sample(net);
    inj.corrupt_slice(&mut data, plan.sram_ber, FaultDomain::Sram);
    let mut events = inj.take_events();

    let theta = data.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let bad_theta = if plan.corrupt_theta {
        // Mantissa flips perturb θ by less than 2× and are absorbed by the
        // candidate search; keep injecting until a fault lands in the sign
        // or exponent field, where the corruption is observable.
        let anomalous =
            |t: f32| !t.is_finite() || t <= 0.0 || t > theta * 256.0 || t < theta / 16.0;
        let mut t = inj.corrupt_theta(theta);
        while !anomalous(t) {
            t = inj.corrupt_theta(theta);
        }
        events.extend(inj.take_events());
        t
    } else {
        theta
    };

    let x = Tensor::from_vec(data, &[SAMPLE_ELEMS]).expect("sample shape");
    if plan.guarded_quant {
        let squ = Squ::new(&CqConfig::edge());
        let (_sel, _cost, degrades) = squ.quantize_guarded_with_theta(&x, bad_theta);
        events.extend(degrades.into_iter().map(FaultEvent::from));
    } else {
        // Unguarded hardware quantizes with whatever θ the register holds;
        // a corrupted statistic silently rescales the whole block.
        let q = E2bqmQuantizer::hardware_default();
        let _ = q.quantize_with_theta(&x, bad_theta);
        let silent = events
            .iter()
            .filter(|e| matches!(e, FaultEvent::Injected { .. }))
            .count();
        for _ in 0..silent {
            events.push(FaultEvent::Silent {
                domain: FaultDomain::Sram,
            });
        }
    }
    EventCounts::tally(&events)
}

/// Runs one (network, plan, rate) cell of the sweep.
pub fn run_cell(net: &Network, plan: &FaultPlan) -> ResilienceReport {
    let mut cfg = CqConfig::edge();
    cfg.ddr = plan.ddr_config(cfg.ddr);
    let chip = CambriconQ::new(cfg);
    let (result, ecc) = chip.simulate_resilient(net, default_optimizer());
    ResilienceReport {
        workload: net.name.clone(),
        config: plan.label().to_string(),
        ber: plan.dram_ber,
        cycles: result.total_cycles(),
        energy_mj: result.total_energy_mj(),
        ecc,
        counts: value_level_events(net, plan),
    }
}

/// The full sweep: six benchmarks × [`SWEEP_BERS`] × three configurations.
///
/// Every cell is deterministic and independent (each plan carries its own
/// seeded sampler), so the flattened grid fans out over the worker pool;
/// row order matches the original nested loops exactly.
pub fn run_sweep() -> Vec<ResilienceReport> {
    let cells: Vec<(Network, FaultPlan)> = models::all_benchmarks()
        .into_iter()
        .flat_map(|net| {
            SWEEP_BERS.into_iter().flat_map(move |ber| {
                let net = net.clone();
                sweep_plans(ber).into_iter().map(move |p| (net.clone(), p))
            })
        })
        .collect();
    Pool::global().parallel_map(cells.len(), |i| run_cell(&cells[i].0, &cells[i].1))
}

/// Renders the sweep as a text table.
pub fn sweep_table(rows: &[ResilienceReport]) -> TextTable {
    ResilienceReport::table(rows)
}

/// Verifies the zero-cost property on one network: a clean plan through
/// the resilient path is bit-identical to the plain simulation, with
/// all-zero ECC accounting. Returns the workload name checked.
pub fn zero_cost_check() -> Result<String, String> {
    let net = models::squeezenet_v1();
    let opt = default_optimizer();
    let plain = CambriconQ::edge().simulate(&net, opt);

    let plan = FaultPlan::clean(SWEEP_SEED);
    let mut cfg = CqConfig::edge();
    cfg.ddr = plan.ddr_config(cfg.ddr);
    let (resilient, ecc) = CambriconQ::new(cfg).simulate_resilient(&net, opt);

    if resilient != plain {
        return Err(format!(
            "{}: resilient path diverged from plain simulation at fault rate 0",
            net.name
        ));
    }
    if !ecc.is_empty() {
        return Err(format!("{}: clean run charged ECC work: {ecc:?}", net.name));
    }
    Ok(net.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cost_property_holds() {
        zero_cost_check().expect("fault rate 0 must be bit-identical");
    }

    #[test]
    fn sweep_cell_is_deterministic() {
        let net = models::alexnet();
        let plan = FaultPlan::full_protection(SWEEP_SEED, 1e-5);
        let a = run_cell(&net, &plan);
        let b = run_cell(&net, &plan);
        assert_eq!(a, b);
    }

    #[test]
    fn ecc_config_charges_overhead() {
        let net = models::alexnet();
        let ber = 1e-6;
        let [unprot, ecc, _] = sweep_plans(ber);
        let no_ecc = run_cell(&net, &unprot);
        let with_ecc = run_cell(&net, &ecc);
        assert!(with_ecc.cycles > no_ecc.cycles, "ECC checks cost cycles");
        assert!(with_ecc.energy_mj > no_ecc.energy_mj, "ECC costs energy");
        assert_eq!(no_ecc.ecc.corrected, 0, "no ECC, no corrections");
        assert!(
            no_ecc.ecc.silent_bit_flips > 0,
            "unprotected DDR faults at 1e-6 over a full iteration pass silently"
        );
        assert!(with_ecc.ecc.corrected > 0, "SECDED corrects isolated flips");
    }

    #[test]
    fn guarded_config_recovers_theta_faults() {
        let net = models::ptb_lstm_medium();
        let [unprot, _, full] = sweep_plans(1e-5);
        let guarded = run_cell(&net, &full);
        assert!(
            guarded.counts.statistic_recovered > 0 || guarded.counts.degraded_precision > 0,
            "a θ fault must be recovered or degraded, got {:?}",
            guarded.counts
        );
        let silent = run_cell(&net, &unprot);
        assert!(
            silent.counts.silent > 0,
            "the same faults pass silently when unguarded"
        );
    }
}
