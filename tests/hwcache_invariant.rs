//! HwCostCache soundness invariant: an experiment sweep must render
//! *byte-identical* reports whether the simulation memo is enabled,
//! disabled, cold, or warm. Memoization is a pure performance lever — any
//! observable difference in a report is a cache bug.
//!
//! This lives in its own test binary because it toggles the process-global
//! cache mode (`set_hwcache_enabled`); keeping every phase inside one
//! `#[test]` keeps the toggles ordered even under parallel test threads.

use cq_experiments::perf;
use cq_ndp::OptimizerKind;
use cq_sim::set_hwcache_enabled;
use cq_workloads::models;

/// Renders one full sweep-style report: the Fig. 12 comparison pipeline
/// plus a direct profiled/resilient pass over two nets, capturing every
/// cached field (result, per-layer profile, ECC stats) in one string.
fn render_sweep() -> String {
    let rows = perf::run_comparison();
    let mut out = String::new();
    out.push_str(&perf::fig12a_table(&rows).to_string());
    out.push_str(&perf::fig12c_table(&rows).to_string());
    let (d, ratio) = perf::fig12d_table(&rows);
    out.push_str(&d.to_string());
    out.push_str(&format!("geomean energy ratio {ratio:.6}\n"));

    let chip = cq_accel::CambriconQ::edge();
    let opt = OptimizerKind::Sgd { lr: 0.01 };
    for net in [models::squeezenet_v1(), models::resnet18()] {
        let (result, profile) = chip.simulate_profiled(&net, opt);
        let (resilient, ecc) = chip.simulate_resilient(&net, opt);
        out.push_str(&format!(
            "{result:?}\n{profile:?}\n{resilient:?}\n{ecc:?}\n"
        ));
    }

    // Non-default mapping leg: the sim-cache key must separate policies
    // (a Search-policy result served from a Default-policy entry — or
    // vice versa — would corrupt both reports), and the mapping-search
    // memo must itself be invariant under the hwcache toggle.
    let search_chip = cq_accel::CambriconQ::with_mapping(
        cq_accel::CqConfig::edge(),
        cq_accel::MappingPolicy::Search,
    );
    let net = models::alexnet();
    let searched = search_chip.simulate(&net, opt);
    let default = chip.simulate(&net, opt);
    assert!(
        searched.total_cycles() < default.total_cycles(),
        "searched AlexNet must keep its fc fold wins"
    );
    out.push_str(&format!("{searched:?}\n{default:?}\n"));
    out
}

#[test]
fn cached_and_uncached_sweeps_are_byte_identical() {
    // Uncached reference: every simulation recomputes.
    set_hwcache_enabled(false);
    let uncached = render_sweep();

    // Cold cache: first pass fills the memo.
    set_hwcache_enabled(true);
    cq_accel::clear_sim_cache();
    let stats_before = cq_accel::sim_cache_stats();
    let cold = render_sweep();
    let stats_cold = cq_accel::sim_cache_stats();
    assert!(
        stats_cold.misses > stats_before.misses,
        "cold pass must populate the cache"
    );
    assert!(stats_cold.entries > 0, "cold pass must store entries");

    // Warm cache: second pass must be served from the memo.
    let warm = render_sweep();
    let stats_warm = cq_accel::sim_cache_stats();
    assert!(
        stats_warm.hits > stats_cold.hits,
        "warm pass must hit the cache"
    );
    assert_eq!(
        stats_warm.entries, stats_cold.entries,
        "warm pass must not add entries"
    );

    assert_eq!(uncached, cold, "cold cached sweep diverged from uncached");
    assert_eq!(uncached, warm, "warm cached sweep diverged from uncached");
}
