//! Per-layer mapping search over the capacity-legal mapping space.
//!
//! The search runs in two stages (`two_stage`): it scores every coarse
//! candidate, then a refinement neighbourhood of the winner.
//!
//! 1. **Structure** — every DRAM-level loop order with
//!    buffer-capacity-fitted tiles at a neutral seed; the order decides
//!    the reload factors and spill behaviour, so it factors out first.
//! 2. **Tiles** — a grid of tile seeds around the winning order, each
//!    re-fitted to the buffer capacities.
//!
//! The PE-level reduction fold is *not* a search dimension: folding
//! never changes DRAM traffic or MAC energy, only the sweep length, so
//! for any fixed structure the cycle-minimal fold weakly dominates
//! every other fold on both score axes and is chosen analytically
//! (`best_fold`).
//!
//! Candidates are scored by energy-delay product through the chip's own
//! cost model (`CambriconQ::score_layer_mapping`: the three MAC
//! phases against a fresh DDR model plus time-proportional static
//! energy). Before the cycle-accurate DDR model runs, two cheap gates
//! apply: capacity-illegal candidates are dropped, and candidates whose
//! reload/spill traffic exceeds a small multiple of the layer's
//! compulsory bytes are pruned — they cannot win on EDP, and pruning
//! them keeps multi-GB spill streams out of the row-by-row DDR walk.
//! Scores are memoized by the candidate's `LayerMapEval` signature
//! (reload factors, spills, fold), which fully determines the phase
//! charges, so structurally different mappings with identical stream
//! behaviour cost one evaluation. Per (config, network, layer) results
//! are memoized through a process-wide [`HwCostCache`].
//!
//! The search space is honest where the streaming default is idealized:
//! every candidate pays its reload and spill traffic and must fit the
//! buffers, while the default is never charged for its residency
//! violations. A reported win is therefore conservative. Two win axes
//! survive that handicap, both from the fold: layers whose output rows
//! underfill the 64 PE rows (e.g. AlexNet's fully-connected layers at
//! batch 32) waste most of the array, and folding reduction chunks onto
//! the idle rows shortens every compute-bound phase; and layers whose
//! rows divide the folded row-group more evenly (PTB-LSTM's m = 1000
//! steps) shave the ragged-tile padding. Less time is also less
//! standby/static energy. When no legal candidate beats the default on
//! either axis, the search reports the default itself, so Search/Table
//! policies never regress a layer.

use crate::chip::{CambriconQ, LayerMapEval};
use cq_sim::mapping::{pe_sweep_cycles, LoopOrder, Mapping, MappingTable, MatShape, MemHierarchy};
use cq_sim::{HwCostCache, HwCostKey};
use cq_workloads::{Layer, MatmulDims, Network};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Candidates whose reload + spill bytes exceed this multiple of the
/// layer's compulsory stream bytes are pruned before cycle-accurate
/// scoring: the extra DRAM traffic alone already dwarfs any possible
/// static-energy or sweep-length saving.
const TRAFFIC_PRUNE_FACTOR: f64 = 2.0;

/// Outcome of the search for one layer: the winning mapping and the
/// model's scores for it and for the streaming default.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSearch {
    /// Layer name.
    pub layer: String,
    /// Winning capacity-legal mapping — or the streaming default when
    /// no legal candidate beat the default on either axis.
    pub mapping: Mapping,
    /// MAC-phase cycles under the streaming default.
    pub default_cycles: u64,
    /// MAC-phase energy (pJ, incl. static share) under the default.
    pub default_energy_pj: f64,
    /// MAC-phase cycles under the searched mapping.
    pub searched_cycles: u64,
    /// MAC-phase energy (pJ, incl. static share) under the searched
    /// mapping.
    pub searched_energy_pj: f64,
    /// Candidates considered (legal, pruned and illegal) across both
    /// stages.
    pub candidates: usize,
}

impl LayerSearch {
    /// Default-over-searched latency ratio (> 1 = searched is faster).
    pub fn latency_gain(&self) -> f64 {
        self.default_cycles as f64 / self.searched_cycles.max(1) as f64
    }

    /// Default-over-searched energy ratio (> 1 = searched is cheaper).
    pub fn energy_gain(&self) -> f64 {
        self.default_energy_pj / self.searched_energy_pj.max(f64::MIN_POSITIVE)
    }

    /// Whether the searched mapping is strictly better than the default
    /// in latency or energy.
    pub fn improved(&self) -> bool {
        self.searched_cycles < self.default_cycles
            || self.searched_energy_pj < self.default_energy_pj
    }
}

/// Outcome of a [`two_stage`] search.
#[derive(Debug, Clone)]
struct TwoStageResult<C> {
    /// Best-scoring candidate across both stages.
    best: C,
    /// Its score (higher is better); `f64::MIN` if no candidate scored.
    score: f64,
    /// Number of candidates submitted to `score`.
    candidates: usize,
}

/// Generic two-stage search: score every coarse stage-1 candidate, pick
/// the winner, expand it into a stage-2 refinement neighbourhood via
/// `refine`, and score those too.
///
/// `score` returns `None` for candidates that are illegal (a mapping
/// that violates buffer capacity, or one the traffic gate prunes); a
/// refinement identical to the stage-1 winner is skipped rather than
/// scored twice. Panics if `stage1` is empty.
fn two_stage<C, F, R>(stage1: &[C], mut score: F, refine: R) -> TwoStageResult<C>
where
    C: Clone + PartialEq,
    F: FnMut(&C) -> Option<f64>,
    R: FnOnce(&C) -> Vec<C>,
{
    assert!(!stage1.is_empty(), "two_stage: empty stage-1 candidate set");
    let mut candidates = 0usize;
    let mut best = stage1[0].clone();
    let mut best_score = f64::MIN;
    for c in stage1 {
        candidates += 1;
        if let Some(s) = score(c) {
            if s > best_score {
                best_score = s;
                best = c.clone();
            }
        }
    }
    let stage1_winner = best.clone();
    for c in refine(&stage1_winner) {
        if c == stage1_winner {
            continue; // already scored in stage 1
        }
        candidates += 1;
        if let Some(s) = score(&c) {
            if s > best_score {
                best_score = s;
                best = c;
            }
        }
    }
    TwoStageResult {
        best,
        score: best_score,
        candidates,
    }
}

/// Process-wide memo of per-layer searches. Sound because the search is
/// a pure function of (chip config, layer work): scoring constructs a
/// fresh `DdrModel` per candidate.
fn search_cache() -> &'static HwCostCache<LayerSearch> {
    static CACHE: OnceLock<HwCostCache<LayerSearch>> = OnceLock::new();
    CACHE.get_or_init(HwCostCache::new)
}

fn shape_of(mm: &MatmulDims) -> MatShape {
    MatShape {
        m: mm.m,
        n: mm.n,
        k: mm.k,
    }
}

/// Reduction-fold candidates: small powers-of-two-ish folds plus the
/// fold that exactly covers the skinniest output (`rows / min m`), all
/// clamped to the row dimension.
fn fold_candidates(hier: &MemHierarchy, matmuls: &[MatmulDims]) -> Vec<u64> {
    let rows = hier.pe_rows.max(1);
    let mut folds: Vec<u64> = [1, 2, 3, 4, 6, 8, 16, 32, 64]
        .into_iter()
        .filter(|&f| f <= rows)
        .collect();
    if let Some(min_m) = matmuls.iter().map(|mm| mm.m).filter(|&m| m > 0).min() {
        folds.push((rows / min_m.max(1)).clamp(1, rows));
    }
    folds.sort_unstable();
    folds.dedup();
    folds
}

/// The fold that minimizes the layer's total PE sweep cycles. Folding
/// leaves traffic and MAC energy untouched, so the cycle-minimal fold
/// weakly dominates all others for any structure; ties break toward the
/// smallest fold (the legacy sweep).
fn best_fold(hier: &MemHierarchy, matmuls: &[MatmulDims], passes: u64) -> u64 {
    fold_candidates(hier, matmuls)
        .into_iter()
        .min_by_key(|&fold| {
            matmuls
                .iter()
                .map(|mm| {
                    pe_sweep_cycles(
                        hier.pe_rows,
                        hier.pe_cols,
                        hier.pe_arrays,
                        fold,
                        shape_of(mm),
                        passes,
                    ) * mm.serial_repeats
                })
                .sum::<u64>()
        })
        .unwrap_or(1)
}

/// Largest capacity-fitting tile sizes for `shape` from M/N tile seeds:
/// clamp to the problem, halve `Tn` until the partial-sum tile fits
/// NBout, then size `Tk` to the tighter of NBin (input tile) and SB
/// (weight tile). `None` when nothing fits (degenerate hierarchies).
fn fitted_tiles(
    shape: MatShape,
    hier: &MemHierarchy,
    tm0: u64,
    tn0: u64,
) -> Option<(u64, u64, u64)> {
    let tm = tm0.min(shape.m).max(1);
    let mut tn = tn0.min(shape.n).max(1);
    while tm as f64 * tn as f64 * hier.acc_bytes > hier.nbout_bytes as f64 && tn > 1 {
        tn /= 2;
    }
    if tm as f64 * tn as f64 * hier.acc_bytes > hier.nbout_bytes as f64 {
        return None;
    }
    let k_nbin = (hier.nbin_bytes as f64 / (tm as f64 * hier.elem_bytes)) as u64;
    let k_sb = (hier.sb_bytes as f64 / (tn as f64 * hier.elem_bytes)) as u64;
    let tk = shape.k.min(k_nbin).min(k_sb);
    if tk == 0 {
        return None;
    }
    Some((tm, tn, tk))
}

/// The uncached two-stage search for one layer.
fn run_search(chip: &CambriconQ, layer: &Layer, batch: usize) -> LayerSearch {
    let hier = chip.config().mem_hierarchy();
    let matmuls = layer.as_matmuls(batch);
    let inputs = layer.input_count() * batch as u64;
    let outputs = layer.output_count() * batch as u64;
    let weights = layer.weight_count();

    let (default_cycles, default_energy_pj) = chip.score_layer_mapping(
        inputs,
        outputs,
        weights,
        &matmuls,
        &Mapping::streaming_default(),
    );
    let fallback = |candidates: usize| LayerSearch {
        layer: layer.name.clone(),
        mapping: Mapping::streaming_default(),
        default_cycles,
        default_energy_pj,
        searched_cycles: default_cycles,
        searched_energy_pj: default_energy_pj,
        candidates,
    };

    // Tiles are fitted against the dominant matmul; legality is still
    // checked against every matmul of the layer before scoring.
    let dominant = matmuls
        .iter()
        .max_by_key(|mm| mm.m * mm.n * mm.k)
        .map(shape_of);
    let Some(dominant) = dominant else {
        // A layer with no matmuls (none exist today) has nothing to map.
        return fallback(0);
    };
    let fold = best_fold(&hier, &matmuls, chip.config().passes_per_mac());

    let candidate = |order: LoopOrder, tm0: u64, tn0: u64| -> Option<Mapping> {
        let (tile_m, tile_n, tile_k) = fitted_tiles(dominant, &hier, tm0, tn0)?;
        Some(Mapping {
            order,
            tile_m,
            tile_n,
            tile_k,
            kfold: fold,
        })
    };

    // Stage 1: structure — every loop order at neutral tile seeds.
    let mut stage1: Vec<Mapping> = Vec::new();
    for order in LoopOrder::ALL {
        if let Some(m) = candidate(order, 128, 256) {
            if !stage1.contains(&m) {
                stage1.push(m);
            }
        }
    }
    if stage1.is_empty() {
        return fallback(0);
    }

    // Compulsory bytes of the layer's streams, the prune baseline.
    let qbytes = hier.elem_bytes;
    let base_bytes = (inputs + outputs + weights) as f64 * qbytes;
    let memo: RefCell<HashMap<LayerMapEval, (u64, f64)>> = RefCell::new(HashMap::new());
    let score = |mapping: &Mapping| -> Option<f64> {
        if !matmuls
            .iter()
            .all(|mm| mapping.is_capacity_legal(shape_of(mm), &hier))
        {
            return None;
        }
        let sig = chip.eval_mapping(mapping, &matmuls);
        let extra_bytes = ((sig.f_in - 1) * inputs + (sig.f_w - 1) * weights) as f64 * qbytes
            + sig.spill_elems as f64 * 2.0 * hier.acc_bytes;
        if extra_bytes > TRAFFIC_PRUNE_FACTOR * base_bytes {
            return None;
        }
        let (cycles, energy) = *memo.borrow_mut().entry(sig).or_insert_with(|| {
            chip.score_layer_mapping(inputs, outputs, weights, &matmuls, mapping)
        });
        // Energy-delay product, negated: two_stage maximizes.
        Some(-(cycles as f64 * energy))
    };

    let res = two_stage(&stage1, score, |winner| {
        // Stage 2: tile seeds around the winning structure.
        let mut grid: Vec<Mapping> = Vec::new();
        for tm0 in [32u64, 64, 128, 256, 512, 1024] {
            for tn0 in [64u64, 128, 256, 512, 1024, 2048] {
                if let Some(m) = candidate(winner.order, tm0, tn0) {
                    if !grid.contains(&m) {
                        grid.push(m);
                    }
                }
            }
        }
        grid
    });

    if res.score == f64::MIN {
        // No candidate survived the legality and traffic gates.
        return fallback(res.candidates);
    }
    let (searched_cycles, searched_energy_pj) =
        chip.score_layer_mapping(inputs, outputs, weights, &matmuls, &res.best);
    if searched_cycles >= default_cycles && searched_energy_pj >= default_energy_pj {
        // The best legal candidate still loses both axes to the
        // idealized default: keep the default so Search/Table policies
        // never regress a layer.
        return fallback(res.candidates);
    }
    LayerSearch {
        layer: layer.name.clone(),
        mapping: res.best,
        default_cycles,
        default_energy_pj,
        searched_cycles,
        searched_energy_pj,
        candidates: res.candidates,
    }
}

/// The memoized searched mapping for one layer of `net_name` at `batch`.
pub fn search_layer(
    chip: &CambriconQ,
    net_name: &str,
    batch: usize,
    layer: &Layer,
) -> Arc<LayerSearch> {
    let key = HwCostKey::new(
        "mapping-search",
        format!(
            "{:?}|{net_name}|{}|b{batch}|{:?}|{}/{}/{}|bits:{}",
            chip.config(),
            layer.name,
            layer.as_matmuls(batch),
            layer.input_count(),
            layer.output_count(),
            layer.weight_count(),
            // Debug aliases NaN payloads in the config's float fields;
            // the bit section keeps distinct configs on distinct keys.
            crate::keyspec::config_float_bits(chip.config()),
        ),
    );
    search_cache().get_or_compute(key, || run_search(chip, layer, batch))
}

/// Searches every layer of `net`, in layer order.
pub fn search_network(chip: &CambriconQ, net: &Network) -> Vec<Arc<LayerSearch>> {
    net.layers
        .iter()
        .map(|layer| search_layer(chip, &net.name, net.batch_size, layer))
        .collect()
}

/// The searched mappings of `net` as a table loadable via
/// `CQ_MAPPING=<file>` (after [`MappingTable::render`] to disk).
pub fn searched_table(chip: &CambriconQ, net: &Network) -> MappingTable {
    let mut table = MappingTable::new();
    for s in search_network(chip, net) {
        table.insert(&net.name, &s.layer, s.mapping);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CqConfig;
    use cq_sim::mapping::MappingPolicy;
    use cq_workloads::models;

    #[test]
    fn two_stage_skips_winner_and_keeps_best() {
        // Deterministic scores: stage 1 over 1..=3 (3 wins), refinement
        // re-lists the winner (skipped) plus 30 (wins) and an illegal 99.
        let mut scored = Vec::new();
        let res = two_stage(
            &[1, 2, 3],
            |&c| {
                scored.push(c);
                if c == 99 {
                    None
                } else {
                    Some(c as f64)
                }
            },
            |&w| vec![w, 30, 99],
        );
        assert_eq!(res.best, 30);
        assert_eq!(res.score, 30.0);
        // 3 stage-1 + 2 stage-2 (winner skipped, illegal still counted).
        assert_eq!(res.candidates, 5);
        assert_eq!(scored, vec![1, 2, 3, 30, 99]);
    }

    #[test]
    fn two_stage_all_illegal_falls_back_to_first() {
        let res = two_stage(&["a", "b"], |_| None, |_| vec!["c"]);
        assert_eq!(res.best, "a");
        assert_eq!(res.score, f64::MIN);
        assert_eq!(res.candidates, 3);
    }

    #[test]
    fn fc_layer_search_wins_via_fold() {
        // AlexNet's fully-connected layers run m = batch = 32 output
        // rows — half the 64 PE rows idle. A fold-2 mapping doubles the
        // sweep throughput of every compute-bound phase at unchanged
        // MAC energy, so the search must find a strict improvement.
        let chip = CambriconQ::edge();
        let net = models::alexnet();
        for name in ["fc6", "fc7", "fc8"] {
            let layer = net.layers.iter().find(|l| l.name == name).unwrap();
            let s = search_layer(&chip, &net.name, net.batch_size, layer);
            assert!(s.candidates > 0, "{name}: no candidates scored");
            assert!(
                s.mapping.kfold >= 2,
                "{name}: expected a fold win, got {:?}",
                s.mapping
            );
            assert!(
                s.improved() && s.searched_cycles < s.default_cycles,
                "{name}: searched {:?} not faster ({} vs {} cycles)",
                s.mapping,
                s.searched_cycles,
                s.default_cycles
            );
            assert!(s.latency_gain() > 1.05, "{name}: {}", s.latency_gain());
        }
    }

    #[test]
    fn lstm_search_smooths_ragged_sweeps() {
        // PTB-LSTM runs m = 1000 output rows: 1000 is not a multiple of
        // the 64 PE rows (16 row tiles, the last one 38% padding), but
        // it divides the fold-8 row group of 8 exactly, so the search
        // shaves the ragged-tile padding on both recurrent layers.
        let chip = CambriconQ::edge();
        let net = models::ptb_lstm_medium();
        let results = search_network(&chip, &net);
        assert_eq!(results.len(), net.layers.len());
        for s in &results {
            assert!(
                s.improved() || s.mapping.is_streaming_default(),
                "{}: kept a non-improving mapping {:?}",
                s.layer,
                s.mapping
            );
        }
        let lstm_wins = results
            .iter()
            .filter(|s| s.layer.starts_with("lstm"))
            .filter(|s| s.searched_cycles < s.default_cycles && s.mapping.kfold > 1)
            .count();
        assert!(lstm_wins >= 1, "no recurrent layer won on latency");
    }

    #[test]
    fn searched_mappings_are_capacity_legal() {
        let chip = CambriconQ::edge();
        let hier = chip.config().mem_hierarchy();
        for net in [models::alexnet(), models::ptb_lstm_medium()] {
            for s in search_network(&chip, &net) {
                if s.mapping.is_streaming_default() {
                    continue; // fallback case: exempt by contract
                }
                let layer = net.layers.iter().find(|l| l.name == s.layer).unwrap();
                for mm in layer.as_matmuls(net.batch_size) {
                    assert!(
                        s.mapping.is_capacity_legal(shape_of(&mm), &hier),
                        "{}/{}: {:?} illegal",
                        net.name,
                        s.layer,
                        s.mapping
                    );
                }
            }
        }
    }

    #[test]
    fn searched_table_drives_the_simulator() {
        // End-to-end: search → table → Table-policy chip. The fc-layer
        // fold wins must survive into the full training-iteration run.
        let net = models::alexnet();
        let opt = cq_ndp::OptimizerKind::Sgd { lr: 0.01 };
        let default_chip = CambriconQ::with_mapping(CqConfig::edge(), MappingPolicy::Default);
        let table = searched_table(&default_chip, &net);
        assert_eq!(table.len(), net.layers.len());
        let searched_chip = CambriconQ::with_mapping(CqConfig::edge(), MappingPolicy::Table(table));
        let d = default_chip.simulate(&net, opt);
        let s = searched_chip.simulate(&net, opt);
        assert!(
            s.total_cycles() < d.total_cycles(),
            "searched {} !< default {}",
            s.total_cycles(),
            d.total_cycles()
        );
    }

    #[test]
    fn search_policy_equals_table_of_searched_mappings() {
        let net = models::alexnet();
        let opt = cq_ndp::OptimizerKind::Sgd { lr: 0.01 };
        let search_chip = CambriconQ::with_mapping(CqConfig::edge(), MappingPolicy::Search);
        let base = CambriconQ::with_mapping(CqConfig::edge(), MappingPolicy::Default);
        let table_chip = CambriconQ::with_mapping(
            CqConfig::edge(),
            MappingPolicy::Table(searched_table(&base, &net)),
        );
        assert_eq!(
            search_chip.simulate(&net, opt),
            table_chip.simulate(&net, opt)
        );
    }

    #[test]
    fn missing_table_entry_aborts() {
        let net = models::squeezenet_v1();
        let chip =
            CambriconQ::with_mapping(CqConfig::edge(), MappingPolicy::Table(MappingTable::new()));
        let r = std::panic::catch_unwind(|| {
            chip.simulate(&net, cq_ndp::OptimizerKind::Sgd { lr: 0.01 })
        });
        assert!(r.is_err(), "empty mapping table must abort");
    }
}
