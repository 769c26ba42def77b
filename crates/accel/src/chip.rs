//! Whole-chip training-iteration simulator.
//!
//! For every layer of a workload network the simulator schedules the four
//! training phases (FW/NG/WG/WU) plus the statistic (S) and quantization
//! (Q) work of HQT, charging cycles against the PE array, the SQU, and the
//! DDR model, and energy against the Fig. 12(d) components. Compute and
//! memory streams are double-buffered, so a phase's base time is
//! `max(compute, memory, squ)`; SQU time beyond the overlapped base is
//! what shows up as the (small) S/Q slices of Fig. 12(b).
//!
//! Dataflow rules (paper Fig. 7):
//!
//! * activations and neuron gradients move quantized (1 B at INT8);
//! * master weights live in DRAM at FP32; the NDP-side SQU quantizes them
//!   on the fly, so the *bus* sees 1 B/weight while the cells are read at
//!   full precision;
//! * weight gradients ΔW leave the core at FP32;
//! * with NDP enabled, the ΔW stream *is* the `WGSTORE` gradient stream —
//!   w/m/v never cross the bus; without NDP the core must read and write
//!   them all.

use crate::config::CqConfig;
use crate::pe::{PeArray, PeCost};
use crate::squ::Squ;
use cq_mem::{DdrModel, Dir};
use cq_ndp::{NdpEngine, OptimizerKind};
use cq_sim::hwcost::{acceleration_core_cost, ndp_engine_cost, DRAM_STANDBY_MW};
use cq_sim::mapping::{Mapping, MappingPolicy, MatShape};
use cq_sim::{
    CacheStats, Component, EnergyBreakdown, EnergyModel, HwCostCache, HwCostKey, Phase,
    PhaseBreakdown, SimResult,
};
use cq_workloads::Network;
use std::sync::{Arc, OnceLock};

/// Everything one training-iteration simulation produces, memoized as a
/// unit so all three public entry points ([`CambriconQ::simulate`],
/// [`CambriconQ::simulate_profiled`], [`CambriconQ::simulate_resilient`])
/// share the same cache entry.
#[derive(Debug)]
struct CachedRun {
    result: SimResult,
    profile: Vec<(String, PhaseBreakdown)>,
    ecc: cq_mem::EccStats,
}

/// Process-wide memo of training-iteration simulations. Sound because a
/// run is a pure function of (config, optimizer, network): the stateful
/// `DdrModel` is constructed fresh inside every uncached run.
fn sim_cache() -> &'static HwCostCache<CachedRun> {
    static CACHE: OnceLock<HwCostCache<CachedRun>> = OnceLock::new();
    CACHE.get_or_init(HwCostCache::new)
}

/// Drops every memoized simulation (benchmarks use this to time cold
/// starts). Hit/miss statistics are preserved.
pub fn clear_sim_cache() {
    sim_cache().clear();
}

/// Hit/miss/entry statistics of the simulation memo.
pub fn sim_cache_stats() -> CacheStats {
    sim_cache().stats()
}

/// The Cambricon-Q chip simulator.
///
/// # Examples
///
/// ```
/// use cq_accel::CambriconQ;
/// use cq_ndp::OptimizerKind;
/// use cq_workloads::models;
///
/// let chip = CambriconQ::edge();
/// let result = chip.simulate(&models::alexnet(), OptimizerKind::Sgd { lr: 0.01 });
/// assert!(result.time_ms() > 0.0);
/// assert!(result.total_energy_mj() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct CambriconQ {
    config: CqConfig,
    pe: PeArray,
    squ: Squ,
    energy: EnergyModel,
    mapping: MappingPolicy,
}

impl CambriconQ {
    /// A chip with the given configuration and the process-wide
    /// `CQ_MAPPING` mapping policy (default when unset).
    pub fn new(config: CqConfig) -> Self {
        CambriconQ::with_mapping(config, cq_sim::mapping::env_policy().clone())
    }

    /// A chip with an explicit mapping policy, bypassing `CQ_MAPPING`.
    pub fn with_mapping(config: CqConfig, mapping: MappingPolicy) -> Self {
        let pe = PeArray::new(&config);
        let squ = Squ::new(&config);
        CambriconQ {
            config,
            pe,
            squ,
            energy: EnergyModel::tsmc45(),
            mapping,
        }
    }

    /// The paper's edge configuration.
    pub fn edge() -> Self {
        CambriconQ::new(CqConfig::edge())
    }

    /// The configuration in use.
    pub fn config(&self) -> &CqConfig {
        &self.config
    }

    /// The active mapping policy.
    pub fn mapping_policy(&self) -> &MappingPolicy {
        &self.mapping
    }

    /// Quantized element size in bytes (0.5 for INT4, 1 for INT8, ...).
    fn qbytes(&self) -> f64 {
        self.config.train_format.bytes()
    }

    /// Simulates one *inference* minibatch: the forward pass only (§VII.C
    /// notes the same 4-bit PEs serve 4-bit inference models directly).
    pub fn simulate_inference(&self, net: &Network) -> SimResult {
        let mut mem = DdrModel::new(self.config.ddr);
        let mut phases = PhaseBreakdown::new();
        let mut energy = EnergyBreakdown::new();
        let batch = net.batch_size;
        for layer in &net.layers {
            let inputs = layer.input_count() * batch as u64;
            let outputs = layer.output_count() * batch as u64;
            let weights = layer.weight_count();
            let matmuls = layer.as_matmuls(batch);
            let mapping = self.layer_mapping(net, layer, batch);
            let me = self.eval_mapping(&mapping, &matmuls);
            let (compute, compute_cycles) = self.layer_compute(&matmuls, me.kfold);
            let mut reads = vec![
                (inputs * me.f_in, self.qbytes()),
                (weights * me.f_w, self.qbytes()),
            ];
            let mut writes = vec![(outputs, self.qbytes())];
            push_spills(&mut reads, &mut writes, me.spill_elems);
            self.charge_mac_phase(
                Phase::Forward,
                compute_cycles,
                compute.energy_pj,
                &reads,
                &writes,
                0, // inference weights are stored pre-quantized
                &mut mem,
                &mut phases,
                &mut energy,
            );
        }
        let seconds = phases.total_cycles() as f64 / (self.config.freq_ghz * 1e9);
        energy.charge(
            Component::DdrStandby,
            DRAM_STANDBY_MW * 1e9 * seconds * self.config.ddr.bus_bytes as f64 / 8.0,
        );
        SimResult::new(
            format!("{} (inference)", platform_name(&self.config)),
            net.name.clone(),
            self.config.freq_ghz,
            phases,
            energy,
        )
    }

    /// Simulates one training iteration (one minibatch) of `net`.
    ///
    /// Results are memoized process-wide by (config, optimizer, network):
    /// sweeps that re-simulate identical combinations hit the cache. Set
    /// `CQ_HWCACHE=off` (or [`cq_sim::set_hwcache_enabled`]) to force
    /// every call to recompute — the result is byte-identical either way.
    pub fn simulate(&self, net: &Network, optimizer: OptimizerKind) -> SimResult {
        self.cached_run(net, optimizer).result.clone()
    }

    /// Like [`CambriconQ::simulate`], but also returns the per-layer phase
    /// breakdowns (in layer order) for profiling.
    pub fn simulate_profiled(
        &self,
        net: &Network,
        optimizer: OptimizerKind,
    ) -> (SimResult, Vec<(String, PhaseBreakdown)>) {
        let run = self.cached_run(net, optimizer);
        (run.result.clone(), run.profile.clone())
    }

    /// Like [`CambriconQ::simulate`], but also returns the DDR model's
    /// ECC/fault accounting. With the default `DdrConfig` (ECC off, no
    /// fault process) the returned [`cq_mem::EccStats`] is all-zero and
    /// the `SimResult` is bit-identical to [`CambriconQ::simulate`].
    pub fn simulate_resilient(
        &self,
        net: &Network,
        optimizer: OptimizerKind,
    ) -> (SimResult, cq_mem::EccStats) {
        let run = self.cached_run(net, optimizer);
        (run.result.clone(), run.ecc)
    }

    /// The cache key of one whole-iteration run.
    ///
    /// The key captures *every* input the simulation reads: the full
    /// `CqConfig` (PE geometry, formats, DDR timing, fault/ECC settings),
    /// the optimizer, the network description, and the mapping policy
    /// (including any table contents), rendered via `Debug` — plus a
    /// canonical IEEE-754 bit section for every float field, because the
    /// Debug text aliases NaN payloads (and formatter changes could
    /// alias signed zeros), which would cross-serve cached costs between
    /// distinct configs. The energy model is a constant (`tsmc45`) and
    /// so needs no key part.
    pub(crate) fn run_key(&self, net: &Network, optimizer: OptimizerKind) -> HwCostKey {
        HwCostKey::new(
            "cambricon-q",
            format!(
                "{:?}|{:?}|{:?}|map={:?}|bits:{};{}",
                self.config,
                optimizer,
                net,
                self.mapping,
                crate::keyspec::config_float_bits(&self.config),
                crate::keyspec::optimizer_float_bits(&optimizer),
            ),
        )
    }

    /// The canonical `HwCostCache` key of one whole-iteration run — the
    /// public view of the key [`CambriconQ::simulate`] memoizes its run
    /// under. The sweep daemon coalesces
    /// identical in-flight cells by this key, which keeps the coalescing
    /// exactly as strict as the cache: two requests coalesce iff a cache
    /// hit would have served the second one byte-identically anyway.
    pub fn cache_key(&self, net: &Network, optimizer: OptimizerKind) -> HwCostKey {
        self.run_key(net, optimizer)
    }

    /// The memoized whole-iteration run for this (config, optimizer, net,
    /// mapping policy), keyed by [`CambriconQ::cache_key`].
    ///
    /// Inference ([`CambriconQ::simulate_inference`]) and external-baseline
    /// simulations are deliberately uncached: they are not re-invoked with
    /// identical inputs inside sweeps often enough to matter.
    fn cached_run(&self, net: &Network, optimizer: OptimizerKind) -> Arc<CachedRun> {
        let key = self.run_key(net, optimizer);
        sim_cache().get_or_compute(key, || self.fresh_run(net, optimizer))
    }

    /// One uncached training iteration against a freshly constructed
    /// memory model (this is the compute closure behind [`sim_cache`]).
    fn fresh_run(&self, net: &Network, optimizer: OptimizerKind) -> CachedRun {
        let mut mem = DdrModel::new(self.config.ddr);
        let (result, profile) = self.run_iteration(net, optimizer, &mut mem);
        CachedRun {
            result,
            profile,
            ecc: *mem.ecc_stats(),
        }
    }

    /// One training iteration against a caller-owned memory model.
    fn run_iteration(
        &self,
        net: &Network,
        optimizer: OptimizerKind,
        mem: &mut DdrModel,
    ) -> (SimResult, Vec<(String, PhaseBreakdown)>) {
        let mut sp = cq_obs::span!("accel", "simulate {}", net.name);
        let mut phases = PhaseBreakdown::new();
        let mut energy = EnergyBreakdown::new();
        let batch = net.batch_size;
        let ndp = NdpEngine::new(optimizer);
        let mut profile: Vec<(String, PhaseBreakdown)> = Vec::new();

        for layer in &net.layers {
            let phase_cycles_before = phases.clone();
            let inputs = layer.input_count() * batch as u64;
            let outputs = layer.output_count() * batch as u64;
            let weights = layer.weight_count();
            let matmuls = layer.as_matmuls(batch);

            // FW/NG/WG under this layer's mapping.
            let mapping = self.layer_mapping(net, layer, batch);
            self.charge_layer_mac_phases(
                &mapping,
                inputs,
                outputs,
                weights,
                &matmuls,
                mem,
                &mut phases,
                &mut energy,
            );
            // WU (mapping-independent: the update streams w/m/v linearly).
            if self.config.ndp_enabled {
                let stats = ndp.update_weights(weights, mem);
                let cycles = mem.to_clock(stats.cycles, self.config.freq_ghz);
                phases.charge(Phase::WeightUpdate, cycles, stats.compute_energy_pj);
                energy.charge(Component::Acc, stats.compute_energy_pj);
                energy.charge(
                    Component::DdrDynamic,
                    stats.dram_energy_pj + self.energy.dram(stats.bus_bytes as f64),
                );
            } else {
                // Core-side update: read ΔW + w/m/v, write w/m/v (FP32),
                // FP32 arithmetic on the SFU.
                let state = optimizer.state_words() as u64;
                let traffic_bytes = weights * 4 * (1 + 2 * (1 + state));
                let ctrl_cycles = mem.transfer(0x6000_0000, traffic_bytes as usize, Dir::Read);
                let mem_cycles = mem.to_clock(ctrl_cycles, self.config.freq_ghz);
                let flops = weights * optimizer.flops_per_weight() as u64;
                let sfu_lanes = 64 * self.config.pe_arrays as u64;
                let sfu_cycles = flops.div_ceil(sfu_lanes);
                let compute_pj =
                    flops as f64 * (self.energy.fp_mul(32) + self.energy.fp_add(32)) / 2.0;
                phases.charge(Phase::WeightUpdate, mem_cycles.max(sfu_cycles), compute_pj);
                energy.charge(Component::Acc, compute_pj);
                energy.charge(
                    Component::DdrDynamic,
                    self.energy.dram(traffic_bytes as f64),
                );
                energy.charge(Component::Buf, self.energy.sram(traffic_bytes as f64));
            }
            // Per-layer delta = totals now minus totals before this layer.
            let mut delta = PhaseBreakdown::new();
            for p in Phase::ALL {
                delta.charge(
                    p,
                    phases.cycles(p) - phase_cycles_before.cycles(p),
                    phases.energy_pj(p) - phase_cycles_before.energy_pj(p),
                );
            }
            profile.push((layer.name.clone(), delta));
        }

        // Static components over the total runtime.
        let total_cycles = phases.total_cycles();
        let seconds = total_cycles as f64 / (self.config.freq_ghz * 1e9);
        // DRAM standby.
        energy.charge(
            Component::DdrStandby,
            DRAM_STANDBY_MW * 1e9 * seconds * self.config.ddr.bus_bytes as f64 / 8.0,
        );
        // Idle/leakage share of the core and NDP engine: 30% of the
        // Table VII power draw, always on.
        let static_mw = 0.3
            * (acceleration_core_cost().total_power_mw() * self.config.pe_arrays as f64
                + ndp_engine_cost().total_power_mw());
        energy.charge(Component::Acc, static_mw * 1e9 * seconds);

        if sp.is_recording() {
            sp.arg("platform", platform_name(&self.config))
                .arg("layers", net.layers.len())
                .arg("cycles", total_cycles);
            cq_obs::counter!("accel.iterations").incr();
            cq_obs::counter!("accel.layers_simulated").add(net.layers.len() as u64);
            cq_obs::counter!("accel.cycles").add(total_cycles);
            // The per-layer × per-phase profile doubles as a virtual
            // timeline: simulated cycles laid out on a named track.
            let trace: cq_sim::Trace = profile.iter().cloned().collect();
            trace.emit_virtual(
                &format!("{}: {}", platform_name(&self.config), net.name),
                self.config.freq_ghz,
            );
        }

        (
            SimResult::new(
                platform_name(&self.config),
                net.name.clone(),
                self.config.freq_ghz,
                phases,
                energy,
            ),
            profile,
        )
    }

    /// The mapping this layer's phases charge through, resolved from the
    /// chip's policy: the streaming default, a table entry (a missing
    /// entry aborts — a silently defaulted layer would invalidate any
    /// mapping comparison), or the memoized per-layer search winner.
    fn layer_mapping(&self, net: &Network, layer: &cq_workloads::Layer, batch: usize) -> Mapping {
        match &self.mapping {
            MappingPolicy::Default => Mapping::streaming_default(),
            MappingPolicy::Table(t) => *t.get(&net.name, &layer.name).unwrap_or_else(|| {
                panic!(
                    "CQ_MAPPING table has no entry for {}/{}",
                    net.name, layer.name
                )
            }),
            MappingPolicy::Search => {
                crate::mapping_search::search_layer(self, &net.name, batch, layer).mapping
            }
        }
    }

    /// Aggregates mapping-derived stream factors over a layer's matmuls:
    /// reload factors as the max across matmuls (conservative — the
    /// worst-mapped matmul sets the layer's re-streaming), spill traffic
    /// summed with serial repeats applied, and the fold clamped to the
    /// row dimension.
    pub(crate) fn eval_mapping(
        &self,
        mapping: &Mapping,
        matmuls: &[cq_workloads::MatmulDims],
    ) -> LayerMapEval {
        let hier = self.config.mem_hierarchy();
        let mut out = LayerMapEval {
            f_in: 1,
            f_w: 1,
            spill_elems: 0,
            kfold: mapping.kfold.clamp(1, hier.pe_rows.max(1)),
        };
        for mm in matmuls {
            let shape = MatShape {
                m: mm.m,
                n: mm.n,
                k: mm.k,
            };
            let e = mapping.evaluate(shape, &hier);
            out.f_in = out.f_in.max(e.reload_in);
            out.f_w = out.f_w.max(e.reload_w);
            out.spill_elems += e.psum_spill_elems * mm.serial_repeats;
        }
        out
    }

    /// Sums the PE cost of a layer's matmuls with their serial repeats
    /// applied (the fold previously duplicated across
    /// [`CambriconQ::simulate_inference`] and the training iteration):
    /// the returned [`PeCost`] accumulates repeat-scaled cycles, energy
    /// and MACs, and the `u64` is the compute-cycle total charged to
    /// each MAC phase. `kfold` is the mapping's PE-level reduction fold
    /// (1 = the legacy sweep).
    fn layer_compute(&self, matmuls: &[cq_workloads::MatmulDims], kfold: u64) -> (PeCost, u64) {
        let mut total = PeCost::default();
        for mm in matmuls {
            let c = self.pe.matmul_mapped(mm.m, mm.n, mm.k, kfold);
            total.merge(PeCost {
                cycles: c.cycles * mm.serial_repeats,
                energy_pj: c.energy_pj * mm.serial_repeats as f64,
                macs: c.macs * mm.serial_repeats,
            });
        }
        (total, total.cycles)
    }

    /// Charges the three MAC phases (FW/NG/WG) of one layer through
    /// `mapping`: operand streams are scaled by the mapping's reload
    /// factors (input-role streams by `f_in`, weight-role by `f_w`,
    /// final output writes by 1), partial-sum spill round trips are
    /// appended at accumulator width when present, and the PE sweep uses
    /// the mapping's fold. The streaming default (all factors 1, no
    /// spills, fold 1) charges the exact legacy stream sequence.
    fn charge_layer_mac_phases(
        &self,
        mapping: &Mapping,
        inputs: u64,
        outputs: u64,
        weights: u64,
        matmuls: &[cq_workloads::MatmulDims],
        mem: &mut DdrModel,
        phases: &mut PhaseBreakdown,
        energy: &mut EnergyBreakdown,
    ) {
        let me = self.eval_mapping(mapping, matmuls);
        // ---- compute cost shared by the three MAC phases ----
        let (compute, compute_cycles) = self.layer_compute(matmuls, me.kfold);

        // FW: read I(q) + W(q over bus), write O(q).
        let mut fw_reads = vec![
            (inputs * me.f_in, self.qbytes()),
            (weights * me.f_w, self.qbytes()),
        ];
        let mut fw_writes = vec![(outputs, self.qbytes())];
        push_spills(&mut fw_reads, &mut fw_writes, me.spill_elems);
        self.charge_mac_phase(
            Phase::Forward,
            compute_cycles,
            compute.energy_pj,
            &fw_reads,
            &fw_writes,
            weights * me.f_w, // FP32 cell reads behind the NDP SQU
            mem,
            phases,
            energy,
        );
        // NG: read O(q) + δ_out(q) + W(q), write δ_in(q). Activation-
        // role streams share the input reload factor.
        let mut ng_reads = vec![
            (outputs * me.f_in, self.qbytes()),
            (outputs * me.f_in, self.qbytes()),
            (weights * me.f_w, self.qbytes()),
        ];
        let mut ng_writes = vec![(inputs, self.qbytes())];
        push_spills(&mut ng_reads, &mut ng_writes, me.spill_elems);
        self.charge_mac_phase(
            Phase::NeuronGrad,
            compute_cycles,
            compute.energy_pj,
            &ng_reads,
            &ng_writes,
            weights * me.f_w,
            mem,
            phases,
            energy,
        );
        // WG: read I(q) + δ(q); ΔW leaves at FP32. With NDP the write
        // is the WGSTORE stream accounted in WU; without NDP it lands
        // in DRAM here and is re-read during WU.
        let mut wg_reads = vec![
            (inputs * me.f_in, self.qbytes()),
            (outputs * me.f_in, self.qbytes()),
        ];
        let mut wg_writes: Vec<(u64, f64)> = if self.config.ndp_enabled {
            vec![]
        } else {
            vec![(weights, 4.0)]
        };
        push_spills(&mut wg_reads, &mut wg_writes, me.spill_elems);
        self.charge_mac_phase(
            Phase::WeightGrad,
            compute_cycles,
            compute.energy_pj,
            &wg_reads,
            &wg_writes,
            0,
            mem,
            phases,
            energy,
        );
    }

    /// Scores one candidate mapping for one layer: the three MAC phases
    /// charged against a *fresh* DDR model plus the time-proportional
    /// static components (DRAM standby, core/NDP idle share), so a
    /// latency win also shows up as an energy win. Returns
    /// `(cycles, energy_pj)`. Used by the mapping search; deliberately
    /// ignores the chip's policy so search candidates score themselves.
    pub(crate) fn score_layer_mapping(
        &self,
        inputs: u64,
        outputs: u64,
        weights: u64,
        matmuls: &[cq_workloads::MatmulDims],
        mapping: &Mapping,
    ) -> (u64, f64) {
        let mut mem = DdrModel::new(self.config.ddr);
        let mut phases = PhaseBreakdown::new();
        let mut energy = EnergyBreakdown::new();
        self.charge_layer_mac_phases(
            mapping,
            inputs,
            outputs,
            weights,
            matmuls,
            &mut mem,
            &mut phases,
            &mut energy,
        );
        let seconds = phases.total_cycles() as f64 / (self.config.freq_ghz * 1e9);
        energy.charge(
            Component::DdrStandby,
            DRAM_STANDBY_MW * 1e9 * seconds * self.config.ddr.bus_bytes as f64 / 8.0,
        );
        let static_mw = 0.3
            * (acceleration_core_cost().total_power_mw() * self.config.pe_arrays as f64
                + ndp_engine_cost().total_power_mw());
        energy.charge(Component::Acc, static_mw * 1e9 * seconds);
        (phases.total_cycles(), energy.total_pj())
    }

    /// Charges one MAC phase: compute overlapped with quantized streams.
    #[allow(clippy::too_many_arguments)]
    fn charge_mac_phase(
        &self,
        phase: Phase,
        compute_cycles: u64,
        compute_energy: f64,
        reads: &[(u64, f64)],
        writes: &[(u64, f64)],
        fp32_cell_reads: u64,
        mem: &mut DdrModel,
        phases: &mut PhaseBreakdown,
        energy: &mut EnergyBreakdown,
    ) -> u64 {
        // Memory stream time (bus-limited).
        let mut mem_cycles_ctrl = 0u64;
        let mut bus_bytes = 0f64;
        let mut addr = 0x1000_0000u64;
        for &(elems, bytes) in reads {
            let b = (elems as f64 * bytes) as usize;
            mem_cycles_ctrl += mem.transfer(addr, b, Dir::Read);
            bus_bytes += b as f64;
            addr += (b as u64) * 2;
        }
        for &(elems, bytes) in writes {
            let b = (elems as f64 * bytes) as usize;
            mem_cycles_ctrl += mem.transfer(addr, b, Dir::Write);
            bus_bytes += b as f64;
            addr += (b as u64) * 2;
        }
        let mem_cycles = mem.to_clock(mem_cycles_ctrl, self.config.freq_ghz);

        // SQU streams: everything read or written passes through an SQU
        // (NDP-side for loads, core-side for stores).
        let streamed: u64 = reads
            .iter()
            .chain(writes.iter())
            .map(|&(elems, _)| elems)
            .sum();
        let squ_cost = self.squ.stream_cost(streamed);
        let units = self.config.squ_units.max(1) as u64;
        let squ_cycles = squ_cost.stat_cycles.max(squ_cost.quant_cycles) / units;

        // Double-buffered overlap: the phase takes the max of the three.
        let base = compute_cycles.max(mem_cycles);
        let total = base.max(squ_cycles);
        let squ_excess = total - base;
        // Per-block double-buffer swap bubble that cannot overlap.
        let blocks = streamed.div_ceil(self.squ.block_elems() as u64);
        let bubble = blocks * 8 / units;

        phases.charge(phase, total, compute_energy);
        // Split the non-overlapped SQU time between the S and Q phases
        // without losing cycles: `x / 2` + `x - x / 2` conserves odd
        // values (charging `x / 2` to both sides silently dropped up to
        // 2 cycles per phase).
        phases.charge(
            Phase::Statistic,
            squ_excess / 2 + bubble / 2,
            squ_cost.energy_pj * 0.25,
        );
        phases.charge(
            Phase::Quantize,
            (squ_excess - squ_excess / 2) + (bubble - bubble / 2),
            squ_cost.energy_pj * 0.75,
        );

        energy.charge(Component::Acc, compute_energy + squ_cost.energy_pj);
        // Bus traffic energy plus the full-precision cell reads hiding
        // behind the NDP SQU (3 extra bytes per weight at INT8).
        let cell_extra = fp32_cell_reads as f64 * (4.0 - self.qbytes());
        energy.charge(
            Component::DdrDynamic,
            self.energy.dram(bus_bytes + cell_extra),
        );
        // On-chip buffer traffic: operands in and out of NBin/SB/NBout.
        energy.charge(Component::Buf, self.energy.sram(bus_bytes * 2.0));
        total + bubble
    }
}

/// Mapping-derived stream factors aggregated over one layer's matmuls.
/// These four numbers fully determine a mapping's phase charges for a
/// given layer, which is what lets the search memoize scores by them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct LayerMapEval {
    /// DRAM reload factor for input/activation-role streams.
    pub(crate) f_in: u64,
    /// DRAM reload factor for weight-role streams.
    pub(crate) f_w: u64,
    /// Partial-sum spill elements (each one write + one re-read at
    /// accumulator width), serial repeats applied.
    pub(crate) spill_elems: u64,
    /// PE-level reduction fold, clamped to the row dimension.
    pub(crate) kfold: u64,
}

/// Appends the partial-sum spill round trip (one write + one re-read at
/// FP32 accumulator width) to a phase's stream lists. Skipped entirely
/// when there are no spills so the default mapping's DDR transfer
/// sequence stays byte-identical to the legacy stream.
fn push_spills(reads: &mut Vec<(u64, f64)>, writes: &mut Vec<(u64, f64)>, spill_elems: u64) {
    if spill_elems > 0 {
        reads.push((spill_elems, 4.0));
        writes.push((spill_elems, 4.0));
    }
}

fn platform_name(config: &CqConfig) -> String {
    let mut name = match config.pe_arrays {
        1 => "Cambricon-Q".to_string(),
        8 => "Cambricon-Q-T".to_string(),
        64 => "Cambricon-Q-V".to_string(),
        n => format!("Cambricon-Q x{n}"),
    };
    if !config.ndp_enabled {
        name.push_str(" (no NDP)");
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScaleVariant;
    use cq_quant::IntFormat;
    use cq_workloads::models;

    fn sgd() -> OptimizerKind {
        OptimizerKind::Sgd { lr: 0.01 }
    }

    fn adam() -> OptimizerKind {
        OptimizerKind::Adam {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
        }
    }

    #[test]
    fn run_keys_distinguish_signed_zero_and_nan_payload_configs() {
        // Regression: Debug-only specs alias these pairs, so distinct
        // configs could cross-serve one cached cost.
        let net = models::squeezenet_v1();
        let mut pos = CqConfig::edge();
        pos.ddr.ecc.check_pj_per_byte = 0.0;
        let mut neg = pos.clone();
        neg.ddr.ecc.check_pj_per_byte = -0.0;
        let key_pos = CambriconQ::new(pos.clone()).run_key(&net, sgd());
        let key_neg = CambriconQ::new(neg).run_key(&net, sgd());
        assert_ne!(key_pos, key_neg, "-0.0 and 0.0 must key separately");
        // NaN-payload optimizer hyperparameters must also key separately.
        let quiet = OptimizerKind::Sgd { lr: f32::NAN };
        let payload = OptimizerKind::Sgd {
            lr: f32::from_bits(f32::NAN.to_bits() ^ 0x1),
        };
        let chip = CambriconQ::new(pos.clone());
        assert_ne!(chip.run_key(&net, quiet), chip.run_key(&net, payload));
        // Bit-identical inputs still share a key (the memoization works).
        assert_eq!(
            CambriconQ::new(pos.clone()).run_key(&net, sgd()),
            CambriconQ::new(pos).run_key(&net, sgd()),
        );
    }

    #[test]
    fn alexnet_iteration_time_plausible() {
        // AlexNet batch 32 ≈ 70 GMACs of training compute on a 2-TOPS
        // INT8 core → at least ~35 ms of compute.
        let r = CambriconQ::edge().simulate(&models::alexnet(), adam());
        assert!(r.time_ms() > 30.0, "too fast: {} ms", r.time_ms());
        assert!(r.time_ms() < 500.0, "too slow: {} ms", r.time_ms());
    }

    #[test]
    fn backward_costs_more_than_forward() {
        let r = CambriconQ::edge().simulate(&models::resnet18(), sgd());
        let fw = r.phases.cycles(Phase::Forward);
        let bw = r.phases.cycles(Phase::NeuronGrad) + r.phases.cycles(Phase::WeightGrad);
        assert!(bw > fw, "backward {bw} <= forward {fw}");
    }

    #[test]
    fn ndp_helps_wu_heavy_models_most() {
        let with = CambriconQ::edge();
        let without = CambriconQ::new(CqConfig::edge().without_ndp());
        let gain = |net: &cq_workloads::Network| {
            let a = with.simulate(net, adam());
            let b = without.simulate(net, adam());
            a.speedup_over(&b)
        };
        let alexnet_gain = gain(&models::alexnet());
        let squeezenet_gain = gain(&models::squeezenet_v1());
        // §VII.D: AlexNet (WU-heavy) benefits much more than SqueezeNet.
        assert!(
            alexnet_gain > squeezenet_gain,
            "alexnet {alexnet_gain} vs squeezenet {squeezenet_gain}"
        );
        assert!(alexnet_gain > 1.05, "NDP should matter on AlexNet");
        assert!(
            squeezenet_gain < 1.05,
            "NDP should be marginal on SqueezeNet"
        );
    }

    #[test]
    fn wu_fraction_larger_on_alexnet_than_googlenet() {
        let chip = CambriconQ::new(CqConfig::edge().without_ndp());
        let a = chip.simulate(&models::alexnet(), adam());
        let g = chip.simulate(&models::googlenet(), adam());
        assert!(
            a.phases.fraction_cycles(Phase::WeightUpdate)
                > g.phases.fraction_cycles(Phase::WeightUpdate) * 3.0
        );
    }

    #[test]
    fn int4_mode_speedup_near_paper() {
        // §VII.C: switching to 4-bit gives ~2.33x performance.
        let int8 = CambriconQ::edge();
        let int4 = CambriconQ::new(CqConfig::edge().with_format(IntFormat::Int4));
        let r8 = int8.simulate(&models::resnet18(), sgd());
        let r4 = int4.simulate(&models::resnet18(), sgd());
        let speedup = r4.speedup_over(&r8);
        assert!(
            speedup > 1.5 && speedup < 4.0,
            "INT4 speedup {speedup} out of plausible range"
        );
    }

    #[test]
    fn scaling_variants_are_faster() {
        let edge = CambriconQ::edge().simulate(&models::resnet18(), sgd());
        let qt =
            CambriconQ::new(CqConfig::scaled(ScaleVariant::T)).simulate(&models::resnet18(), sgd());
        let qv =
            CambriconQ::new(CqConfig::scaled(ScaleVariant::V)).simulate(&models::resnet18(), sgd());
        assert!(qt.speedup_over(&edge) > 3.0);
        assert!(qv.speedup_over(&qt) > 2.0);
        assert_eq!(qt.platform, "Cambricon-Q-T");
        assert_eq!(qv.platform, "Cambricon-Q-V");
    }

    #[test]
    fn energy_breakdown_has_all_components() {
        let r = CambriconQ::edge().simulate(&models::squeezenet_v1(), adam());
        for c in Component::ALL {
            assert!(r.energy.energy_pj(c) > 0.0, "component {c} has zero energy");
        }
    }

    #[test]
    fn squ_phases_are_minor_for_cambricon_q() {
        // HQT's fused one-pass quantization: S+Q must be a small fraction.
        let r = CambriconQ::edge().simulate(&models::resnet18(), sgd());
        let sq =
            r.phases.fraction_cycles(Phase::Statistic) + r.phases.fraction_cycles(Phase::Quantize);
        assert!(sq < 0.15, "S+Q fraction {sq} too large");
    }

    #[test]
    fn lstm_and_transformer_simulate() {
        let chip = CambriconQ::edge();
        let l = chip.simulate(&models::ptb_lstm_medium(), adam());
        let t = chip.simulate(&models::transformer_base(), adam());
        assert!(l.time_ms() > 0.0);
        assert!(t.time_ms() > 0.0);
    }

    #[test]
    fn per_layer_profile_sums_to_total() {
        let chip = CambriconQ::edge();
        let (result, profile) = chip.simulate_profiled(&models::alexnet(), adam());
        assert_eq!(profile.len(), models::alexnet().layers.len());
        let sum: u64 = profile.iter().map(|(_, b)| b.total_cycles()).sum();
        assert_eq!(sum, result.total_cycles());
        // AlexNet's fc6 is the most WU-expensive layer (37.7M weights).
        let fc6 = profile.iter().find(|(n, _)| n == "fc6").unwrap();
        let conv1 = profile.iter().find(|(n, _)| n == "conv1").unwrap();
        assert!(fc6.1.cycles(Phase::WeightUpdate) > conv1.1.cycles(Phase::WeightUpdate) * 10);
    }

    #[test]
    fn inference_is_cheaper_than_training() {
        let chip = CambriconQ::edge();
        let net = models::squeezenet_v1();
        let inf = chip.simulate_inference(&net);
        let train = chip.simulate(&net, sgd());
        // Training = FW + NG + WG + WU: at least 3x the inference compute.
        assert!(train.total_cycles() > inf.total_cycles() * 2);
        assert!(inf.platform.contains("inference"));
    }

    #[test]
    fn int4_inference_speedup() {
        // §VII.C: 4-bit inference models run directly on the 4-bit PEs.
        let int8 = CambriconQ::edge();
        let int4 = CambriconQ::new(CqConfig::edge().with_format(IntFormat::Int4));
        let net = models::resnet18();
        let s = int4
            .simulate_inference(&net)
            .speedup_over(&int8.simulate_inference(&net));
        assert!(s > 1.8 && s < 4.2, "INT4 inference speedup {s}");
    }

    #[test]
    fn repeated_simulations_hit_the_memo_and_agree() {
        let chip = CambriconQ::edge();
        let net = models::squeezenet_v1();
        let before = sim_cache_stats();
        let a = chip.simulate(&net, sgd());
        let b = chip.simulate(&net, sgd());
        assert_eq!(a, b);
        // Other tests in this process share the global memo, so only
        // monotone deltas are safe to assert: our second call either hit
        // the cache or (with CQ_HWCACHE=off) recomputed identically.
        let after = sim_cache_stats();
        if cq_sim::hwcache_enabled() {
            assert!(after.hits > before.hits, "second call must be a hit");
        }
        // The three entry points share one cache entry.
        let (profiled, profile) = chip.simulate_profiled(&net, sgd());
        assert_eq!(a, profiled);
        assert_eq!(profile.len(), net.layers.len());
        let (resilient, ecc) = chip.simulate_resilient(&net, sgd());
        assert_eq!(a, resilient);
        assert_eq!(ecc, cq_mem::EccStats::default());
    }

    #[test]
    fn distinct_configs_do_not_share_entries() {
        let net = models::squeezenet_v1();
        let a = CambriconQ::edge().simulate(&net, sgd());
        let b = CambriconQ::new(CqConfig::edge().without_ndp()).simulate(&net, sgd());
        assert_ne!(a.platform, b.platform);
        let c = CambriconQ::edge().simulate(&net, adam());
        assert!(
            c.total_cycles() >= a.total_cycles(),
            "adam state traffic can only add cycles"
        );
    }

    #[test]
    fn platform_names() {
        assert_eq!(platform_name(&CqConfig::edge()), "Cambricon-Q");
        assert_eq!(
            platform_name(&CqConfig::edge().without_ndp()),
            "Cambricon-Q (no NDP)"
        );
    }
}
