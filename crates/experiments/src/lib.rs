//! # cq-experiments — the paper's evaluation, regenerated
//!
//! One module (and one binary under `src/bin/`) per table and figure of
//! the Cambricon-Q paper:
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table I (op energies) | [`tables::table1`] | `table1_energy_model` |
//! | Table II (support matrix) | [`tables::table2`] | `table2_support_matrix` |
//! | Table III (algorithms) | [`tables::table3`] | `table3_algorithms` |
//! | Table V (ISA) | [`tables::table5`] | `table5_isa` |
//! | Table VII (area/power) | [`tables::table7`] | `table7_hw_characteristics` |
//! | Table VIII (accuracy) | [`accuracy`] | `table8_accuracy` |
//! | Table IX (related) | [`tables::table9`] | `table9_related` |
//! | Fig. 2 (gradient stats) | [`motivation`] | `fig2_gradient_stats` |
//! | Fig. 3 (GPU overhead) | [`motivation`] | `fig3_gpu_quantization_overhead` |
//! | Fig. 12(a) (speedup) | [`perf`] | `fig12a_speedup` |
//! | Fig. 12(b) (time breakdown) | [`perf`] | `fig12b_time_breakdown` |
//! | Fig. 12(c) (energy) | [`perf`] | `fig12c_energy` |
//! | Fig. 12(d) (energy breakdown) | [`perf`] | `fig12d_energy_breakdown` |
//! | Fig. 13 (scaling) | [`perf`] | `fig13_scalability` |
//! | §III.A (LDQ compression) | [`hqt`] | `ldq_compression` |
//! | §III.B (E²BQM emulation) | [`hqt`] | `e2bqm_accuracy` |
//! | §VII.C (INT4 mode) | [`perf`] | `int4_mode` |
//! | §VII.D (NDP ablation) | [`perf`] | `ablation_ndp` |
//!
//! Extension experiments beyond the paper's artifacts:
//!
//! | Binary | Module | Shows |
//! |---|---|---|
//! | `static_vs_dynamic` | [`extensions`] | §II.A: fixed ranges cannot train |
//! | `fp8_rounding` | [`extensions`] | Wang-2018 FP8 + stochastic rounding |
//! | `traffic_analysis` | [`extensions`] | §II.B high-precision traffic shares |
//! | `buffer_sweep` | [`extensions`] | SB-capacity design space |
//! | `memory_patterns` | [`extensions`] | DDR utilization vs access pattern |
//! | `precision_energy` | [`extensions`] | MAC energy across bit widths (fallible lookups) |
//! | `ldq_ablation` | [`hqt`] | LDQ block-size and QBC line-width sweeps |
//! | `timing_crosscheck` | [`crosscheck`] | two timing models agree |
//! | `table8_extended` | [`accuracy`] | all five Table III algorithms |
//! | `fault_sweep` | [`resilience`] | resilience under injected faults |
//! | `mapping_search` | [`mapping`] | per-layer searched mappings vs the streaming default |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accuracy;
pub mod crosscheck;
pub mod extensions;
pub mod hqt;
pub mod mapping;
pub mod motivation;
pub mod perf;
pub mod resilience;
pub mod tables;
