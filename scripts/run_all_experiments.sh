#!/usr/bin/env bash
# Regenerates every paper artifact into reports/*.txt.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p reports
BINS=(
  table1_energy_model table2_support_matrix table3_algorithms table5_isa
  table7_hw_characteristics table8_accuracy table9_related
  fig2_gradient_stats fig3_gpu_quantization_overhead
  fig12a_speedup fig12b_time_breakdown fig12c_energy fig12d_energy_breakdown
  fig13_scalability int4_mode ablation_ndp
  ldq_compression e2bqm_accuracy ldq_ablation
  static_vs_dynamic fp8_rounding traffic_analysis timing_crosscheck buffer_sweep memory_patterns precision_energy table8_extended fault_sweep summary
)
for bin in "${BINS[@]}"; do
  echo "== $bin"
  cargo run --release -q -p cq-experiments --bin "$bin" > "reports/$bin.txt"
done
echo "All reports written to reports/."
