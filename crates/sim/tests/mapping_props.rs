//! Property-based tests for the mapping model's invariants: mappings
//! redistribute work and traffic, they never create or destroy it.

use cq_sim::mapping::{pe_sweep_cycles, LoopOrder, Mapping, MatShape, MemHierarchy, FULL};
use proptest::prelude::*;

/// The paper's edge hierarchy (256 KB NBin / 512 KB SB / 256 KB NBout,
/// 64×64 PEs, INT8 operands, FP32 partial sums).
fn edge_hier() -> MemHierarchy {
    MemHierarchy {
        nbin_bytes: 256 * 1024,
        sb_bytes: 512 * 1024,
        nbout_bytes: 256 * 1024,
        elem_bytes: 1.0,
        acc_bytes: 4.0,
        pe_rows: 64,
        pe_cols: 64,
        pe_arrays: 1,
    }
}

fn arb_mapping() -> impl Strategy<Value = Mapping> {
    (
        0usize..LoopOrder::ALL.len(),
        prop_oneof![(1u64..4096), Just(FULL)],
        prop_oneof![(1u64..4096), Just(FULL)],
        prop_oneof![(1u64..8192), Just(FULL)],
        1u64..128,
    )
        .prop_map(|(oi, tile_m, tile_n, tile_k, kfold)| Mapping {
            order: LoopOrder::ALL[oi],
            tile_m,
            tile_n,
            tile_k,
            kfold,
        })
}

fn arb_shape() -> impl Strategy<Value = MatShape> {
    (1u64..3000, 1u64..3000, 1u64..3000).prop_map(|(m, n, k)| MatShape { m, n, k })
}

proptest! {
    /// A mapping never changes the MAC count, and its DRAM traffic never
    /// drops below the compulsory each-element-once bound (outputs cross
    /// exactly once — spills are accounted separately at accumulator
    /// width).
    #[test]
    fn macs_conserved_and_traffic_compulsory(shape in arb_shape(), mapping in arb_mapping()) {
        let hier = edge_hier();
        let e = mapping.evaluate(shape, &hier);
        prop_assert_eq!(e.macs(), shape.macs());
        prop_assert!(e.dram_in_elems() >= shape.m * shape.k);
        prop_assert!(e.dram_w_elems() >= shape.k * shape.n);
        prop_assert_eq!(e.dram_out_elems(), shape.m * shape.n);
        // Reload factors are bounded by the trip counts that cause them.
        prop_assert!(e.reload_in <= shape.n.div_ceil(e.tile_n));
        prop_assert!(e.reload_w <= shape.m.div_ceil(e.tile_m));
    }

    /// Capacity-legal mappings actually fit: every clamped tile's
    /// occupancy is within its buffer, and the fold is within the rows.
    #[test]
    fn legal_mappings_fit_their_buffers(shape in arb_shape(), mapping in arb_mapping()) {
        let hier = edge_hier();
        if mapping.is_capacity_legal(shape, &hier) {
            let e = mapping.evaluate(shape, &hier);
            prop_assert!(e.nbin_occupancy <= hier.nbin_bytes as f64);
            prop_assert!(e.sb_occupancy <= hier.sb_bytes as f64);
            prop_assert!(e.nbout_occupancy <= hier.nbout_bytes as f64);
            prop_assert!(mapping.kfold >= 1 && mapping.kfold <= hier.pe_rows);
            // Legal tiles are never clamped upward.
            prop_assert!(e.tile_m <= shape.m && e.tile_n <= shape.n && e.tile_k <= shape.k);
        }
    }

    /// The PE sweep never exceeds the array's physical throughput:
    /// utilization stays in (0, 1], at every fold.
    #[test]
    fn sweep_utilization_bounded(shape in arb_shape(), kfold in 1u64..128, passes in 1u64..=16) {
        let hier = edge_hier();
        let u = hier.pe_utilization(shape, kfold, passes);
        prop_assert!(u > 0.0 && u <= 1.0 + 1e-9, "utilization {u}");
    }

    /// Fold 1 is exactly the legacy output-stationary sweep formula the
    /// pre-mapping simulator hard-coded.
    #[test]
    fn fold_one_is_the_legacy_sweep(shape in arb_shape(), arrays in 1u64..=64, passes in 1u64..=16) {
        let legacy = (shape.m.div_ceil(64) * shape.n.div_ceil(64)).div_ceil(arrays)
            * shape.k
            * passes;
        prop_assert_eq!(
            pe_sweep_cycles(64, 64, arrays, 1, shape, passes),
            legacy
        );
    }

    /// The streaming default is the do-no-harm point: factors 1, no
    /// spills, fold 1 — for every shape.
    #[test]
    fn streaming_default_is_idealized(shape in arb_shape()) {
        let hier = edge_hier();
        let e = Mapping::streaming_default().evaluate(shape, &hier);
        prop_assert_eq!(e.reload_in, 1);
        prop_assert_eq!(e.reload_w, 1);
        prop_assert_eq!(e.psum_spill_elems, 0);
        prop_assert_eq!(e.kfold, 1);
    }

    /// A K-innermost nest (or a K tile covering the reduction) never
    /// spills partial sums; spilling requires an extra K trip enclosing
    /// an output loop.
    #[test]
    fn spills_only_from_outer_k(shape in arb_shape(), mapping in arb_mapping()) {
        let hier = edge_hier();
        let e = mapping.evaluate(shape, &hier);
        let k_trips = shape.k.div_ceil(e.tile_k);
        if mapping.order.name().ends_with('k') || k_trips == 1 {
            prop_assert_eq!(e.psum_spill_elems, 0);
        }
        prop_assert_eq!(e.psum_spill_elems % (shape.m * shape.n), 0);
    }
}
