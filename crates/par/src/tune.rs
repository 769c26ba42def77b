//! Blocking configuration for the three-level GEMM: the cache-block sizes
//! `(KC, MC, NC)` around the fixed 6 × 16 register tile, bundled with
//! the SIMD level's micro-kernel of every element type as a [`GemmPlan`].
//!
//! Each SIMD level has one plan, with the block sizes of
//! [`TileConfig::for_level`]; [`active_plan`] resolves the detected
//! level's once per process, and every public `gemm*` entry point runs
//! it. The constants are the winners of a measured search over five
//! register tiles and a grid of block sizes (EXPERIMENTS.md, "GEMM
//! tile and blocking").

use crate::microkernel::{kernels, simd_level, KernFn, SimdLevel, MR, NR};
use std::sync::OnceLock;

/// Cache-block sizes for the three-level GEMM loop nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Reduction-dimension block: one packed A panel strip and B panel
    /// cover `kc` of `k` at a time (sized for L1/L2 residency).
    pub kc: usize,
    /// Row block: `mc` rows of A are packed and reused across the full
    /// `nc`-wide B panel (sized for L2 residency).
    pub mc: usize,
    /// Column block: `nc` columns of B are packed per outer iteration
    /// (sized for L3/memory-bandwidth amortization).
    pub nc: usize,
}

impl TileConfig {
    /// The block sizes every run at `level` uses.
    pub const fn for_level(level: SimdLevel) -> TileConfig {
        match level {
            SimdLevel::Avx2 => TileConfig {
                kc: 512,
                mc: 144,
                nc: 2048,
            },
            SimdLevel::Scalar => TileConfig {
                kc: 128,
                mc: 72,
                nc: 512,
            },
        }
    }

    /// Checks the configuration is runnable: positive block sizes no
    /// smaller than the register tile.
    pub fn validate(&self) -> Result<(), String> {
        if self.kc == 0 {
            return Err("kc must be positive".to_string());
        }
        if self.mc < MR {
            return Err(format!("mc ({}) must be >= mr ({MR})", self.mc));
        }
        if self.nc < NR {
            return Err(format!("nc ({}) must be >= nr ({NR})", self.nc));
        }
        Ok(())
    }
}

/// A validated, runnable GEMM configuration: SIMD level, blocking, and
/// the level's micro-kernel of each [`GemmElem`](crate::GemmElem) type,
/// so one plan runs both the f32 and the i8 GEMM.
#[derive(Clone, Copy)]
pub struct GemmPlan {
    /// Micro-kernel family the plan was built for.
    pub simd: SimdLevel,
    /// Blocking parameters.
    pub cfg: TileConfig,
    pub(crate) kern: KernFn<f32>,
    pub(crate) kern_i8: KernFn<i8>,
}

impl std::fmt::Debug for GemmPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GemmPlan")
            .field("simd", &self.simd)
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl GemmPlan {
    /// Builds a plan from a SIMD level and block sizes.
    ///
    /// No production caller builds a plan: [`active_plan`] is the only
    /// one they run. The parity suites build their own, to run the
    /// scalar level next to the detected one in one process and to use
    /// block sizes tiny enough that small shapes cross every block edge.
    ///
    /// Fails if the blocking is invalid or this target does not compile
    /// the level's kernels (AVX2 off x86-64).
    pub fn new(simd: SimdLevel, cfg: TileConfig) -> Result<GemmPlan, String> {
        cfg.validate()?;
        let (kern, kern_i8) = kernels(simd)
            .ok_or_else(|| format!("no {} micro-kernels on this target", simd.name()))?;
        Ok(GemmPlan {
            simd,
            cfg,
            kern,
            kern_i8,
        })
    }

    /// One-line human-readable description (`avx2 6x16 kc=512 mc=144 nc=2048`).
    pub fn describe(&self) -> String {
        format!(
            "{} {MR}x{NR} kc={} mc={} nc={}",
            self.simd.name(),
            self.cfg.kc,
            self.cfg.mc,
            self.cfg.nc
        )
    }
}

/// The process-wide plan: the active SIMD level's block sizes
/// ([`TileConfig::for_level`]). Resolved once.
pub fn active_plan() -> &'static GemmPlan {
    static PLAN: OnceLock<GemmPlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        let simd = simd_level();
        GemmPlan::new(simd, TileConfig::for_level(simd))
            .unwrap_or_else(|e| panic!("invalid GEMM plan: {e}"))
    })
}

/// Human-readable description of the plan [`active_plan`] resolved
/// (exposed for bench/diagnostic output).
pub fn describe_active_plan() -> String {
    active_plan().describe()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(kc: usize, mc: usize, nc: usize) -> TileConfig {
        TileConfig { kc, mc, nc }
    }

    /// Pins each level's plan: perfbench and `bench_perf` print this
    /// string as the configuration behind their numbers.
    #[test]
    fn level_plans_keep_their_blocking() {
        let scalar = GemmPlan::new(SimdLevel::Scalar, TileConfig::for_level(SimdLevel::Scalar));
        assert_eq!(
            scalar.unwrap().describe(),
            "scalar 6x16 kc=128 mc=72 nc=512"
        );
        if let Ok(avx2) = GemmPlan::new(SimdLevel::Avx2, TileConfig::for_level(SimdLevel::Avx2)) {
            assert_eq!(avx2.describe(), "avx2 6x16 kc=512 mc=144 nc=2048");
        }
        assert_eq!(active_plan().cfg, TileConfig::for_level(active_plan().simd));
    }

    #[test]
    fn validate_rejects_bad_blocking() {
        assert!(cfg(256, 72, 512).validate().is_ok());
        assert!(cfg(1, MR, NR).validate().is_ok());
        assert!(cfg(0, 72, 512).validate().unwrap_err().contains("kc"));
        assert!(cfg(256, 4, 512).validate().unwrap_err().contains("mc"));
        assert!(cfg(256, 72, 8).validate().unwrap_err().contains("nc"));
    }

    #[test]
    fn plan_new_rejects_invalid() {
        assert!(GemmPlan::new(SimdLevel::Scalar, cfg(256, 72, 512)).is_ok());
        assert!(GemmPlan::new(SimdLevel::Scalar, cfg(256, 5, 512)).is_err());
        // A plan holds a kernel of every element type: both resolve at
        // every level this target compiles, and a level it does not
        // compile is rejected by name.
        if cfg!(target_arch = "x86_64") {
            assert!(GemmPlan::new(SimdLevel::Avx2, cfg(3, MR, NR)).is_ok());
        } else {
            let err = GemmPlan::new(SimdLevel::Avx2, cfg(256, 72, 512)).unwrap_err();
            assert!(err.contains("no avx2 micro-kernels"), "{err}");
        }
    }
}
