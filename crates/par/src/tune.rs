//! Blocking configuration for the three-level GEMM: register-tile shape
//! `(MR, NR)` plus cache-block sizes `(KC, MC, NC)`, bundled with the
//! matching micro-kernel of every element type as a [`GemmPlan`].
//!
//! The plan every public `gemm*` entry point uses is resolved once per
//! process by [`active_plan`]: the committed profile for the active SIMD
//! level (`crates/par/profiles/{avx2,scalar}.profile`). Retuning means
//! regenerating that file with the `cq-tune` crate's `cq_tune` binary
//! (`cq_tune --out crates/par/profiles/<level>.profile`, see
//! EXPERIMENTS.md) and rebuilding.
//!
//! The profile format is deliberately line-based and dependency-free:
//!
//! ```text
//! # cq-tune gemm profile v1
//! simd = avx2
//! mr = 6
//! nr = 16
//! kc = 256
//! mc = 72
//! nc = 1024
//! ```
//!
//! Unknown keys, duplicate keys, missing keys and unparsable values are
//! all hard errors, matching the strict `CQ_SIMD`/`CQ_THREADS`
//! validation precedent.

use crate::gemm::GemmElem;
use crate::microkernel::{simd_level, KernFn, SimdLevel, MAX_MR, MAX_NR, SUPPORTED_TILES};
use std::sync::OnceLock;

/// Blocking parameters for the three-level GEMM loop nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Register-tile rows (micro-kernel `MR`).
    pub mr: usize,
    /// Register-tile columns (micro-kernel `NR`).
    pub nr: usize,
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
    /// Checks the configuration is runnable: a supported `(mr, nr)` pair
    /// and positive block sizes no smaller than the register tile.
    pub fn validate(&self) -> Result<(), String> {
        if !SUPPORTED_TILES.contains(&(self.mr, self.nr)) {
            return Err(format!(
                "unsupported register tile {}x{}: supported tiles are {:?}",
                self.mr, self.nr, SUPPORTED_TILES
            ));
        }
        debug_assert!(self.mr <= MAX_MR && self.nr <= MAX_NR);
        if self.kc == 0 {
            return Err("kc must be positive".to_string());
        }
        if self.mc < self.mr {
            return Err(format!("mc ({}) must be >= mr ({})", self.mc, self.mr));
        }
        if self.nc < self.nr {
            return Err(format!("nc ({}) must be >= nr ({})", self.nc, self.nr));
        }
        Ok(())
    }
}

/// A validated, runnable GEMM configuration: SIMD level, blocking, and
/// the resolved micro-kernel of each [`GemmElem`] type, so one plan runs
/// both the f32 and the i8 GEMM.
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
    /// Builds a plan from a SIMD level and blocking config.
    ///
    /// Fails if the config is invalid or the level lacks the f32 or the
    /// i8 kernel for the requested tile on this target — a built plan
    /// runs every element type.
    pub fn new(simd: SimdLevel, cfg: TileConfig) -> Result<GemmPlan, String> {
        cfg.validate()?;
        Ok(GemmPlan {
            simd,
            cfg,
            kern: resolve::<f32>(simd, &cfg)?,
            kern_i8: resolve::<i8>(simd, &cfg)?,
        })
    }

    /// One-line human-readable description (`avx2 6x16 kc=256 mc=72 nc=1024`).
    pub fn describe(&self) -> String {
        format!(
            "{} {}x{} kc={} mc={} nc={}",
            self.simd.name(),
            self.cfg.mr,
            self.cfg.nr,
            self.cfg.kc,
            self.cfg.mc,
            self.cfg.nc
        )
    }
}

/// `E`'s micro-kernel for the tile of `cfg` at `simd`.
fn resolve<E: GemmElem>(simd: SimdLevel, cfg: &TileConfig) -> Result<KernFn<E>, String> {
    E::lookup(simd, cfg.mr, cfg.nr).ok_or_else(|| {
        format!(
            "no {} {} micro-kernel for tile {}x{} on this target",
            simd.name(),
            std::any::type_name::<E>(),
            cfg.mr,
            cfg.nr
        )
    })
}

/// Header line every profile must start with.
const PROFILE_HEADER: &str = "# cq-tune gemm profile v1";

/// Renders a profile in the format [`parse_profile`] reads.
pub fn render_profile(simd: SimdLevel, cfg: &TileConfig) -> String {
    format!(
        "{PROFILE_HEADER}\nsimd = {}\nmr = {}\nnr = {}\nkc = {}\nmc = {}\nnc = {}\n",
        simd.name(),
        cfg.mr,
        cfg.nr,
        cfg.kc,
        cfg.mc,
        cfg.nc
    )
}

/// Parses a profile produced by [`render_profile`] (or hand-edited in the
/// same format). Strict: the version header must match, every key must
/// appear exactly once, and no unknown keys are allowed.
pub fn parse_profile(text: &str) -> Result<(SimdLevel, TileConfig), String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h.trim() == PROFILE_HEADER => {}
        other => {
            return Err(format!(
                "profile must start with {PROFILE_HEADER:?}, found {other:?}"
            ))
        }
    }
    let mut simd: Option<SimdLevel> = None;
    let mut vals: [Option<usize>; 5] = [None; 5];
    const KEYS: [&str; 5] = ["mr", "nr", "kc", "mc", "nc"];
    for (lineno, raw) in lines.enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`, found {raw:?}", lineno + 2))?;
        let (key, value) = (key.trim(), value.trim());
        if key == "simd" {
            if simd.is_some() {
                return Err(format!("line {}: duplicate key \"simd\"", lineno + 2));
            }
            simd = Some(
                SimdLevel::parse(value)
                    .ok_or_else(|| format!("line {}: invalid simd level {value:?}", lineno + 2))?,
            );
            continue;
        }
        let slot = KEYS
            .iter()
            .position(|&k| k == key)
            .ok_or_else(|| format!("line {}: unknown key {key:?}", lineno + 2))?;
        if vals[slot].is_some() {
            return Err(format!("line {}: duplicate key {key:?}", lineno + 2));
        }
        let parsed: usize = value
            .parse()
            .map_err(|_| format!("line {}: invalid value {value:?} for {key:?}", lineno + 2))?;
        vals[slot] = Some(parsed);
    }
    let simd = simd.ok_or("profile is missing key \"simd\"")?;
    let mut out = [0usize; 5];
    for (i, v) in vals.iter().enumerate() {
        out[i] = v.ok_or_else(|| format!("profile is missing key {:?}", KEYS[i]))?;
    }
    let cfg = TileConfig {
        mr: out[0],
        nr: out[1],
        kc: out[2],
        mc: out[3],
        nc: out[4],
    };
    cfg.validate()?;
    Ok((simd, cfg))
}

/// Committed default blocking profile for a SIMD level (regenerate with
/// the `cq_tune` binary; see EXPERIMENTS.md).
pub fn default_profile(level: SimdLevel) -> (SimdLevel, TileConfig) {
    let text = match level {
        SimdLevel::Avx2 => include_str!("../profiles/avx2.profile"),
        SimdLevel::Scalar => include_str!("../profiles/scalar.profile"),
    };
    let (simd, cfg) = parse_profile(text)
        .unwrap_or_else(|e| panic!("committed {} profile is invalid: {e}", level.name()));
    assert_eq!(
        simd,
        level,
        "committed {} profile declares the wrong simd level",
        level.name()
    );
    (simd, cfg)
}

/// Resolves the process-wide plan: the committed default profile for
/// the active SIMD level. Resolved once.
pub fn active_plan() -> &'static GemmPlan {
    static PLAN: OnceLock<GemmPlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        let (simd, cfg) = default_profile(simd_level());
        GemmPlan::new(simd, cfg).unwrap_or_else(|e| panic!("invalid GEMM plan: {e}"))
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

    fn cfg(mr: usize, nr: usize, kc: usize, mc: usize, nc: usize) -> TileConfig {
        TileConfig { mr, nr, kc, mc, nc }
    }

    #[test]
    fn profile_round_trips() {
        for &(mr, nr) in &SUPPORTED_TILES {
            let c = cfg(mr, nr, 128, 144, 512);
            for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                let text = render_profile(level, &c);
                assert_eq!(parse_profile(&text), Ok((level, c)));
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_profiles() {
        let good = render_profile(SimdLevel::Scalar, &cfg(6, 8, 256, 72, 512));
        assert!(parse_profile(&good).is_ok());
        // Wrong/missing header.
        assert!(parse_profile("simd = scalar\n")
            .unwrap_err()
            .contains("start with"));
        assert!(parse_profile("").unwrap_err().contains("start with"));
        // Unknown, duplicate and missing keys; bad values.
        let with = |extra: &str| format!("{good}{extra}\n");
        assert!(parse_profile(&with("kr = 3"))
            .unwrap_err()
            .contains("unknown key"));
        assert!(parse_profile(&with("mr = 6"))
            .unwrap_err()
            .contains("duplicate"));
        assert!(parse_profile(&with("simd = avx2"))
            .unwrap_err()
            .contains("duplicate"));
        let missing = good
            .lines()
            .filter(|l| !l.starts_with("nc"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(parse_profile(&missing).unwrap_err().contains("\"nc\""));
        let bad_val = good.replace("kc = 256", "kc = many");
        assert!(parse_profile(&bad_val)
            .unwrap_err()
            .contains("invalid value"));
        let bad_simd = good.replace("simd = scalar", "simd = sse9");
        assert!(parse_profile(&bad_simd)
            .unwrap_err()
            .contains("invalid simd"));
        let no_eq = good.replace("kc = 256", "kc 256");
        assert!(parse_profile(&no_eq).unwrap_err().contains("key = value"));
        // Comments and blank lines are fine.
        let commented = good.replace("kc = 256", "# a comment\n\nkc = 256");
        assert!(parse_profile(&commented).is_ok());
        // Validation runs on parsed configs.
        let bad_tile = good.replace("mr = 6", "mr = 7");
        assert!(parse_profile(&bad_tile)
            .unwrap_err()
            .contains("unsupported register tile"));
    }

    #[test]
    fn validate_rejects_bad_blocking() {
        assert!(cfg(6, 8, 256, 72, 512).validate().is_ok());
        assert!(cfg(7, 8, 256, 72, 512)
            .validate()
            .unwrap_err()
            .contains("unsupported"));
        assert!(cfg(6, 8, 0, 72, 512).validate().unwrap_err().contains("kc"));
        assert!(cfg(6, 8, 256, 4, 512)
            .validate()
            .unwrap_err()
            .contains("mc"));
        assert!(cfg(6, 8, 256, 72, 4).validate().unwrap_err().contains("nc"));
    }

    #[test]
    fn committed_default_profiles_are_valid() {
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            let (simd, c) = default_profile(level);
            assert_eq!(simd, level);
            // Scalar plans must always be constructible; avx2 needs hw.
            if level == SimdLevel::Scalar {
                assert!(GemmPlan::new(simd, c).is_ok());
            } else {
                assert!(c.validate().is_ok());
            }
        }
    }

    #[test]
    fn plan_new_rejects_invalid() {
        assert!(GemmPlan::new(SimdLevel::Scalar, cfg(6, 8, 256, 72, 512)).is_ok());
        assert!(GemmPlan::new(SimdLevel::Scalar, cfg(5, 8, 256, 72, 512)).is_err());
        // A plan holds a kernel of every element type: each supported
        // tile resolves both at every level this target compiles, and a
        // missing kernel is rejected naming its element type.
        let mut levels = vec![SimdLevel::Scalar];
        if cfg!(target_arch = "x86_64") {
            levels.push(SimdLevel::Avx2);
        } else {
            let err = GemmPlan::new(SimdLevel::Avx2, cfg(6, 8, 256, 72, 512)).unwrap_err();
            assert!(err.contains("no avx2 f32 micro-kernel"), "{err}");
        }
        for level in levels {
            for &(mr, nr) in &SUPPORTED_TILES {
                assert!(GemmPlan::new(level, cfg(mr, nr, 3, mr, nr)).is_ok());
            }
        }
        let bad = cfg(5, 8, 256, 72, 512);
        let err = resolve::<f32>(SimdLevel::Scalar, &bad).unwrap_err();
        assert!(
            err.contains("no scalar f32 micro-kernel for tile 5x8"),
            "{err}"
        );
        let err = resolve::<i8>(SimdLevel::Scalar, &bad).unwrap_err();
        assert!(
            err.contains("no scalar i8 micro-kernel for tile 5x8"),
            "{err}"
        );
    }
}
