//! Register-tile micro-kernels: the innermost loops of the blocked GEMM.
//!
//! A micro-kernel computes one [`MR`] × [`NR`] (6 × 16) tile of the
//! output from packed operand panels (`ap`: `k × MR` interleaved A, `bp`:
//! `k × NR` packed B, both in the element type's k-groups), either
//! overwriting the tile or accumulating into it (the `KC` panel loop
//! above sums partial products block by block).
//!
//! Two families exist behind one function-pointer type per element type
//! ([`KernFn`]):
//!
//! * **scalar** — portable Rust, generic over the element type. f32
//!   multiplies and adds round separately, like the naive loops.
//! * **avx2** — `std::arch` intrinsics (x86_64 only). The f32 kernel
//!   holds the whole tile in `__m256` accumulators and issues one fused
//!   multiply-add per lane per `k` step; FMA skips the intermediate
//!   rounding of `a*b`, so results differ from scalar within the
//!   documented backend-parity tolerance (`k · amax · bmax · 8ε`). The
//!   i8 kernels (`vpmaddwd`, AVX-VNNI, AVX-512 VNNI; runtime detection
//!   picks the best the host runs) are exact and bitwise identical to
//!   the scalar one.
//!
//! The family is chosen once per process by [`simd_level`]: the `CQ_SIMD`
//! environment variable (`auto` / `scalar` / `avx2`) filtered through
//! runtime CPU feature detection. Malformed values or requesting `avx2`
//! on hardware without it abort with a diagnostic — the same fail-loud
//! policy as `CQ_THREADS`.
//!
//! Accumulation order over `k` is ascending in every kernel — identical
//! to the naive reference — so the *sequence* of per-element operations
//! never depends on tiling, banding or thread count; only FMA's fused
//! rounding distinguishes the families numerically.

// The AVX2 kernels are the one place in cq-par where `unsafe` is earned:
// `std::arch` intrinsics are only callable from `#[target_feature]`
// functions, which are unsafe to call. Every call site is guarded by
// runtime feature detection in `simd_level()`.
#![allow(unsafe_code)]

use crate::gemm::GemmElem;
use std::sync::OnceLock;

/// Register-tile rows: the A panel width.
pub(crate) const MR: usize = 6;
/// Register-tile columns: the B panel width, two `__m256` vectors.
pub(crate) const NR: usize = 16;

/// Which micro-kernel family the process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Portable scalar Rust (separate multiply and add roundings).
    Scalar,
    /// AVX2 + FMA intrinsics (x86_64, runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// Short display name (`"scalar"` / `"avx2"`).
    pub fn name(&self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Parses `"scalar"` / `"avx2"` (case-insensitive).
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }
}

/// A micro-kernel entry point for element type `E` (see
/// [`GemmElem`]).
///
/// Computes the full `MR × NR` tile over `kg` k-groups of `G =
/// E::KG` reduction steps from panels packed as `ap[g·MR·G + i·G + s]
/// = A[i, G·g + s]` and `bp[g·NR·G + j·G + s] = B[G·g + s, j]`:
/// `c[i, j] (+)= Σ ap[..] · bp[..]`, writing row `i` at `c + i·ldc`.
/// For f32 (`G = 1`) that is `k` plain steps; for i8 it is `kp` k-pairs
/// of sign-extended i16 with **wrapping** i32 accumulation — integer
/// addition is associative, so i8 results are bitwise identical across
/// SIMD levels, thread counts and blockings (unlike the f32 family's
/// FMA caveat).
///
/// # Safety
///
/// * `ap` must hold `kg·MR·G` and `bp` `kg·NR·G` panel elements.
/// * `c` must be valid for reads/writes of `NR` accumulators at each of
///   the `MR` row offsets `i·ldc`.
/// * SIMD kernels additionally require the CPU features they were
///   compiled for (guaranteed by [`simd_level`] and the runtime
///   detection in [`kernels`]).
pub(crate) type KernFn<E> = unsafe fn(
    kg: usize,
    ap: *const <E as GemmElem>::Packed,
    bp: *const <E as GemmElem>::Packed,
    c: *mut <E as GemmElem>::Acc,
    ldc: usize,
    accumulate: bool,
);

/// Portable reference kernel, monomorphized per element type.
///
/// Accumulates one k-step at a time with the type's own product and
/// accumulate operation: for f32 multiplies and adds round separately,
/// like the naive loops; for i8 it reproduces `pmaddwd` + `paddd`
/// exactly (each pair product is exact in i32, and wrapping adds
/// reassociate freely).
///
/// # Safety
///
/// See [`KernFn`].
unsafe fn scalar_kern<E: GemmElem>(
    kg: usize,
    ap: *const E::Packed,
    bp: *const E::Packed,
    c: *mut E::Acc,
    ldc: usize,
    accumulate: bool,
) {
    let g = E::KG;
    let mut acc = [[E::Acc::default(); NR]; MR];
    for p in 0..kg * g {
        let a = ap.add((p / g) * MR * g + p % g);
        let b = bp.add((p / g) * NR * g + p % g);
        for (i, row) in acc.iter_mut().enumerate() {
            let av = *a.add(i * g);
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = E::accumulate(*cell, E::product(av, *b.add(j * g)));
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        let crow = c.add(i * ldc);
        for (j, &v) in row.iter().enumerate() {
            if accumulate {
                *crow.add(j) = E::accumulate(*crow.add(j), v);
            } else {
                *crow.add(j) = v;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The x86-64 kernels. `NRV` is the tile width in 8-lane `__m256`
    //! vectors; the f32 kernel holds `MR·NRV` = 12 accumulators, `NRV`
    //! B vectors and 1 broadcast: 15 of the 16 ymm registers.

    use super::{MR, NR};
    use std::arch::x86_64::*;

    const NRV: usize = NR / 8;

    /// The f32 FMA kernel.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn kern_f32(
        k: usize,
        ap: *const f32,
        bp: *const f32,
        c: *mut f32,
        ldc: usize,
        accumulate: bool,
    ) {
        let mut acc = [[_mm256_setzero_ps(); NRV]; MR];
        for p in 0..k {
            let b = bp.add(p * NRV * 8);
            let mut bv = [_mm256_setzero_ps(); NRV];
            for (v, bvv) in bv.iter_mut().enumerate() {
                *bvv = _mm256_loadu_ps(b.add(8 * v));
            }
            let a = ap.add(p * MR);
            for (i, row) in acc.iter_mut().enumerate() {
                let av = _mm256_broadcast_ss(&*a.add(i));
                for (cell, &bvv) in row.iter_mut().zip(&bv) {
                    *cell = _mm256_fmadd_ps(av, bvv, *cell);
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            let crow = c.add(i * ldc);
            for (v, &vec) in row.iter().enumerate() {
                let ptr = crow.add(8 * v);
                let out = if accumulate {
                    _mm256_add_ps(_mm256_loadu_ps(ptr), vec)
                } else {
                    vec
                };
                _mm256_storeu_ps(ptr, out);
            }
        }
    }

    /// The i8 `vpmaddwd` kernel: one 256-bit B load covers 8 columns × 2
    /// k-steps as sign-extended i16 pairs; `vpmaddwd` multiplies each
    /// pair against the broadcast A pair and pre-adds them, so every
    /// instruction retires 16 multiply-accumulates (vs 8 for f32 FMA) —
    /// the source of the ≥2× arithmetic throughput. All products of
    /// i8-ranged i16s fit i32 without `pmaddwd`'s (-32768)² saturation
    /// corner, and `vpaddd` wraps exactly like the scalar kernel's
    /// `wrapping_add`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn kern_i8_madd(
        kp: usize,
        ap: *const i16,
        bp: *const i16,
        c: *mut i32,
        ldc: usize,
        accumulate: bool,
    ) {
        let mut acc = [[_mm256_setzero_si256(); NRV]; MR];
        for pp in 0..kp {
            let b = bp.add(pp * NRV * 16);
            let mut bv = [_mm256_setzero_si256(); NRV];
            for (v, bvv) in bv.iter_mut().enumerate() {
                *bvv = _mm256_loadu_si256(b.add(16 * v) as *const __m256i);
            }
            let a = ap.add(pp * MR * 2);
            for (i, row) in acc.iter_mut().enumerate() {
                // One 32-bit lane = the row's (k, k+1) i16 pair.
                let pair = (a.add(i * 2) as *const i32).read_unaligned();
                let av = _mm256_set1_epi32(pair);
                for (cell, &bvv) in row.iter_mut().zip(&bv) {
                    *cell = _mm256_add_epi32(*cell, _mm256_madd_epi16(av, bvv));
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            let crow = c.add(i * ldc);
            for (v, &vec) in row.iter().enumerate() {
                let ptr = crow.add(8 * v) as *mut __m256i;
                let out = if accumulate {
                    _mm256_add_epi32(_mm256_loadu_si256(ptr), vec)
                } else {
                    vec
                };
                _mm256_storeu_si256(ptr, out);
            }
        }
    }

    /// The AVX-VNNI i8 kernel: `vpdpwssd` fuses the multiply-pair-add and
    /// the i32 accumulate into ONE instruction — 16 MACs/instruction,
    /// twice f32 FMA's 8 — with semantics bit-identical to madd+paddd
    /// (exact i32 pair products, wrapping accumulate). Same packed
    /// panels, same results.
    #[target_feature(enable = "avx2,avxvnni")]
    pub(super) unsafe fn kern_i8_vnni(
        kp: usize,
        ap: *const i16,
        bp: *const i16,
        c: *mut i32,
        ldc: usize,
        accumulate: bool,
    ) {
        // Dual accumulator banks: see the AVX512 kernel's note —
        // `vpdpwssd`'s latency stalls a single bank. Bitwise equivalent
        // (integer adds reassociate freely).
        let mut acc = [[_mm256_setzero_si256(); NRV]; MR];
        let mut acc2 = [[_mm256_setzero_si256(); NRV]; MR];
        let mut pp = 0;
        while pp + 2 <= kp {
            let b = bp.add(pp * NRV * 16);
            let b2 = bp.add((pp + 1) * NRV * 16);
            let mut bv = [_mm256_setzero_si256(); NRV];
            let mut bv2 = [_mm256_setzero_si256(); NRV];
            for v in 0..NRV {
                bv[v] = _mm256_loadu_si256(b.add(16 * v) as *const __m256i);
                bv2[v] = _mm256_loadu_si256(b2.add(16 * v) as *const __m256i);
            }
            let a = ap.add(pp * MR * 2);
            let a2 = ap.add((pp + 1) * MR * 2);
            for i in 0..MR {
                let av = _mm256_set1_epi32((a.add(i * 2) as *const i32).read_unaligned());
                let av2 = _mm256_set1_epi32((a2.add(i * 2) as *const i32).read_unaligned());
                for v in 0..NRV {
                    acc[i][v] = _mm256_dpwssd_avx_epi32(acc[i][v], av, bv[v]);
                    acc2[i][v] = _mm256_dpwssd_avx_epi32(acc2[i][v], av2, bv2[v]);
                }
            }
            pp += 2;
        }
        if pp < kp {
            let b = bp.add(pp * NRV * 16);
            let mut bv = [_mm256_setzero_si256(); NRV];
            for (v, bvv) in bv.iter_mut().enumerate() {
                *bvv = _mm256_loadu_si256(b.add(16 * v) as *const __m256i);
            }
            let a = ap.add(pp * MR * 2);
            for (i, row) in acc.iter_mut().enumerate() {
                let pair = (a.add(i * 2) as *const i32).read_unaligned();
                let av = _mm256_set1_epi32(pair);
                for (cell, &bvv) in row.iter_mut().zip(&bv) {
                    *cell = _mm256_dpwssd_avx_epi32(*cell, av, bvv);
                }
            }
        }
        for i in 0..MR {
            for v in 0..NRV {
                acc[i][v] = _mm256_add_epi32(acc[i][v], acc2[i][v]);
            }
        }
        for (i, row) in acc.iter().enumerate() {
            let crow = c.add(i * ldc);
            for (v, &vec) in row.iter().enumerate() {
                let ptr = crow.add(8 * v) as *mut __m256i;
                let out = if accumulate {
                    _mm256_add_epi32(_mm256_loadu_si256(ptr), vec)
                } else {
                    vec
                };
                _mm256_storeu_si256(ptr, out);
            }
        }
    }

    // One zmm holds one 16-column tile row of i32s.
    const _: () = assert!(NR == 16);

    /// The AVX512-VNNI i8 kernel: one 512-bit `vpdpwssd` covers the full
    /// 16-column tile row × 2 k-steps — 32 MACs per instruction, 4× f32
    /// FMA's per-ymm throughput. Reads the exact same packed panels (one
    /// zmm load = one k-pair's 32 i16s) and is bitwise identical to the
    /// madd and AVX-VNNI kernels.
    #[target_feature(enable = "avx512f,avx512vnni")]
    pub(super) unsafe fn kern_i8_vnni512(
        kp: usize,
        ap: *const i16,
        bp: *const i16,
        c: *mut i32,
        ldc: usize,
        accumulate: bool,
    ) {
        // Two accumulator banks, merged at the end: `vpdpwssd` has
        // ~5-cycle latency, so a single bank updated every iteration
        // stalls on its own dependency chain. Integer addition is
        // order-independent, so the split changes nothing bitwise.
        let mut acc = [_mm512_setzero_si512(); MR];
        let mut acc2 = [_mm512_setzero_si512(); MR];
        let mut pp = 0;
        while pp + 2 <= kp {
            let bv = _mm512_loadu_si512(bp.add(pp * 32) as *const _);
            let bv2 = _mm512_loadu_si512(bp.add((pp + 1) * 32) as *const _);
            let a = ap.add(pp * MR * 2);
            let a2 = ap.add((pp + 1) * MR * 2);
            for i in 0..MR {
                let av = _mm512_set1_epi32((a.add(i * 2) as *const i32).read_unaligned());
                acc[i] = _mm512_dpwssd_epi32(acc[i], av, bv);
                let av2 = _mm512_set1_epi32((a2.add(i * 2) as *const i32).read_unaligned());
                acc2[i] = _mm512_dpwssd_epi32(acc2[i], av2, bv2);
            }
            pp += 2;
        }
        if pp < kp {
            let bv = _mm512_loadu_si512(bp.add(pp * 32) as *const _);
            let a = ap.add(pp * MR * 2);
            for (i, cell) in acc.iter_mut().enumerate() {
                let pair = (a.add(i * 2) as *const i32).read_unaligned();
                let av = _mm512_set1_epi32(pair);
                *cell = _mm512_dpwssd_epi32(*cell, av, bv);
            }
        }
        for i in 0..MR {
            acc[i] = _mm512_add_epi32(acc[i], acc2[i]);
        }
        for (i, &vec) in acc.iter().enumerate() {
            let ptr = c.add(i * ldc);
            let out = if accumulate {
                _mm512_add_epi32(_mm512_loadu_si512(ptr as *const _), vec)
            } else {
                vec
            };
            _mm512_storeu_si512(ptr as *mut _, out);
        }
    }

    /// Whether the CPU can run the `vpdpwssd` kernel (AVX-VNNI — the
    /// VEX-encoded form, present on Cascade Lake+ servers and Alder
    /// Lake+ clients). Purely a speed upgrade within the Avx2 level:
    /// the madd and VNNI kernels are bitwise identical.
    pub(super) fn vnni_available() -> bool {
        std::arch::is_x86_feature_detected!("avxvnni")
    }

    /// Whether the CPU can run the 512-bit `vpdpwssd` kernel
    /// (AVX512-VNNI, Ice Lake+ servers). Same bitwise-identity note.
    pub(super) fn vnni512_available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vnni")
    }

    /// The best i8 kernel this CPU runs.
    pub(super) fn kern_i8() -> super::KernFn<i8> {
        if vnni512_available() {
            kern_i8_vnni512
        } else if vnni_available() {
            kern_i8_vnni
        } else {
            kern_i8_madd
        }
    }
}

/// `level`'s f32 and i8 kernels; `None` when this target does not
/// compile the level (AVX2 off x86-64).
///
/// Within the Avx2 level the i8 kernel sub-dispatches on VNNI
/// capability: `vpdpwssd` retires madd+paddd as one instruction
/// (512-bit where available, covering a whole tile row). All variants
/// are bitwise identical (exact i32 arithmetic), so — unlike the f32 FMA
/// distinction — this never affects any parity contract, only
/// throughput.
pub(crate) fn kernels(level: SimdLevel) -> Option<(KernFn<f32>, KernFn<i8>)> {
    match level {
        SimdLevel::Scalar => Some((scalar_kern::<f32> as KernFn<f32>, scalar_kern::<i8>)),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => Some((avx2::kern_f32 as KernFn<f32>, avx2::kern_i8())),
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 => None,
    }
}

/// Whether this build/CPU can run the AVX2 kernels.
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Resolves a raw `CQ_SIMD` value against hardware capability.
/// `None`/empty means `auto` (best available). `scalar` always works;
/// `avx2` must actually be runnable or the run aborts — silently falling
/// back would invalidate any A/B kernel comparison.
fn resolve_env_simd(raw: Option<&str>, avx2_ok: bool) -> Result<SimdLevel, String> {
    let auto = || {
        if avx2_ok {
            SimdLevel::Avx2
        } else {
            SimdLevel::Scalar
        }
    };
    match raw {
        None => Ok(auto()),
        Some(v) if v.trim().is_empty() => Ok(auto()),
        Some(v) if v.trim().eq_ignore_ascii_case("auto") => Ok(auto()),
        Some(v) => match SimdLevel::parse(v) {
            Some(SimdLevel::Scalar) => Ok(SimdLevel::Scalar),
            Some(SimdLevel::Avx2) if avx2_ok => Ok(SimdLevel::Avx2),
            Some(SimdLevel::Avx2) => Err(format!(
                "CQ_SIMD={v:?} requests the AVX2 micro-kernels but this CPU/target \
                 does not support AVX2+FMA"
            )),
            None => Err(format!(
                "invalid CQ_SIMD value {v:?}: expected \"auto\", \"scalar\" or \"avx2\""
            )),
        },
    }
}

/// The process-wide micro-kernel family: `CQ_SIMD` filtered through
/// runtime feature detection, resolved once.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let raw = std::env::var("CQ_SIMD").ok();
        match resolve_env_simd(raw.as_deref(), avx2_available()) {
            Ok(level) => level,
            Err(msg) => panic!("{msg}"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_resolution_rejects_garbage() {
        assert_eq!(resolve_env_simd(None, true), Ok(SimdLevel::Avx2));
        assert_eq!(resolve_env_simd(None, false), Ok(SimdLevel::Scalar));
        assert_eq!(resolve_env_simd(Some(""), true), Ok(SimdLevel::Avx2));
        assert_eq!(
            resolve_env_simd(Some(" AUTO "), false),
            Ok(SimdLevel::Scalar)
        );
        assert_eq!(
            resolve_env_simd(Some("scalar"), true),
            Ok(SimdLevel::Scalar)
        );
        assert_eq!(resolve_env_simd(Some(" Avx2 "), true), Ok(SimdLevel::Avx2));
        let err = resolve_env_simd(Some("avx2"), false).unwrap_err();
        assert!(err.contains("AVX2"), "{err}");
        let err = resolve_env_simd(Some("sse9"), true).unwrap_err();
        assert!(err.contains("invalid CQ_SIMD"), "{err}");
        assert!(err.contains("scalar"), "{err}");
    }

    /// The scalar and (when runnable) AVX2 i8 kernels are bitwise
    /// identical — i32 accumulation has no rounding, so unlike the f32
    /// family there is no "exact inputs" caveat.
    #[test]
    fn i8_kernels_agree_bitwise() {
        let kp = 19; // 38 k-steps as 19 pairs, odd-ish to stress nothing special
                     // Full i8 range including the extremes, sign-extended to i16
                     // exactly as the gemm_i8 packers do.
        let ap: Vec<i16> = (0..kp * MR * 2)
            .map(|i| ((i * 37 + 11) % 256) as i16 - 128)
            .collect();
        let bp: Vec<i16> = (0..kp * NR * 2)
            .map(|i| ((i * 53 + 7) % 256) as i16 - 128)
            .collect();
        let mut want = vec![0i32; MR * NR];
        for pp in 0..kp {
            for i in 0..MR {
                for j in 0..NR {
                    let a0 = ap[pp * MR * 2 + i * 2] as i32;
                    let a1 = ap[pp * MR * 2 + i * 2 + 1] as i32;
                    let b0 = bp[pp * NR * 2 + j * 2] as i32;
                    let b1 = bp[pp * NR * 2 + j * 2 + 1] as i32;
                    want[i * NR + j] += a0 * b0 + a1 * b1;
                }
            }
        }
        let run = |level: SimdLevel| {
            let kern = kernels(level).unwrap().1;
            let mut c = vec![-1i32; MR * NR];
            // SAFETY: buffers sized kp*MR*2 / kp*NR*2 / MR*NR, ldc = NR.
            unsafe { kern(kp, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr(), NR, false) };
            let mut c2 = c.clone();
            unsafe { kern(kp, ap.as_ptr(), bp.as_ptr(), c2.as_mut_ptr(), NR, true) };
            (c, c2)
        };
        let (c, c2) = run(SimdLevel::Scalar);
        assert_eq!(c, want, "scalar i8");
        assert_eq!(c2, want.iter().map(|v| v * 2).collect::<Vec<_>>());
        if avx2_available() {
            let (c, c2) = run(SimdLevel::Avx2);
            assert_eq!(c, want, "avx2 i8");
            assert_eq!(c2, want.iter().map(|v| v * 2).collect::<Vec<_>>());
        }
    }

    /// When AVX-VNNI is present the Avx2 level serves a `vpdpwssd`
    /// kernel; it must be bitwise identical to the plain madd+paddd
    /// kernel it replaces (the whole point of the sub-dispatch being
    /// safe), and so must the 512-bit one where AVX512-VNNI is present.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vnni_and_madd_i8_kernels_agree_bitwise() {
        if !avx2_available() || !avx2::vnni_available() {
            return;
        }
        let kp = 23;
        let ap: Vec<i16> = (0..kp * MR * 2)
            .map(|i| ((i * 71 + 3) % 256) as i16 - 128)
            .collect();
        let bp: Vec<i16> = (0..kp * NR * 2)
            .map(|i| ((i * 29 + 13) % 256) as i16 - 128)
            .collect();
        let mut c1 = vec![5i32; MR * NR];
        let mut c2 = vec![5i32; MR * NR];
        // SAFETY: buffers sized kp*MR*2 / kp*NR*2 / MR*NR, ldc = NR.
        unsafe {
            avx2::kern_i8_madd(kp, ap.as_ptr(), bp.as_ptr(), c1.as_mut_ptr(), NR, true);
            avx2::kern_i8_vnni(kp, ap.as_ptr(), bp.as_ptr(), c2.as_mut_ptr(), NR, true);
        }
        assert_eq!(c1, c2, "vnni/madd mismatch");
        if avx2::vnni512_available() {
            let mut c3 = vec![5i32; MR * NR];
            // SAFETY: same bounds as above.
            unsafe {
                avx2::kern_i8_vnni512(kp, ap.as_ptr(), bp.as_ptr(), c3.as_mut_ptr(), NR, true)
            };
            assert_eq!(c1, c3, "vnni512/madd mismatch");
        }
    }

    /// The scalar and (when runnable) AVX2 kernels agree on exact inputs:
    /// small halves, whose products and partial sums are all exactly
    /// representable, make FMA's fused rounding a no-op.
    #[test]
    fn kernels_agree_on_exact_inputs() {
        let k = 37;
        let ap: Vec<f32> = (0..k * MR).map(|i| ((i % 17) as f32 - 8.0) / 4.0).collect();
        let bp: Vec<f32> = (0..k * NR).map(|i| ((i % 13) as f32 - 6.0) / 8.0).collect();
        let mut want = vec![0.0f32; MR * NR];
        for p in 0..k {
            for i in 0..MR {
                for j in 0..NR {
                    want[i * NR + j] += ap[p * MR + i] * bp[p * NR + j];
                }
            }
        }
        let run = |level: SimdLevel| {
            let kern = kernels(level).unwrap().0;
            let mut c = vec![-1.0f32; MR * NR];
            // SAFETY: buffers sized k*MR / k*NR / MR*NR, ldc = NR.
            unsafe { kern(k, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr(), NR, false) };
            // Accumulate pass on top of the overwrite pass: doubles it.
            let mut c2 = c.clone();
            unsafe { kern(k, ap.as_ptr(), bp.as_ptr(), c2.as_mut_ptr(), NR, true) };
            (c, c2)
        };
        let (c, c2) = run(SimdLevel::Scalar);
        assert_eq!(c, want, "scalar");
        assert_eq!(c2, want.iter().map(|v| v * 2.0).collect::<Vec<_>>());
        if avx2_available() {
            let (c, c2) = run(SimdLevel::Avx2);
            assert_eq!(c, want, "avx2");
            assert_eq!(c2, want.iter().map(|v| v * 2.0).collect::<Vec<_>>());
        }
    }
}
