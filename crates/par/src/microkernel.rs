//! Register-tile micro-kernels: the innermost loops of the blocked GEMM.
//!
//! A micro-kernel computes one `MR × NR` tile of the output from packed
//! operand panels (`ap`: `k × MR` interleaved A, `bp`: `k × NR` packed B,
//! both in the element type's k-groups), either overwriting the tile or
//! accumulating into it (the `KC` panel loop above sums partial products
//! block by block).
//!
//! Two families exist behind one function-pointer type per element type
//! ([`KernFn`]):
//!
//! * **scalar** — portable const-generic Rust, compiled for every
//!   element type and supported `(MR, NR)` pair. f32 multiplies and adds
//!   round separately, so with the default `(6, 8)` tile and a single
//!   `KC` block the results are exactly the historical cq-par kernel's.
//! * **avx2** — `std::arch` intrinsics (x86_64 only). The f32 kernels
//!   hold the whole tile in `__m256` accumulators and issue one fused
//!   multiply-add per lane per `k` step; FMA skips the intermediate
//!   rounding of `a*b`, so results differ from scalar within the
//!   documented backend-parity tolerance (`k · amax · bmax · 8ε`). The
//!   i8 kernels (`vpmaddwd`, AVX-VNNI, AVX-512 VNNI) are exact and
//!   bitwise identical to the scalar one.
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

/// Largest `MR` any registered kernel uses (sizes the edge-tile scratch).
pub(crate) const MAX_MR: usize = 8;
/// Largest `NR` any registered kernel uses.
pub(crate) const MAX_NR: usize = 16;

/// Register-tile pairs every SIMD level provides a kernel for. The
/// autotuner searches exactly this set.
pub const SUPPORTED_TILES: [(usize, usize); 5] = [(4, 8), (6, 8), (8, 8), (4, 16), (6, 16)];

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
///   compiled for (guaranteed by [`simd_level`] and the registry's
///   runtime detection).
pub(crate) type KernFn<E> = unsafe fn(
    kg: usize,
    ap: *const <E as GemmElem>::Packed,
    bp: *const <E as GemmElem>::Packed,
    c: *mut <E as GemmElem>::Acc,
    ldc: usize,
    accumulate: bool,
);

/// Portable reference kernel, monomorphized per element type and
/// `(MR, NR)`.
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
unsafe fn scalar_kern<E: GemmElem, const MR: usize, const NR: usize>(
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
    //! FMA micro-kernels. `NRV` is the tile width in 8-lane `__m256`
    //! vectors; the register budget is `MR·NRV` accumulators + `NRV`
    //! B vectors + 1 broadcast, which fits the 16 ymm registers for
    //! every supported tile (the largest, 6×16, uses 15).

    macro_rules! avx2_kern {
        ($name:ident, $mr:expr, $nrv:expr) => {
            #[target_feature(enable = "avx2,fma")]
            pub(super) unsafe fn $name(
                k: usize,
                ap: *const f32,
                bp: *const f32,
                c: *mut f32,
                ldc: usize,
                accumulate: bool,
            ) {
                use std::arch::x86_64::*;
                const MR: usize = $mr;
                const NRV: usize = $nrv;
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
        };
    }

    avx2_kern!(kern_4x8, 4, 1);
    avx2_kern!(kern_6x8, 6, 1);
    avx2_kern!(kern_8x8, 8, 1);
    avx2_kern!(kern_4x16, 4, 2);
    avx2_kern!(kern_6x16, 6, 2);

    // i8 family: one 256-bit B load covers 8 columns × 2 k-steps as
    // sign-extended i16 pairs; `vpmaddwd` multiplies each pair against
    // the broadcast A pair and pre-adds them, so every instruction
    // retires 16 multiply-accumulates (vs 8 for f32 FMA) — the source
    // of the ≥2× arithmetic throughput. All products of i8-ranged i16s
    // fit i32 without `pmaddwd`'s (-32768)² saturation corner, and
    // `vpaddd` wraps exactly like the scalar kernel's `wrapping_add`.
    macro_rules! avx2_kern_i8 {
        ($name:ident, $mr:expr, $nrv:expr) => {
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name(
                kp: usize,
                ap: *const i16,
                bp: *const i16,
                c: *mut i32,
                ldc: usize,
                accumulate: bool,
            ) {
                use std::arch::x86_64::*;
                const MR: usize = $mr;
                const NRV: usize = $nrv;
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
        };
    }

    avx2_kern_i8!(kern_i8_4x8, 4, 1);
    avx2_kern_i8!(kern_i8_6x8, 6, 1);
    avx2_kern_i8!(kern_i8_8x8, 8, 1);
    avx2_kern_i8!(kern_i8_4x16, 4, 2);
    avx2_kern_i8!(kern_i8_6x16, 6, 2);

    // AVX-VNNI i8 family: `vpdpwssd` fuses the multiply-pair-add and the
    // i32 accumulate into ONE instruction — 16 MACs/instruction, twice
    // f32 FMA's 8 — with semantics bit-identical to madd+paddd (exact
    // i32 pair products, wrapping accumulate). Same packed panels, same
    // results; selected over the madd kernels by runtime detection.
    macro_rules! avx2_vnni_kern_i8 {
        ($name:ident, $mr:expr, $nrv:expr) => {
            #[target_feature(enable = "avx2,avxvnni")]
            pub(super) unsafe fn $name(
                kp: usize,
                ap: *const i16,
                bp: *const i16,
                c: *mut i32,
                ldc: usize,
                accumulate: bool,
            ) {
                use std::arch::x86_64::*;
                const MR: usize = $mr;
                const NRV: usize = $nrv;
                // Dual accumulator banks: see the AVX512 kernel's note —
                // `vpdpwssd`'s latency stalls a single bank. Bitwise
                // equivalent (integer adds reassociate freely).
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
        };
    }

    avx2_vnni_kern_i8!(kern_i8v_4x8, 4, 1);
    avx2_vnni_kern_i8!(kern_i8v_6x8, 6, 1);
    avx2_vnni_kern_i8!(kern_i8v_8x8, 8, 1);
    avx2_vnni_kern_i8!(kern_i8v_4x16, 4, 2);
    avx2_vnni_kern_i8!(kern_i8v_6x16, 6, 2);

    // AVX512-VNNI i8 family for `NR = 16` tiles: one 512-bit `vpdpwssd`
    // covers the full 16-column tile row × 2 k-steps — 32 MACs per
    // instruction, 4× f32 FMA's per-ymm throughput. Reads the exact
    // same packed panels (one zmm load = one k-pair's 32 i16s) and is
    // bitwise identical to the madd and AVX-VNNI kernels.
    macro_rules! avx512_vnni_kern_i8 {
        ($name:ident, $mr:expr) => {
            #[target_feature(enable = "avx512f,avx512vnni")]
            pub(super) unsafe fn $name(
                kp: usize,
                ap: *const i16,
                bp: *const i16,
                c: *mut i32,
                ldc: usize,
                accumulate: bool,
            ) {
                use std::arch::x86_64::*;
                const MR: usize = $mr;
                // Two accumulator banks, merged at the end: `vpdpwssd`
                // has ~5-cycle latency, so a single bank updated every
                // iteration stalls on its own dependency chain. Integer
                // addition is order-independent, so the split changes
                // nothing bitwise.
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
                    let ptr = c.add(i * ldc) as *mut i32;
                    let out = if accumulate {
                        _mm512_add_epi32(_mm512_loadu_si512(ptr as *const _), vec)
                    } else {
                        vec
                    };
                    _mm512_storeu_si512(ptr as *mut _, out);
                }
            }
        };
    }

    avx512_vnni_kern_i8!(kern_i8z_4x16, 4);
    avx512_vnni_kern_i8!(kern_i8z_6x16, 6);

    /// Whether the CPU can run the `vpdpwssd` kernels (AVX-VNNI — the
    /// VEX-encoded form, present on Cascade Lake+ servers and Alder
    /// Lake+ clients). Purely a speed upgrade within the Avx2 level:
    /// the madd and VNNI kernels are bitwise identical.
    pub(super) fn vnni_available() -> bool {
        std::arch::is_x86_feature_detected!("avxvnni")
    }

    /// Whether the CPU can run the 512-bit `vpdpwssd` kernels
    /// (AVX512-VNNI, Ice Lake+ servers). Same bitwise-identity note.
    pub(super) fn vnni512_available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vnni")
    }
}

/// Looks up the kernel for a `(level, mr, nr)` triple; `None` if the pair
/// is not in [`SUPPORTED_TILES`] (or the level lacks it on this target).
pub(crate) fn kernel_for(level: SimdLevel, mr: usize, nr: usize) -> Option<KernFn<f32>> {
    match level {
        SimdLevel::Scalar => match (mr, nr) {
            (4, 8) => Some(scalar_kern::<f32, 4, 8> as KernFn<f32>),
            (6, 8) => Some(scalar_kern::<f32, 6, 8> as KernFn<f32>),
            (8, 8) => Some(scalar_kern::<f32, 8, 8> as KernFn<f32>),
            (4, 16) => Some(scalar_kern::<f32, 4, 16> as KernFn<f32>),
            (6, 16) => Some(scalar_kern::<f32, 6, 16> as KernFn<f32>),
            _ => None,
        },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => match (mr, nr) {
            (4, 8) => Some(avx2::kern_4x8 as KernFn<f32>),
            (6, 8) => Some(avx2::kern_6x8 as KernFn<f32>),
            (8, 8) => Some(avx2::kern_8x8 as KernFn<f32>),
            (4, 16) => Some(avx2::kern_4x16 as KernFn<f32>),
            (6, 16) => Some(avx2::kern_6x16 as KernFn<f32>),
            _ => None,
        },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 => None,
    }
}

/// Looks up the i8×i8→i32 kernel for a `(level, mr, nr)` triple; `None`
/// if the pair is not in [`SUPPORTED_TILES`] (or the level lacks it on
/// this target). Every tile with an f32 kernel has an i8 sibling, so a
/// valid [`crate::GemmPlan`] always resolves one.
pub(crate) fn kernel_i8_for(level: SimdLevel, mr: usize, nr: usize) -> Option<KernFn<i8>> {
    match level {
        SimdLevel::Scalar => match (mr, nr) {
            (4, 8) => Some(scalar_kern::<i8, 4, 8> as KernFn<i8>),
            (6, 8) => Some(scalar_kern::<i8, 6, 8> as KernFn<i8>),
            (8, 8) => Some(scalar_kern::<i8, 8, 8> as KernFn<i8>),
            (4, 16) => Some(scalar_kern::<i8, 4, 16> as KernFn<i8>),
            (6, 16) => Some(scalar_kern::<i8, 6, 16> as KernFn<i8>),
            _ => None,
        },
        // Within the Avx2 level the i8 registry sub-dispatches on VNNI
        // capability: `vpdpwssd` retires madd+paddd as one instruction
        // (512-bit where available, covering a whole NR=16 tile row).
        // All variants are bitwise identical (exact i32 arithmetic), so
        // — unlike the f32 FMA distinction — this never affects any
        // parity contract, only throughput.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if avx2::vnni512_available() && nr == 16 => match (mr, nr) {
            (4, 16) => Some(avx2::kern_i8z_4x16 as KernFn<i8>),
            (6, 16) => Some(avx2::kern_i8z_6x16 as KernFn<i8>),
            _ => None,
        },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if avx2::vnni_available() => match (mr, nr) {
            (4, 8) => Some(avx2::kern_i8v_4x8 as KernFn<i8>),
            (6, 8) => Some(avx2::kern_i8v_6x8 as KernFn<i8>),
            (8, 8) => Some(avx2::kern_i8v_8x8 as KernFn<i8>),
            (4, 16) => Some(avx2::kern_i8v_4x16 as KernFn<i8>),
            (6, 16) => Some(avx2::kern_i8v_6x16 as KernFn<i8>),
            _ => None,
        },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => match (mr, nr) {
            (4, 8) => Some(avx2::kern_i8_4x8 as KernFn<i8>),
            (6, 8) => Some(avx2::kern_i8_6x8 as KernFn<i8>),
            (8, 8) => Some(avx2::kern_i8_8x8 as KernFn<i8>),
            (4, 16) => Some(avx2::kern_i8_4x16 as KernFn<i8>),
            (6, 16) => Some(avx2::kern_i8_6x16 as KernFn<i8>),
            _ => None,
        },
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

    #[test]
    fn every_supported_tile_has_a_scalar_kernel() {
        for &(mr, nr) in &SUPPORTED_TILES {
            assert!(
                kernel_for(SimdLevel::Scalar, mr, nr).is_some(),
                "missing scalar kernel for {mr}x{nr}"
            );
            assert!(
                kernel_i8_for(SimdLevel::Scalar, mr, nr).is_some(),
                "missing scalar i8 kernel for {mr}x{nr}"
            );
            assert!(mr <= MAX_MR && nr <= MAX_NR);
        }
        assert!(kernel_for(SimdLevel::Scalar, 7, 8).is_none());
        assert!(kernel_for(SimdLevel::Scalar, 6, 12).is_none());
        assert!(kernel_i8_for(SimdLevel::Scalar, 7, 8).is_none());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_supported_tile_has_an_avx2_kernel() {
        for &(mr, nr) in &SUPPORTED_TILES {
            assert!(
                kernel_for(SimdLevel::Avx2, mr, nr).is_some(),
                "missing avx2 kernel for {mr}x{nr}"
            );
            assert!(
                kernel_i8_for(SimdLevel::Avx2, mr, nr).is_some(),
                "missing avx2 i8 kernel for {mr}x{nr}"
            );
        }
    }

    /// The scalar and (when runnable) AVX2 i8 kernels are bitwise
    /// identical — i32 accumulation has no rounding, so unlike the f32
    /// family there is no "exact inputs" caveat.
    #[test]
    fn i8_kernels_agree_bitwise() {
        let kp = 19; // 38 k-steps as 19 pairs, odd-ish to stress nothing special
        for &(mr, nr) in &SUPPORTED_TILES {
            // Full i8 range including the extremes, sign-extended to i16
            // exactly as the gemm_i8 packers do.
            let ap: Vec<i16> = (0..kp * mr * 2)
                .map(|i| ((i * 37 + 11) % 256) as i16 - 128)
                .collect();
            let bp: Vec<i16> = (0..kp * nr * 2)
                .map(|i| ((i * 53 + 7) % 256) as i16 - 128)
                .collect();
            let mut want = vec![0i32; mr * nr];
            for pp in 0..kp {
                for i in 0..mr {
                    for j in 0..nr {
                        let a0 = ap[pp * mr * 2 + i * 2] as i32;
                        let a1 = ap[pp * mr * 2 + i * 2 + 1] as i32;
                        let b0 = bp[pp * nr * 2 + j * 2] as i32;
                        let b1 = bp[pp * nr * 2 + j * 2 + 1] as i32;
                        want[i * nr + j] += a0 * b0 + a1 * b1;
                    }
                }
            }
            let run = |level: SimdLevel| {
                let kern = kernel_i8_for(level, mr, nr).unwrap();
                let mut c = vec![-1i32; mr * nr];
                // SAFETY: buffers sized kp*mr*2 / kp*nr*2 / mr*nr, ldc = nr.
                unsafe { kern(kp, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr(), nr, false) };
                let mut c2 = c.clone();
                unsafe { kern(kp, ap.as_ptr(), bp.as_ptr(), c2.as_mut_ptr(), nr, true) };
                (c, c2)
            };
            let (c, c2) = run(SimdLevel::Scalar);
            assert_eq!(c, want, "scalar i8 {mr}x{nr}");
            assert_eq!(c2, want.iter().map(|v| v * 2).collect::<Vec<_>>());
            if avx2_available() {
                let (c, c2) = run(SimdLevel::Avx2);
                assert_eq!(c, want, "avx2 i8 {mr}x{nr}");
                assert_eq!(c2, want.iter().map(|v| v * 2).collect::<Vec<_>>());
            }
        }
    }

    /// When AVX-VNNI is present the registry serves `vpdpwssd` kernels;
    /// they must be bitwise identical to the plain madd+paddd kernels
    /// they replace (the whole point of the sub-dispatch being safe).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vnni_and_madd_i8_kernels_agree_bitwise() {
        if !avx2_available() || !avx2::vnni_available() {
            return;
        }
        let pairs: [(KernFn<i8>, KernFn<i8>, usize, usize); 5] = [
            (avx2::kern_i8_4x8, avx2::kern_i8v_4x8, 4, 8),
            (avx2::kern_i8_6x8, avx2::kern_i8v_6x8, 6, 8),
            (avx2::kern_i8_8x8, avx2::kern_i8v_8x8, 8, 8),
            (avx2::kern_i8_4x16, avx2::kern_i8v_4x16, 4, 16),
            (avx2::kern_i8_6x16, avx2::kern_i8v_6x16, 6, 16),
        ];
        let kp = 23;
        for (madd, vnni, mr, nr) in pairs {
            let ap: Vec<i16> = (0..kp * mr * 2)
                .map(|i| ((i * 71 + 3) % 256) as i16 - 128)
                .collect();
            let bp: Vec<i16> = (0..kp * nr * 2)
                .map(|i| ((i * 29 + 13) % 256) as i16 - 128)
                .collect();
            let mut c1 = vec![5i32; mr * nr];
            let mut c2 = vec![5i32; mr * nr];
            // SAFETY: buffers sized kp*mr*2 / kp*nr*2 / mr*nr, ldc = nr.
            unsafe {
                madd(kp, ap.as_ptr(), bp.as_ptr(), c1.as_mut_ptr(), nr, true);
                vnni(kp, ap.as_ptr(), bp.as_ptr(), c2.as_mut_ptr(), nr, true);
            }
            assert_eq!(c1, c2, "vnni/madd mismatch {mr}x{nr}");
            if avx2::vnni512_available() && nr == 16 {
                let zkern = match mr {
                    4 => avx2::kern_i8z_4x16 as KernFn<i8>,
                    6 => avx2::kern_i8z_6x16 as KernFn<i8>,
                    _ => continue,
                };
                let mut c3 = vec![5i32; mr * nr];
                // SAFETY: same bounds as above.
                unsafe { zkern(kp, ap.as_ptr(), bp.as_ptr(), c3.as_mut_ptr(), nr, true) };
                assert_eq!(c1, c3, "vnni512/madd mismatch {mr}x{nr}");
            }
        }
    }

    /// The scalar and (when runnable) AVX2 kernels agree on exact inputs:
    /// small halves, whose products and partial sums are all exactly
    /// representable, make FMA's fused rounding a no-op.
    #[test]
    fn kernels_agree_on_exact_inputs() {
        let k = 37;
        for &(mr, nr) in &SUPPORTED_TILES {
            let ap: Vec<f32> = (0..k * mr).map(|i| ((i % 17) as f32 - 8.0) / 4.0).collect();
            let bp: Vec<f32> = (0..k * nr).map(|i| ((i % 13) as f32 - 6.0) / 8.0).collect();
            let mut want = vec![0.0f32; mr * nr];
            for p in 0..k {
                for i in 0..mr {
                    for j in 0..nr {
                        want[i * nr + j] += ap[p * mr + i] * bp[p * nr + j];
                    }
                }
            }
            let run = |level: SimdLevel| {
                let kern = kernel_for(level, mr, nr).unwrap();
                let mut c = vec![-1.0f32; mr * nr];
                // SAFETY: buffers sized k*mr / k*nr / mr*nr, ldc = nr.
                unsafe { kern(k, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr(), nr, false) };
                // Accumulate pass on top of the overwrite pass: doubles it.
                let mut c2 = c.clone();
                unsafe { kern(k, ap.as_ptr(), bp.as_ptr(), c2.as_mut_ptr(), nr, true) };
                (c, c2)
            };
            let (c, c2) = run(SimdLevel::Scalar);
            assert_eq!(c, want, "scalar {mr}x{nr}");
            assert_eq!(c2, want.iter().map(|v| v * 2.0).collect::<Vec<_>>());
            if avx2_available() {
                let (c, c2) = run(SimdLevel::Avx2);
                assert_eq!(c, want, "avx2 {mr}x{nr}");
                assert_eq!(c2, want.iter().map(|v| v * 2.0).collect::<Vec<_>>());
            }
        }
    }
}
