//! Three-level cache-blocked GEMM: micro-kernel × register tile below,
//! KC/MC/NC panel blocking above, pool banding on top — one driver,
//! generic over the operand element ([`GemmElem`]).
//!
//! The loop nest is the classic BLIS/GotoBLAS structure, parameterized by
//! the active [`GemmPlan`] (see [`crate::tune`]):
//!
//! ```text
//! for jc in 0..n step NC      // B column block   → packed once per (jc,pc)
//!   for pc in 0..k step KC     // reduction block  → accumulate after the first
//!     pack B[pc.., jc..]  (KC × NC, NR-column panels)
//!     for ic in 0..m step MC   // A row block      → packed, reused over NC cols
//!       pack A[ic.., pc..] (MC × KC, MR-row interleaved panels)
//!       for jr step NR · for ir step MR:
//!         micro-kernel: C[ic+ir.., jc+jr..] (+)= A-panel × B-panel
//! ```
//!
//! Packing rewrites both operands so the micro-kernel streams two short
//! contiguous loads per `MR·NR` multiply-accumulates, and the KC/MC/NC
//! blocks keep the panels resident in L1/L2 while they are reused. The
//! packer reads A and B through a strided [`MatRef`] view, so
//! [`gemm_at`] (A stored `[k, m]`) and [`gemm_bt`] (B stored `[n, k]`)
//! pack their transposed operand *directly* — no scratch transpose
//! materialization and no extra pass over memory.
//!
//! Parallelism still partitions output rows across the [`Pool`]: bands
//! are disjoint `&mut` slices running the full blocked nest.
//!
//! # Element types
//!
//! * `f32` — f32 accumulator, k-group 1, `+`.
//! * `i8` — the dequantization-free integer path: quantized codes in,
//!   the exact `i32` accumulation out (the caller applies one scale at
//!   the output). Operands are sign-extended to `i16` in k-pairs
//!   (k-group 2) so the AVX2 kernel retires two reduction steps per
//!   `vpmaddwd`; accumulation is `wrapping_add`.
//!
//! # Packing layout
//!
//! Panels hold the operand widened to [`GemmElem::Packed`], interleaved
//! in k-groups of `G =` [`GemmElem::KG`] reduction steps:
//!
//! * A panels: `ap[g·MR·G + i·G + s] = A[i, G·g + s]` — for i8, each
//!   32-bit lane of a broadcast holds one row's `(k, k+1)` pair.
//! * B panels: `bp[g·NR·G + j·G + s] = B[G·g + s, j]` — for i8, one
//!   256-bit load covers 8 columns × 2 k-steps.
//!
//! With `G = 1` (f32) these are the plain MR-interleaved and NR-column
//! panels. Ragged tile edges and the tail of the last k-group are
//! zero-padded; padded lanes only ever land in discarded accumulators
//! or add exact zeros.
//!
//! B's panels are A's layout over `Bᵀ`, so one packer body serves both,
//! const-generic over the panel width (`MR` or `NR`) and walking whichever
//! of the view's strides is 1. Where each panel lane is contiguous along
//! k (row-major A, `gemm_bt`'s B), every k-group copies the next group of
//! all lanes; where each k step's lanes are contiguous (`gemm_at`'s A,
//! row-major B), every k step copies one run.
//!
//! # Determinism
//!
//! Every output element is accumulated over `k` in ascending index
//! order: the `pc` blocks advance in order and each micro-kernel sums
//! its block ascending. Banding, blocking and thread count change which
//! elements are computed *together*, never the per-element operation
//! sequence — so f32 results are bitwise identical across thread counts
//! and tile shapes *within* one SIMD level. Across levels (or vs the
//! naive backend) the FMA kernels differ by fused-rounding only, inside
//! the documented `k · amax · bmax · 8ε` parity tolerance.
//!
//! i8 is stronger: i32 addition is associative, so its results are
//! **bitwise identical across SIMD levels, thread counts, tile shapes,
//! blockings and prepacking** — the scalar kernel reproduces the
//! `vpmaddwd`/`vpaddd` (wrapping) semantics exactly. For i8-ranged
//! operands no intermediate saturates; accumulator wraparound needs
//! `k ≥ 2^17` at worst-case magnitudes, far beyond any layer here, and
//! even then every kernel wraps identically.

// Micro-kernel invocations are raw-pointer calls (see microkernel.rs);
// every call site documents the bounds that make it sound.
#![allow(unsafe_code)]

use crate::microkernel::{kernel_for, kernel_i8_for, KernFn, SimdLevel, MAX_MR, MAX_NR};
use crate::pool::Pool;
use crate::tune::{active_plan, GemmPlan};

/// Minimum multiply-accumulate count before a GEMM fans out to the pool;
/// below this, scoped-thread spawn overhead (~tens of µs) dominates.
/// The i8 path's per-MAC cost is lower still, so the threshold is if
/// anything conservative there.
pub(crate) const PAR_MIN_MACS: usize = 1 << 18;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for i8 {}
}

/// An operand element the blocked GEMM runs on: `f32`, or `i8` codes
/// with exact `i32` accumulation (see the module docs).
///
/// Sealed. Each impl supplies the only per-type facts the driver needs —
/// its k-group, widening, accumulate operation and micro-kernel lookup —
/// so packing, blocking, banding and prepacking are one copy.
pub trait GemmElem: sealed::Sealed + Copy + Default + Send + Sync + 'static {
    /// Accumulator and output element (`f32` / `i32`).
    type Acc: Copy + Default + Send + Sync + 'static;
    /// Panel element: the operand widened for the micro-kernel (`f32` /
    /// sign-extended `i16`).
    type Packed: Copy + Default + Send + Sync + 'static;
    /// Reduction steps interleaved per k-group in the packed panels; the
    /// micro-kernels count their reduction length in k-groups.
    const KG: usize;
    /// Widens one operand into its panel element.
    fn widen(self) -> Self::Packed;
    /// The widening product of two panel elements.
    fn product(a: Self::Packed, b: Self::Packed) -> Self::Acc;
    /// The accumulate operation (`+` for f32, `wrapping_add` for i32).
    fn accumulate(acc: Self::Acc, v: Self::Acc) -> Self::Acc;
    /// This type's micro-kernel for a `(level, mr, nr)` triple; `None` if
    /// the tile is unsupported (or the level lacks it on this target).
    fn lookup(level: SimdLevel, mr: usize, nr: usize) -> Option<KernFn<Self>>;
    /// The kernel `plan` resolved for this type ([`GemmPlan::new`] proves
    /// it exists).
    fn kernel(plan: &GemmPlan) -> KernFn<Self>;
}

impl GemmElem for f32 {
    type Acc = f32;
    type Packed = f32;
    const KG: usize = 1;
    #[inline(always)]
    fn widen(self) -> f32 {
        self
    }
    #[inline(always)]
    fn product(a: f32, b: f32) -> f32 {
        a * b
    }
    #[inline(always)]
    fn accumulate(acc: f32, v: f32) -> f32 {
        acc + v
    }
    fn lookup(level: SimdLevel, mr: usize, nr: usize) -> Option<KernFn<f32>> {
        kernel_for(level, mr, nr)
    }
    fn kernel(plan: &GemmPlan) -> KernFn<f32> {
        plan.kern
    }
}

impl GemmElem for i8 {
    type Acc = i32;
    type Packed = i16;
    const KG: usize = 2;
    #[inline(always)]
    fn widen(self) -> i16 {
        self as i16
    }
    #[inline(always)]
    fn product(a: i16, b: i16) -> i32 {
        a as i32 * b as i32
    }
    #[inline(always)]
    fn accumulate(acc: i32, v: i32) -> i32 {
        acc.wrapping_add(v)
    }
    fn lookup(level: SimdLevel, mr: usize, nr: usize) -> Option<KernFn<i8>> {
        kernel_i8_for(level, mr, nr)
    }
    fn kernel(plan: &GemmPlan) -> KernFn<i8> {
        plan.kern_i8
    }
}

/// A strided read-only matrix view: element `(r, c)` lives at
/// `data[off + r·rs + c·cs]`. Lets one packer serve row-major A,
/// column-stored Aᵀ and row-stored Bᵀ without materializing transposes.
#[derive(Clone, Copy)]
struct MatRef<'a, T> {
    data: &'a [T],
    off: usize,
    rs: usize,
    cs: usize,
}

impl<'a, T> MatRef<'a, T> {
    fn row_major(data: &'a [T], cols: usize) -> Self {
        MatRef {
            data,
            off: 0,
            rs: cols,
            cs: 1,
        }
    }

    /// The transpose of a row-major `[cols, rows]` matrix: element
    /// `(r, c)` is `data[c·rows + r]` — row stride 1, column stride
    /// `rows`.
    fn transposed(data: &'a [T], rows: usize) -> Self {
        MatRef {
            data,
            off: 0,
            rs: 1,
            cs: rows,
        }
    }

    /// The same storage viewed as the transpose: rows and columns swap.
    fn t(self) -> Self {
        MatRef {
            rs: self.cs,
            cs: self.rs,
            ..self
        }
    }

    /// View of the same matrix starting `r0` rows down.
    fn band(self, r0: usize) -> Self {
        MatRef {
            off: self.off + r0 * self.rs,
            ..self
        }
    }

    #[inline(always)]
    fn idx(&self, r: usize, c: usize) -> usize {
        self.off + r * self.rs + c * self.cs
    }
}

/// Zeroed panel storage whose `len`-element window starts on a 64-byte
/// boundary, keeping 512-bit B-panel loads on cache lines (a `Vec` is
/// only element-aligned, which would split every zmm load across two
/// lines).
struct PanelBuf<P> {
    buf: Vec<P>,
    off: usize,
    len: usize,
}

impl<P: Copy + Default> PanelBuf<P> {
    fn new(len: usize) -> Self {
        let slack = 64 / std::mem::size_of::<P>();
        let buf = vec![P::default(); len + slack];
        // `align_offset` may decline with usize::MAX; alignment only
        // affects speed, so fall back to any in-bounds window.
        let off = buf.as_ptr().align_offset(64).min(slack);
        PanelBuf { buf, off, len }
    }

    fn as_mut(&mut self) -> &mut [P] {
        &mut self.buf[self.off..self.off + self.len]
    }
}

/// Packs the `mcb × kcb` block of `a` at `(i0, p0)` into `MR`-interleaved
/// k-group panels: panel `ib` holds rows `i0 + ib·mr ..`, laid out
/// `dst[ib·kp·mr + g·mr·G + ii·G + s] = a[i0 + ib·mr + ii, p0 + g·G + s]`
/// with `G = E::KG` and `kp` = `kcb` rounded up to whole k-groups.
/// Ragged final panels and the last k-group's tail are zero-padded.
fn pack_a<E: GemmElem>(
    a: MatRef<'_, E>,
    i0: usize,
    p0: usize,
    mcb: usize,
    kcb: usize,
    mr: usize,
    dst: &mut [E::Packed],
) {
    match mr {
        4 => pack_panels::<E, 4>(a, i0, p0, mcb, kcb, dst),
        6 => pack_panels::<E, 6>(a, i0, p0, mcb, kcb, dst),
        8 => pack_panels::<E, 8>(a, i0, p0, mcb, kcb, dst),
        _ => unreachable!("MR = {mr} is not in SUPPORTED_TILES"),
    }
}

/// Packs the `kcb × ncb` block of `b` at `(p0, j0)` into `NR`-column
/// k-group panels: panel `jb` holds columns `j0 + jb·nr ..`, laid out
/// `dst[jb·kp·nr + g·nr·G + jj·G + s] = b[p0 + g·G + s, j0 + jb·nr + jj]`,
/// zero-padded on the ragged column edge and the last k-group's tail.
/// This is A's panel layout over `bᵀ`.
fn pack_b<E: GemmElem>(
    b: MatRef<'_, E>,
    p0: usize,
    j0: usize,
    kcb: usize,
    ncb: usize,
    nr: usize,
    dst: &mut [E::Packed],
) {
    match nr {
        8 => pack_panels::<E, 8>(b.t(), j0, p0, ncb, kcb, dst),
        16 => pack_panels::<E, 16>(b.t(), j0, p0, ncb, kcb, dst),
        _ => unreachable!("NR = {nr} is not in SUPPORTED_TILES"),
    }
}

/// Packs `lanes × kcb` of `v` from `(l0, p0)` into panels `W` lanes
/// wide: `dst[lb·kp·W + g·W·G + l·G + s] = v[l0 + lb·W + l, p0 + g·G + s]`.
/// A panel of fewer than `W` lanes is zeroed first, and so is a partial
/// last k-group; then both run the full panel's loops at their width.
#[inline(never)]
fn pack_panels<E: GemmElem, const W: usize>(
    v: MatRef<'_, E>,
    l0: usize,
    p0: usize,
    lanes: usize,
    kcb: usize,
    dst: &mut [E::Packed],
) {
    // `fill_panel` interleaves at most a k-pair.
    const { assert!(E::KG == 1 || E::KG == 2) };
    let kp = kcb.div_ceil(E::KG) * E::KG;
    for (lb, panel) in dst
        .chunks_exact_mut(kp * W)
        .take(lanes.div_ceil(W))
        .enumerate()
    {
        let start = v.idx(l0 + lb * W, p0);
        let width = W.min(lanes - lb * W);
        if width < W {
            panel.fill(E::Packed::default());
            fill_panel::<E, W>(v, start, width, kcb, panel);
        } else {
            if kcb < kp {
                panel[(kp - E::KG) * W..].fill(E::Packed::default());
            }
            fill_panel::<E, W>(v, start, W, kcb, panel);
        }
    }
}

/// Fills the first `width` lanes of one panel from storage index
/// `start` (lane 0, step 0), walking whichever of `v`'s strides is 1.
#[inline(always)]
fn fill_panel<E: GemmElem, const W: usize>(
    v: MatRef<'_, E>,
    start: usize,
    width: usize,
    kcb: usize,
    panel: &mut [E::Packed],
) {
    let g = E::KG;
    if v.cs == 1 {
        // Each lane is a contiguous run along k: every panel k-group
        // takes the next k-group of all `width` lanes.
        let lanes: [&[E]; W] = std::array::from_fn(|l| {
            if l < width {
                &v.data[start + l * v.rs..][..kcb]
            } else {
                &[]
            }
        });
        let full = kcb / g;
        let mut groups = panel.chunks_exact_mut(W * g);
        for (gi, grp) in groups.by_ref().take(full).enumerate() {
            for (l, lane) in lanes[..width].iter().enumerate() {
                let src = &lane[gi * g..gi * g + g];
                for s in 0..g {
                    grp[l * g + s] = src[s].widen();
                }
            }
        }
        // A partial last k-group; its padding lanes stay zero.
        if let Some(grp) = groups.next() {
            for (l, lane) in lanes[..width].iter().enumerate() {
                for s in 0..kcb - full * g {
                    grp[l * g + s] = lane[full * g + s].widen();
                }
            }
        }
    } else {
        // Row stride 1: each k step's lanes are one contiguous run.
        debug_assert_eq!(v.rs, 1, "a view has a unit stride");
        let run = |p: usize| &v.data[start + p * v.cs..][..width];
        for (gi, grp) in panel.chunks_exact_mut(W * g).enumerate() {
            let p = gi * g;
            if g == 2 && p + 1 < kcb {
                // A whole k-pair: interleave its two runs in one pass.
                for ((d, &x0), &x1) in grp.chunks_exact_mut(2).zip(run(p)).zip(run(p + 1)) {
                    d[0] = x0.widen();
                    d[1] = x1.widen();
                }
            } else {
                // f32's one step, or the lone step of a partial k-pair.
                for (d, &x) in grp.chunks_exact_mut(g).zip(run(p)) {
                    d[0] = x.widen();
                }
            }
        }
    }
}

/// Where the blocked driver gets its packed A panels from.
enum ASource<'a, E: GemmElem> {
    /// Pack on the fly from a strided view.
    View(MatRef<'a, E>),
    /// Reuse panels packed once by [`PackedA::pack`].
    Packed(&'a PackedA<E>),
}

/// The serial three-level loop nest over one band of output rows.
/// `out` is the row-major `rows × n` band; `a` covers exactly those rows.
fn gemm_blocked<E: GemmElem>(
    plan: &GemmPlan,
    rows: usize,
    k: usize,
    n: usize,
    a: ASource<'_, E>,
    b: MatRef<'_, E>,
    out: &mut [E::Acc],
) {
    let cfg = plan.cfg;
    let (mr, nr, kc, mc, nc) = (cfg.mr, cfg.nr, cfg.kc, cfg.mc, cfg.nc);
    let kern = E::kernel(plan);
    // Reduction steps of the largest block, padded to whole k-groups.
    let kp_max = kc.min(k).div_ceil(E::KG) * E::KG;

    let mut bp_buf = PanelBuf::new(kp_max * nc.min(n).div_ceil(nr) * nr);
    let mut ap_buf = PanelBuf::new(match a {
        ASource::View(_) => kp_max * mc.min(rows).div_ceil(mr) * mr,
        ASource::Packed(_) => 0,
    });
    let (bp, ap) = (bp_buf.as_mut(), ap_buf.as_mut());
    let mut scratch = [E::Acc::default(); MAX_MR * MAX_NR];

    let mut jc = 0;
    while jc < n {
        let ncb = nc.min(n - jc);
        let mut pc = 0;
        let mut pci = 0;
        while pc < k {
            let kcb = kc.min(k - pc);
            let kp = kcb.div_ceil(E::KG) * E::KG;
            let groups = kp / E::KG;
            pack_b(b, pc, jc, kcb, ncb, nr, bp);
            // After the first reduction block, micro-kernels add into C.
            let acc = pci > 0;
            let mut ic = 0;
            let mut ici = 0;
            while ic < rows {
                let mcb = mc.min(rows - ic);
                let a_panels: &[E::Packed] = match &a {
                    ASource::View(v) => {
                        pack_a(*v, ic, pc, mcb, kcb, mr, ap);
                        ap
                    }
                    ASource::Packed(p) => p.block(pci, ici),
                };
                let mut jr = 0;
                while jr < ncb {
                    let nrb = nr.min(ncb - jr);
                    let bpanel = &bp[(jr / nr) * kp * nr..];
                    let mut ir = 0;
                    while ir < mcb {
                        let mrb = mr.min(mcb - ir);
                        let apanel = &a_panels[(ir / mr) * kp * mr..];
                        let (row, col) = (ic + ir, jc + jr);
                        if mrb == mr && nrb == nr {
                            // SAFETY: apanel/bpanel hold ≥ kp·mr / kp·nr
                            // elements (full panels exist for full tiles);
                            // rows row..row+mr and cols col..col+nr are in
                            // bounds, so every write `i·n + j` from the
                            // tile base stays inside `out`.
                            unsafe {
                                kern(
                                    groups,
                                    apanel.as_ptr(),
                                    bpanel.as_ptr(),
                                    out.as_mut_ptr().add(row * n + col),
                                    n,
                                    acc,
                                );
                            }
                        } else {
                            // Ragged edge: compute the full zero-padded
                            // tile into scratch, then copy/add the valid
                            // `mrb × nrb` corner.
                            // SAFETY: panels as above (zero-padded to full
                            // size); scratch holds MAX_MR·MAX_NR ≥ mr·nr
                            // elements at ldc = nr.
                            unsafe {
                                kern(
                                    groups,
                                    apanel.as_ptr(),
                                    bpanel.as_ptr(),
                                    scratch.as_mut_ptr(),
                                    nr,
                                    false,
                                );
                            }
                            for ii in 0..mrb {
                                let o = (row + ii) * n + col;
                                let s = &scratch[ii * nr..ii * nr + nrb];
                                if acc {
                                    for (ov, &sv) in out[o..o + nrb].iter_mut().zip(s) {
                                        *ov = E::accumulate(*ov, sv);
                                    }
                                } else {
                                    out[o..o + nrb].copy_from_slice(s);
                                }
                            }
                        }
                        ir += mr;
                    }
                    jr += nr;
                }
                ic += mc;
                ici += 1;
            }
            pc += kc;
            pci += 1;
        }
        jc += nc;
    }
}

/// Shared entry: handles degenerate shapes and the serial/banded split.
#[allow(clippy::too_many_arguments)]
fn run<E: GemmElem>(
    plan: &GemmPlan,
    m: usize,
    k: usize,
    n: usize,
    a: MatRef<'_, E>,
    b: MatRef<'_, E>,
    out: &mut [E::Acc],
    pool: &Pool,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(E::Acc::default());
        return;
    }
    let min_rows = 4 * plan.cfg.mr;
    if pool.threads() == 1 || m * n * k < PAR_MIN_MACS {
        gemm_blocked(plan, m, k, n, ASource::View(a), b, out);
    } else {
        pool.parallel_row_chunks(out, n, min_rows, |first_row, band| {
            let rows = band.len() / n;
            gemm_blocked(plan, rows, k, n, ASource::View(a.band(first_row)), b, band);
        });
    }
}

/// `out[m,n] = a[m,k] × b[k,n]`, all row-major, using the process-wide
/// [`active_plan`]. For `i8` operands `out` receives the exact `i32`
/// accumulation, bitwise identical across SIMD levels and thread counts.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
///
/// # Examples
///
/// ```
/// use cq_par::{gemm, Pool};
/// let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
/// let b = [7.0f32, 8.0, 9.0, 10.0, 11.0, 12.0]; // 3x2
/// let mut out = [0.0f32; 4];
/// gemm(2, 3, 2, &a, &b, &mut out, Pool::global());
/// assert_eq!(out, [58.0, 64.0, 139.0, 154.0]);
/// ```
pub fn gemm<E: GemmElem>(
    m: usize,
    k: usize,
    n: usize,
    a: &[E],
    b: &[E],
    out: &mut [E::Acc],
    pool: &Pool,
) {
    gemm_with_plan(active_plan(), m, k, n, a, b, out, pool);
}

/// [`gemm`] over `i8` codes with exact `i32` accumulation.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
///
/// # Examples
///
/// ```
/// use cq_par::{gemm_i8, Pool};
/// let a = [1i8, 2, 3, 4, 5, 6]; // 2x3
/// let b = [7i8, 8, 9, 10, 11, 12]; // 3x2
/// let mut out = [0i32; 4];
/// gemm_i8(2, 3, 2, &a, &b, &mut out, Pool::global());
/// assert_eq!(out, [58, 64, 139, 154]);
/// ```
pub fn gemm_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], out: &mut [i32], pool: &Pool) {
    gemm(m, k, n, a, b, out, pool);
}

/// [`gemm`] with an explicit plan (used by the autotuner and parity tests).
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_plan<E: GemmElem>(
    plan: &GemmPlan,
    m: usize,
    k: usize,
    n: usize,
    a: &[E],
    b: &[E],
    out: &mut [E::Acc],
    pool: &Pool,
) {
    assert_eq!(a.len(), m * k, "gemm: a length");
    assert_eq!(b.len(), k * n, "gemm: b length");
    assert_eq!(out.len(), m * n, "gemm: out length");
    run(
        plan,
        m,
        k,
        n,
        MatRef::row_major(a, k),
        MatRef::row_major(b, n),
        out,
        pool,
    );
}

/// `out[m,n] = aᵀ × b` for `a[k,m]`, `b[k,n]` (the weight-gradient shape).
///
/// Aᵀ is packed directly from its `[k, m]` storage (column stride `m`)
/// by the panel packer — no transpose materialization.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn gemm_at<E: GemmElem>(
    m: usize,
    k: usize,
    n: usize,
    a: &[E],
    b: &[E],
    out: &mut [E::Acc],
    pool: &Pool,
) {
    gemm_at_with_plan(active_plan(), m, k, n, a, b, out, pool);
}

/// [`gemm_at`] with an explicit plan.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_at_with_plan<E: GemmElem>(
    plan: &GemmPlan,
    m: usize,
    k: usize,
    n: usize,
    a: &[E],
    b: &[E],
    out: &mut [E::Acc],
    pool: &Pool,
) {
    assert_eq!(a.len(), k * m, "gemm_at: a length");
    assert_eq!(b.len(), k * n, "gemm_at: b length");
    assert_eq!(out.len(), m * n, "gemm_at: out length");
    let at = MatRef::transposed(a, m);
    run(plan, m, k, n, at, MatRef::row_major(b, n), out, pool);
}

/// `out[m,n] = a × bᵀ` for `a[m,k]`, `b[n,k]` (the neuron-gradient shape,
/// and the Dense forward layout: weights stored `[out, in]`).
///
/// Bᵀ is packed directly from its `[n, k]` storage (column stride `k`)
/// by the panel packer — no transpose materialization.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn gemm_bt<E: GemmElem>(
    m: usize,
    k: usize,
    n: usize,
    a: &[E],
    b: &[E],
    out: &mut [E::Acc],
    pool: &Pool,
) {
    gemm_bt_with_plan(active_plan(), m, k, n, a, b, out, pool);
}

/// [`gemm_bt`] with an explicit plan.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bt_with_plan<E: GemmElem>(
    plan: &GemmPlan,
    m: usize,
    k: usize,
    n: usize,
    a: &[E],
    b: &[E],
    out: &mut [E::Acc],
    pool: &Pool,
) {
    assert_eq!(a.len(), m * k, "gemm_bt: a length");
    assert_eq!(b.len(), n * k, "gemm_bt: b length");
    assert_eq!(out.len(), m * n, "gemm_bt: out length");
    let bt = MatRef::transposed(b, k);
    run(plan, m, k, n, MatRef::row_major(a, k), bt, out, pool);
}

/// A's panels packed once for reuse across many GEMMs with the same left
/// operand — the im2col conv paths multiply one weight matrix against a
/// per-image patch matrix, so packing W per *call* wastes `O(m·k)` work
/// per image.
///
/// Built by [`PackedA::pack`] / [`PackedA::pack_transposed`] and consumed
/// by [`gemm_prepacked`]. The panel grid (KC × MC blocks) follows the
/// plan used at pack time, so prepacked results are bitwise identical to
/// [`gemm_with_plan`] with the same plan.
pub struct PackedA<E: GemmElem> {
    plan: GemmPlan,
    m: usize,
    k: usize,
    n_ic: usize,
    data: Vec<E::Packed>,
    /// Start of each `(pci, ici)` block in `data`, plus an end sentinel.
    offsets: Vec<usize>,
}

impl<E: GemmElem> PackedA<E> {
    /// Packs row-major `a[m, k]`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k`.
    pub fn pack(plan: &GemmPlan, m: usize, k: usize, a: &[E]) -> Self {
        assert_eq!(a.len(), m * k, "PackedA::pack: a length");
        Self::pack_view(plan, m, k, MatRef::row_major(a, k))
    }

    /// Packs `aᵀ` for `a` stored `[k, m]` (the grad-input weight shape).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != k * m`.
    pub fn pack_transposed(plan: &GemmPlan, m: usize, k: usize, a: &[E]) -> Self {
        assert_eq!(a.len(), k * m, "PackedA::pack_transposed: a length");
        Self::pack_view(plan, m, k, MatRef::transposed(a, m))
    }

    fn pack_view(plan: &GemmPlan, m: usize, k: usize, a: MatRef<'_, E>) -> Self {
        let (mr, kc, mc) = (plan.cfg.mr, plan.cfg.kc, plan.cfg.mc);
        let n_pc = k.div_ceil(kc);
        let n_ic = m.div_ceil(mc);
        let mut data = Vec::new();
        let mut offsets = Vec::with_capacity(n_pc * n_ic + 1);
        for pci in 0..n_pc {
            let pc = pci * kc;
            let kcb = kc.min(k - pc);
            for ici in 0..n_ic {
                let ic = ici * mc;
                let mcb = mc.min(m - ic);
                offsets.push(data.len());
                let len = mcb.div_ceil(mr) * kcb.div_ceil(E::KG) * E::KG * mr;
                data.resize(data.len() + len, E::Packed::default());
                let start = data.len() - len;
                pack_a(a, ic, pc, mcb, kcb, mr, &mut data[start..]);
            }
        }
        offsets.push(data.len());
        PackedA {
            plan: *plan,
            m,
            k,
            n_ic,
            data,
            offsets,
        }
    }

    /// Rows of the packed operand.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Reduction length of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Panels of block `(pci, ici)`.
    fn block(&self, pci: usize, ici: usize) -> &[E::Packed] {
        let i = pci * self.n_ic + ici;
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Serial GEMM reusing pre-packed A panels: `out[m,n] = A × b[k,n]` with
/// `(m, k)` and the plan taken from `packed`. Bitwise identical to
/// [`gemm_with_plan`] with the same plan on 1 thread.
///
/// Serial by design: the conv paths call it per image *inside* a pool
/// fan-out over the batch.
///
/// # Panics
///
/// Panics if slice lengths disagree with the packed dimensions.
pub fn gemm_prepacked<E: GemmElem>(packed: &PackedA<E>, n: usize, b: &[E], out: &mut [E::Acc]) {
    let (m, k) = (packed.m, packed.k);
    assert_eq!(b.len(), k * n, "gemm_prepacked: b length");
    assert_eq!(out.len(), m * n, "gemm_prepacked: out length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(E::Acc::default());
        return;
    }
    gemm_blocked(
        &packed.plan,
        m,
        k,
        n,
        ASource::Packed(packed),
        MatRef::row_major(b, n),
        out,
    );
}

/// Blocked transpose: `dst[cols,rows] = srcᵀ` for row-major `src[rows,cols]`.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn transpose<T: Copy>(src: &[T], rows: usize, cols: usize, dst: &mut [T]) {
    assert_eq!(src.len(), rows * cols, "transpose: src length");
    assert_eq!(dst.len(), rows * cols, "transpose: dst length");
    const B: usize = 32;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + B).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + B).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microkernel::SUPPORTED_TILES;
    use crate::tune::TileConfig;
    use proptest::prelude::*;
    use std::fmt::Debug;

    /// What the element-generic suite needs beyond [`GemmElem`].
    trait TestElem:
        GemmElem<Acc: Debug + PartialEq, Packed: Debug + PartialEq> + Debug + PartialEq
    {
        /// An output value every GEMM must overwrite.
        const STALE: Self::Acc;
        /// A panel value every packer must overwrite.
        const POISON: Self::Packed;
        /// Whether a panel slot still holds [`TestElem::POISON`].
        fn poisoned(p: Self::Packed) -> bool;
        /// An operand drawn from an LCG state.
        fn from_lcg(s: u32) -> Self;
    }

    impl TestElem for f32 {
        const STALE: f32 = -1.0;
        const POISON: f32 = f32::NAN;
        fn poisoned(p: f32) -> bool {
            p.is_nan()
        }
        /// Exact-in-f32 values (1/16 steps, |v| < 8) so every association
        /// — and even fused multiply-adds — produces the same bits, making
        /// tiled results comparable to naive with equality.
        fn from_lcg(s: u32) -> f32 {
            ((s >> 24) as f32 - 128.0) / 16.0
        }
    }

    impl TestElem for i8 {
        const STALE: i32 = -1;
        const POISON: i16 = i16::MIN;
        fn poisoned(p: i16) -> bool {
            p == Self::POISON
        }
        /// The full i8 range including -128/127: integer accumulation is
        /// exact, so no value restriction is needed.
        fn from_lcg(s: u32) -> i8 {
            (s >> 24) as i8
        }
    }

    fn fill<E: TestElem>(len: usize, seed: u32) -> Vec<E> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                E::from_lcg(s)
            })
            .collect()
    }

    /// Ascending-k oracle with the element's own product and accumulate.
    fn naive<E: TestElem>(m: usize, k: usize, n: usize, a: &[E], b: &[E]) -> Vec<E::Acc> {
        let mut out = vec![E::Acc::default(); m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = E::Acc::default();
                for p in 0..k {
                    acc =
                        E::accumulate(acc, E::product(a[i * k + p].widen(), b[p * n + j].widen()));
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn transposed<T: Copy + Default>(src: &[T], rows: usize, cols: usize) -> Vec<T> {
        let mut dst = vec![T::default(); rows * cols];
        transpose(src, rows, cols, &mut dst);
        dst
    }

    /// Plans covering all supported tiles, degenerate blocking (every
    /// block boundary exercised; odd `kc` leaves an i8 k-pair tail in
    /// every block) and the active level's defaults.
    fn test_plans() -> Vec<GemmPlan> {
        let mut levels = vec![SimdLevel::Scalar];
        let detected = crate::microkernel::simd_level();
        if detected != SimdLevel::Scalar {
            levels.push(detected);
        }
        let mut plans = Vec::new();
        for level in levels {
            for &(mr, nr) in &SUPPORTED_TILES {
                // Tiny blocks: many KC/MC/NC iterations even on small inputs.
                plans.push(
                    GemmPlan::new(
                        level,
                        TileConfig {
                            mr,
                            nr,
                            kc: 3,
                            mc: mr,
                            nc: nr,
                        },
                    )
                    .unwrap(),
                );
                // Moderate blocks: partial edge blocks on test shapes.
                plans.push(
                    GemmPlan::new(
                        level,
                        TileConfig {
                            mr,
                            nr,
                            kc: 16,
                            mc: 2 * mr + 1,
                            nc: 2 * nr + 3,
                        },
                    )
                    .unwrap(),
                );
            }
            plans.push(GemmPlan::new(level, crate::tune::default_profile(level).1).unwrap());
        }
        plans
    }

    fn awkward_shapes<E: TestElem>() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 8, 8),
            (5, 7, 9),
            (13, 1, 17),
            (1, 64, 1),
            (33, 12, 41),
            (8, 100, 3),
        ] {
            let a = fill::<E>(m * k, 1 + m as u32);
            let b = fill::<E>(k * n, 99 + n as u32);
            let mut out = vec![E::Acc::default(); m * n];
            for threads in [1, 4] {
                gemm(m, k, n, &a, &b, &mut out, &Pool::new(threads));
                assert_eq!(out, naive(m, k, n, &a, &b), "{m}x{k}x{n} t{threads}");
            }
        }
    }

    /// Every plan — scalar and detected level, all tiles, odd/even kc —
    /// matches naive with equality (exact inputs; for i8 this is the
    /// bitwise parity acceptance criterion).
    fn across_plans<E: TestElem>() {
        for &(m, k, n) in &[(5usize, 7usize, 9usize), (17, 23, 19), (33, 40, 31)] {
            let a = fill::<E>(m * k, 2 + m as u32);
            let b = fill::<E>(k * n, 7 + n as u32);
            let want = naive(m, k, n, &a, &b);
            for plan in test_plans() {
                let mut out = vec![E::STALE; m * n];
                gemm_with_plan(&plan, m, k, n, &a, &b, &mut out, &Pool::new(1));
                assert_eq!(out, want, "{m}x{k}x{n} plan {}", plan.describe());
            }
        }
    }

    fn zero_k<E: TestElem>() {
        let mut out = vec![E::STALE; 6];
        gemm::<E>(2, 0, 3, &[], &[], &mut out, &Pool::new(2));
        assert_eq!(out, vec![E::Acc::default(); 6]);
    }

    fn empty_output<E: TestElem>() {
        let mut out = vec![];
        gemm::<E>(0, 5, 3, &[], &fill(15, 3), &mut out, &Pool::new(2));
        gemm::<E>(3, 5, 0, &fill(15, 3), &[], &mut out, &Pool::new(2));
    }

    fn transposed_explicit<E: TestElem>() {
        let (m, k, n) = (9, 11, 7);
        let a_t = fill::<E>(k * m, 5); // a stored as [k, m]
        let b = fill::<E>(k * n, 6);
        let b_t = fill::<E>(n * k, 7); // b stored as [n, k]
        let a = fill::<E>(m * k, 8);
        let pool = Pool::new(2);

        let mut got = vec![E::Acc::default(); m * n];
        gemm_at(m, k, n, &a_t, &b, &mut got, &pool);
        assert_eq!(got, naive(m, k, n, &transposed(&a_t, k, m), &b));

        gemm_bt(m, k, n, &a, &b_t, &mut got, &pool);
        assert_eq!(got, naive(m, k, n, &a, &transposed(&b_t, n, k)));
    }

    fn transposed_across_plans<E: TestElem>() {
        let (m, k, n) = (13, 19, 11);
        let a_t = fill::<E>(k * m, 15);
        let b = fill::<E>(k * n, 16);
        let b_t = fill::<E>(n * k, 17);
        let a = fill::<E>(m * k, 18);
        let want_at = naive(m, k, n, &transposed(&a_t, k, m), &b);
        let want_bt = naive(m, k, n, &a, &transposed(&b_t, n, k));
        for plan in test_plans() {
            let mut got = vec![E::Acc::default(); m * n];
            gemm_at_with_plan(&plan, m, k, n, &a_t, &b, &mut got, &Pool::new(1));
            assert_eq!(got, want_at, "gemm_at plan {}", plan.describe());
            gemm_bt_with_plan(&plan, m, k, n, &a, &b_t, &mut got, &Pool::new(1));
            assert_eq!(got, want_bt, "gemm_bt plan {}", plan.describe());
        }
    }

    fn prepacked_bitwise<E: TestElem>() {
        for plan in test_plans() {
            let (m, k) = (21, 29);
            let a = fill::<E>(m * k, 31);
            let a_t = fill::<E>(k * m, 32);
            let packed = PackedA::pack(&plan, m, k, &a);
            let packed_t = PackedA::pack_transposed(&plan, m, k, &a_t);
            assert_eq!((packed.m(), packed.k()), (m, k));
            for n in [1usize, 8, 13] {
                let b = fill::<E>(k * n, 40 + n as u32);
                let mut want = vec![E::Acc::default(); m * n];
                gemm_with_plan(&plan, m, k, n, &a, &b, &mut want, &Pool::new(1));
                let mut got = vec![E::STALE; m * n];
                gemm_prepacked(&packed, n, &b, &mut got);
                assert_eq!(got, want, "prepacked n={n} plan {}", plan.describe());

                gemm_at_with_plan(&plan, m, k, n, &a_t, &b, &mut want, &Pool::new(1));
                gemm_prepacked(&packed_t, n, &b, &mut got);
                assert_eq!(got, want, "prepacked_t n={n} plan {}", plan.describe());
            }
        }
    }

    fn prepacked_degenerate<E: TestElem>() {
        let plan = *active_plan();
        let packed = PackedA::<E>::pack(&plan, 0, 5, &[]);
        gemm_prepacked(&packed, 3, &fill(15, 3), &mut []);
        let packed = PackedA::<E>::pack(&plan, 2, 0, &[]);
        let mut out = vec![E::STALE; 6];
        gemm_prepacked(&packed, 3, &[], &mut out);
        assert_eq!(out, vec![E::Acc::default(); 6]);
    }

    fn parallel_matches_serial<E: TestElem>() {
        let (m, k, n) = (70, 91, 65); // > PAR_MIN_MACS, odd k, all edges in play
        let a = fill::<E>(m * k, 11);
        let b = fill::<E>(k * n, 12);
        let mut serial = vec![E::Acc::default(); m * n];
        let mut par = vec![E::Acc::default(); m * n];
        gemm(m, k, n, &a, &b, &mut serial, &Pool::new(1));
        gemm(m, k, n, &a, &b, &mut par, &Pool::new(8));
        assert_eq!(serial, par);
    }

    /// Checks one packed block against the panel layout, for A
    /// (`lanes` = rows, `w` = MR) and B (`lanes` = columns, `w` = NR)
    /// alike: `dst[lb·kp·w + (p/G)·w·G + l·G + p%G]` is `want(lb·w + l,
    /// p)` inside the block, exactly zero in padded lanes (past the last
    /// lane, past `kcb`), and nothing past the panels is written.
    fn check_panels<E: TestElem>(
        dst: &[E::Packed],
        (lanes, kcb, w): (usize, usize, usize),
        want: impl Fn(usize, usize) -> E::Packed,
    ) -> Result<(), TestCaseError> {
        let g = E::KG;
        let kp = kcb.div_ceil(g) * g;
        let len = lanes.div_ceil(w) * kp * w;
        for lb in 0..lanes.div_ceil(w) {
            for p in 0..kp {
                for l in 0..w {
                    let got = dst[lb * kp * w + (p / g) * w * g + l * g + p % g];
                    let lane = lb * w + l;
                    if lane < lanes && p < kcb {
                        prop_assert_eq!(got, want(lane, p), "lane={} p={}", lane, p);
                    } else {
                        prop_assert_eq!(got, E::Packed::default(), "pad lane={} p={}", lane, p);
                    }
                }
            }
        }
        prop_assert!(
            dst[len..].iter().all(|&x| E::poisoned(x)),
            "wrote past the panels"
        );
        Ok(())
    }

    /// A block `(start, len)` of `0..extent`, placed by two fractions and
    /// at least `min_len` long: it may end anywhere, as `gemm_blocked`'s MC,
    /// NC and KC blocks do, not only at the matrix edge.
    fn span(extent: usize, (f0, f1): (f32, f32), min_len: usize) -> (usize, usize) {
        let start = ((extent as f32 * f0) as usize).min(extent - min_len);
        let len = ((extent - start) as f32 * f1).ceil() as usize;
        (start, len.clamp(min_len, extent - start))
    }

    /// A panels from every view the GEMMs pack: row-major (`gemm`,
    /// `gemm_bt`, [`PackedA::pack`]), transposed (`gemm_at`,
    /// [`PackedA::pack_transposed`]) and either one banded `r0` rows
    /// down, as [`run`] hands each band. Blocks start and end anywhere;
    /// ragged last panels, several k-groups and (for i8) odd `kcb` all
    /// occur, and every slot starts as `POISON`.
    fn pack_a_layout<E: TestElem>(
        (rows, k): (usize, usize),
        (mri, transposed_view, r0): (usize, bool, usize),
        (fi, fm, fp, fk): (f32, f32, f32, f32),
        seed: u32,
    ) -> Result<(), TestCaseError> {
        let mr = SUPPORTED_TILES[mri].0;
        // Logical A is `[r0 + rows, k]`; the view sees rows `r0..`.
        let a = fill::<E>((r0 + rows) * k, seed);
        let a_t = transposed(&a, r0 + rows, k);
        let view = if transposed_view {
            MatRef::transposed(&a_t, r0 + rows)
        } else {
            MatRef::row_major(&a, k)
        }
        .band(r0);
        let (i0, mcb) = span(rows, (fi, fm), 0);
        let (p0, kcb) = span(k, (fp, fk), 1);
        let kp = kcb.div_ceil(E::KG) * E::KG;
        let mut dst = vec![E::POISON; (mcb.div_ceil(mr) + 1) * kp * mr];
        pack_a(view, i0, p0, mcb, kcb, mr, &mut dst);
        check_panels::<E>(&dst, (mcb, kcb, mr), |i, p| {
            a[(r0 + i0 + i) * k + p0 + p].widen()
        })
    }

    /// B panels from both views the GEMMs pack: row-major (`gemm`,
    /// `gemm_at`, the conv forward and input gradient) and transposed
    /// (`gemm_bt`, the conv weight gradient), from any `(p0, j0)`
    /// origin as `gemm_blocked` packs when `pc` or `jc` is above 0.
    fn pack_b_layout<E: TestElem>(
        (k, n): (usize, usize),
        (nri, transposed_view): (usize, bool),
        (fp, fk, fj, fn_): (f32, f32, f32, f32),
        seed: u32,
    ) -> Result<(), TestCaseError> {
        let nr = SUPPORTED_TILES[nri].1;
        let b = fill::<E>(k * n, seed);
        // The same logical `[k, n]` matrix stored `[n, k]` for `gemm_bt`.
        let b_t = transposed(&b, k, n);
        let view = if transposed_view {
            MatRef::transposed(&b_t, k)
        } else {
            MatRef::row_major(&b, n)
        };
        let (p0, kcb) = span(k, (fp, fk), 1);
        let (j0, ncb) = span(n, (fj, fn_), 0);
        let kp = kcb.div_ceil(E::KG) * E::KG;
        let mut dst = vec![E::POISON; (ncb.div_ceil(nr) + 1) * kp * nr];
        pack_b(view, p0, j0, kcb, ncb, nr, &mut dst);
        check_panels::<E>(&dst, (ncb, kcb, nr), |j, p| {
            b[(p0 + p) * n + j0 + j].widen()
        })
    }

    /// Blocked GEMM equals naive on arbitrary small shapes for every plan
    /// (exact inputs → exact equality).
    fn matches_naive<E: TestElem>(
        (m, k, n): (usize, usize, usize),
        seed: u32,
    ) -> Result<(), TestCaseError> {
        let a = fill::<E>(m * k, seed);
        let b = fill::<E>(k * n, seed ^ 0xabcd);
        let want = naive(m, k, n, &a, &b);
        for plan in test_plans() {
            let mut out = vec![E::STALE; m * n];
            gemm_with_plan(&plan, m, k, n, &a, &b, &mut out, &Pool::new(1));
            prop_assert_eq!(&out, &want, "{}x{}x{} plan {}", m, k, n, plan.describe());
        }
        Ok(())
    }

    /// The `#[test]` entry points of every element-generic check above,
    /// instantiated for one element type.
    macro_rules! suite {
        ($e:ty) => {
            #[test]
            fn matches_naive_on_awkward_shapes() {
                awkward_shapes::<$e>();
            }

            #[test]
            fn matches_naive_across_plans() {
                across_plans::<$e>();
            }

            #[test]
            fn zero_k_yields_zero_output() {
                zero_k::<$e>();
            }

            #[test]
            fn empty_output_is_noop() {
                empty_output::<$e>();
            }

            #[test]
            fn transposed_variants_match_explicit_transpose() {
                transposed_explicit::<$e>();
            }

            #[test]
            fn transposed_variants_match_across_plans() {
                transposed_across_plans::<$e>();
            }

            #[test]
            fn prepacked_matches_gemm_bitwise() {
                prepacked_bitwise::<$e>();
            }

            #[test]
            fn prepacked_degenerate_shapes() {
                prepacked_degenerate::<$e>();
            }

            #[test]
            fn large_gemm_parallel_matches_serial() {
                parallel_matches_serial::<$e>();
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(48))]

                #[test]
                fn pack_a_layout_invariant(
                    shape in (0usize..20, 1usize..24),
                    view in (0usize..SUPPORTED_TILES.len(), any::<bool>(), 0usize..5),
                    block in (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
                    seed in 0u32..1000,
                ) {
                    pack_a_layout::<$e>(shape, view, block, seed)?;
                }

                #[test]
                fn pack_b_layout_invariant(
                    shape in (1usize..24, 0usize..40),
                    view in (0usize..SUPPORTED_TILES.len(), any::<bool>()),
                    block in (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
                    seed in 0u32..1000,
                ) {
                    pack_b_layout::<$e>(shape, view, block, seed)?;
                }

                #[test]
                fn gemm_matches_naive_proptest(
                    shape in (0usize..12, 0usize..12, 0usize..12),
                    seed in 0u32..1000,
                ) {
                    matches_naive::<$e>(shape, seed)?;
                }
            }
        };
    }

    suite!(f32);

    /// The i8 instantiation; `i8` in every test path keeps the cases
    /// under the forced-scalar CI leg's `i8` name filter.
    mod gemm_i8 {
        use super::*;

        suite!(i8);

        /// Extreme magnitudes: every element ±128/±127 for maximal
        /// partial products — guards the `pmaddwd` saturation analysis
        /// (no i16 saturation can occur with sign-extended i8 pairs).
        #[test]
        fn extreme_values_stay_exact() {
            let (m, k, n) = (8, 33, 16);
            let a: Vec<i8> = (0..m * k)
                .map(|i| if i % 2 == 0 { -128 } else { 127 })
                .collect();
            let b: Vec<i8> = (0..k * n)
                .map(|i| if i % 3 == 0 { 127 } else { -128 })
                .collect();
            let want = naive(m, k, n, &a, &b);
            for plan in test_plans() {
                let mut out = vec![0i32; m * n];
                gemm_with_plan(&plan, m, k, n, &a, &b, &mut out, &Pool::new(1));
                assert_eq!(out, want, "plan {}", plan.describe());
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let src = fill::<f32>(5 * 9, 42);
        let t = transposed(&src, 5, 9);
        assert_eq!(src, transposed(&t, 9, 5));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Transpose on ragged/empty/single-row shapes: element map plus
        /// double-transpose identity.
        #[test]
        fn transpose_properties(
            (rows, cols) in (0usize..40, 0usize..40),
            seed in 0u32..1000,
        ) {
            let src = fill::<f32>(rows * cols, seed);
            let mut dst = vec![f32::NAN; rows * cols];
            transpose(&src, rows, cols, &mut dst);
            for r in 0..rows {
                for c in 0..cols {
                    prop_assert_eq!(dst[c * rows + r], src[r * cols + c]);
                }
            }
            let mut back = vec![f32::NAN; rows * cols];
            transpose(&dst, cols, rows, &mut back);
            prop_assert_eq!(back, src);
        }
    }
}
