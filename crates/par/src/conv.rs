//! im2col lowering: 2-D convolution (forward and both gradients) as GEMM.
//!
//! For one image, `im2col` unrolls every receptive field into a column of
//! a `[C·KH·KW, OH·OW]` patch matrix. The three convolution passes are
//! then single GEMMs per image:
//!
//! * forward:      `out = W[F, C·KH·KW] × cols`
//! * grad-input:   `cols_g = Wᵀ × g[F, OH·OW]`, then `col2im` scatter-add
//! * grad-weight:  `ΔW += g × colsᵀ`
//!
//! Memory cost: one patch matrix of `C·KH·KW·OH·OW` floats per in-flight
//! image (`KH·KW` × the image itself) — the classic im2col trade of memory
//! for GEMM-shaped compute. Batches parallelize across the [`Pool`] with
//! one patch buffer per worker; the batch-1 case falls back to the
//! parallel GEMM itself.

use crate::gemm::{gemm, gemm_at, gemm_bt, gemm_prepacked, GemmElem, PackedA};
use crate::pool::Pool;
use crate::tune::active_plan;

/// Shape bundle for one convolution, with all derived sizes precomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub c: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Output channels (filters).
    pub f: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (both spatial dims).
    pub stride: usize,
    /// Zero padding (every border).
    pub padding: usize,
    /// Output height.
    pub oh: usize,
    /// Output width.
    pub ow: usize,
}

impl ConvShape {
    /// Rows of the patch matrix (`C·KH·KW`).
    pub fn col_rows(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Columns of the patch matrix (`OH·OW`).
    pub fn col_cols(&self) -> usize {
        self.oh * self.ow
    }

    /// Elements in one input image (`C·H·W`).
    pub fn image_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Elements in one output image (`F·OH·OW`).
    pub fn out_len(&self) -> usize {
        self.f * self.oh * self.ow
    }

    /// Valid output-x range `[lo, hi)` for kernel column `kx` (positions
    /// whose input x lands inside the unpadded image).
    fn ox_range(&self, kx: usize) -> (usize, usize) {
        let s = self.stride as isize;
        let off = kx as isize - self.padding as isize; // ix = ox*s + off
        let lo = if off < 0 {
            ((-off + s - 1) / s) as usize
        } else {
            0
        };
        let hi = if off >= self.w as isize {
            0
        } else {
            (((self.w as isize - off + s - 1) / s) as usize).min(self.ow)
        };
        (lo.min(self.ow), hi.max(lo.min(self.ow)))
    }

    /// Valid input y (if any) for output row `oy`, kernel row `ky`.
    fn iy(&self, oy: usize, ky: usize) -> Option<usize> {
        let iy = (oy * self.stride + ky) as isize - self.padding as isize;
        (iy >= 0 && iy < self.h as isize).then_some(iy as usize)
    }
}

/// Unrolls one image (`[C, H, W]`) into the patch matrix `cols`
/// (`[C·KH·KW, OH·OW]`), zero-filling padded positions.
///
/// Generic over the element type (pure data movement): the f32 path and
/// the dequantization-free i8 path of [`conv2d`] share this lowering.
///
/// # Panics
///
/// Panics if slice lengths disagree with `shape`.
pub fn im2col<T: Copy + Default>(shape: &ConvShape, image: &[T], cols: &mut [T]) {
    assert_eq!(image.len(), shape.image_len(), "im2col: image length");
    assert_eq!(
        cols.len(),
        shape.col_rows() * shape.col_cols(),
        "im2col: cols length"
    );
    let (s, w, ow) = (shape.stride, shape.w, shape.ow);
    let mut rows = cols.chunks_exact_mut(shape.col_cols());
    for ci in 0..shape.c {
        for ky in 0..shape.kh {
            for kx in 0..shape.kw {
                let row = rows.next().expect("col_rows chunks");
                let (ox_lo, ox_hi) = shape.ox_range(kx);
                let off = kx as isize - shape.padding as isize;
                for oy in 0..shape.oh {
                    let seg = &mut row[oy * ow..(oy + 1) * ow];
                    match shape.iy(oy, ky) {
                        None => seg.fill(T::default()),
                        Some(iy) => {
                            seg[..ox_lo].fill(T::default());
                            seg[ox_hi..].fill(T::default());
                            let base = (ci * shape.h + iy) * w;
                            if s == 1 && ox_hi > ox_lo {
                                let ix_lo = (ox_lo as isize + off) as usize;
                                seg[ox_lo..ox_hi].copy_from_slice(
                                    &image[base + ix_lo..base + ix_lo + (ox_hi - ox_lo)],
                                );
                            } else {
                                for (ox, dst) in seg[ox_lo..ox_hi].iter_mut().enumerate() {
                                    let ix = ((ox + ox_lo) * s) as isize + off;
                                    *dst = image[base + ix as usize];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Scatter-adds a patch matrix back into one image: the adjoint of
/// [`im2col`], used by the input-gradient pass.
///
/// # Panics
///
/// Panics if slice lengths disagree with `shape`.
pub fn col2im_add(shape: &ConvShape, cols: &[f32], image: &mut [f32]) {
    assert_eq!(image.len(), shape.image_len(), "col2im: image length");
    assert_eq!(
        cols.len(),
        shape.col_rows() * shape.col_cols(),
        "col2im: cols length"
    );
    let (s, w, ow) = (shape.stride, shape.w, shape.ow);
    let mut rows = cols.chunks_exact(shape.col_cols());
    for ci in 0..shape.c {
        for ky in 0..shape.kh {
            for kx in 0..shape.kw {
                let row = rows.next().expect("col_rows chunks");
                let (ox_lo, ox_hi) = shape.ox_range(kx);
                let off = kx as isize - shape.padding as isize;
                for oy in 0..shape.oh {
                    let Some(iy) = shape.iy(oy, ky) else { continue };
                    let base = (ci * shape.h + iy) * w;
                    let seg = &row[oy * ow..(oy + 1) * ow];
                    for (ox, &g) in seg[ox_lo..ox_hi].iter().enumerate() {
                        let ix = ((ox + ox_lo) * s) as isize + off;
                        image[base + ix as usize] += g;
                    }
                }
            }
        }
    }
}

/// Forward convolution: `out[N, F, OH, OW] = input[N, C, H, W] ⊛ weight`,
/// for any [`GemmElem`]. On `i8` codes `out` receives the exact `i32`
/// accumulation, bitwise identical across SIMD levels, thread counts and
/// batch-path choices; the caller applies the single `s_x·s_w` rescale
/// (see `cq_quant::intdomain`).
///
/// # Panics
///
/// Panics if slice lengths disagree with `shape`.
pub fn conv2d<E: GemmElem>(
    shape: &ConvShape,
    input: &[E],
    weight: &[E],
    out: &mut [E::Acc],
    pool: &Pool,
) {
    assert_eq!(input.len(), shape.n * shape.image_len(), "conv2d: input");
    assert_eq!(weight.len(), shape.f * shape.col_rows(), "conv2d: weight");
    assert_eq!(out.len(), shape.n * shape.out_len(), "conv2d: out");
    if shape.out_len() == 0 {
        return;
    }
    if shape.n > 1 {
        // The weight matrix is the left operand of every per-image GEMM:
        // pack its panels once and share them (PackedA is read-only) across
        // the image fan-out instead of repacking per image.
        let packed_w = PackedA::pack(active_plan(), shape.f, shape.col_rows(), weight);
        pool.parallel_row_chunks(out, shape.out_len(), 1, |first, band| {
            let mut cols = vec![E::default(); shape.col_rows() * shape.col_cols()];
            for (i, out_img) in band.chunks_exact_mut(shape.out_len()).enumerate() {
                let img = first + i;
                let image = &input[img * shape.image_len()..(img + 1) * shape.image_len()];
                im2col(shape, image, &mut cols);
                gemm_prepacked(&packed_w, shape.col_cols(), &cols, out_img);
            }
        });
    } else {
        let mut cols = vec![E::default(); shape.col_rows() * shape.col_cols()];
        im2col(shape, input, &mut cols);
        gemm(
            shape.f,
            shape.col_rows(),
            shape.col_cols(),
            weight,
            &cols,
            out,
            pool,
        );
    }
}

/// [`conv2d`] over `i8` codes with exact `i32` accumulation.
///
/// # Panics
///
/// Panics if slice lengths disagree with `shape`.
pub fn conv2d_i8(shape: &ConvShape, input: &[i8], weight: &[i8], out: &mut [i32], pool: &Pool) {
    conv2d(shape, input, weight, out, pool);
}

/// Input gradient: `gin[N, C, H, W]` from `grad_out[N, F, OH, OW]` and the
/// weights. `gin` is fully overwritten.
///
/// # Panics
///
/// Panics if slice lengths disagree with `shape`.
pub fn conv2d_grad_input(
    shape: &ConvShape,
    grad_out: &[f32],
    weight: &[f32],
    gin: &mut [f32],
    pool: &Pool,
) {
    assert_eq!(grad_out.len(), shape.n * shape.out_len(), "grad_input: g");
    assert_eq!(weight.len(), shape.f * shape.col_rows(), "grad_input: w");
    assert_eq!(gin.len(), shape.n * shape.image_len(), "grad_input: gin");
    gin.fill(0.0);
    if shape.out_len() == 0 || shape.image_len() == 0 {
        return;
    }
    if shape.n > 1 {
        // Wᵀ is the left operand of every per-image GEMM: pack its panels
        // once, straight from the [F, C·KH·KW] storage (strided packer —
        // no transpose materialization), shared across the fan-out.
        let packed_wt = PackedA::pack_transposed(active_plan(), shape.col_rows(), shape.f, weight);
        pool.parallel_row_chunks(gin, shape.image_len(), 1, |first, band| {
            let mut cols = vec![0.0f32; shape.col_rows() * shape.col_cols()];
            for (i, gin_img) in band.chunks_exact_mut(shape.image_len()).enumerate() {
                let img = first + i;
                let g = &grad_out[img * shape.out_len()..(img + 1) * shape.out_len()];
                // cols = Wᵀ[C·KH·KW, F] × g[F, OH·OW]
                gemm_prepacked(&packed_wt, shape.col_cols(), g, &mut cols);
                col2im_add(shape, &cols, gin_img);
            }
        });
    } else {
        let mut cols = vec![0.0f32; shape.col_rows() * shape.col_cols()];
        gemm_at(
            shape.col_rows(),
            shape.f,
            shape.col_cols(),
            weight,
            grad_out,
            &mut cols,
            pool,
        );
        col2im_add(shape, &cols, gin);
    }
}

/// Weight gradient: `gw[F, C, KH, KW]` from the input and `grad_out`,
/// summed over the batch. `gw` is fully overwritten.
///
/// The batch sum runs in image order for every thread count, so `gw` is
/// bitwise the serial result: workers compute the per-image terms
/// `g × colsᵀ` of disjoint image ranges, and the caller adds the terms
/// into `gw` one image after another, as the serial path does.
///
/// # Panics
///
/// Panics if slice lengths disagree with `shape`.
pub fn conv2d_grad_weight(
    shape: &ConvShape,
    input: &[f32],
    grad_out: &[f32],
    gw: &mut [f32],
    pool: &Pool,
) {
    assert_eq!(input.len(), shape.n * shape.image_len(), "grad_weight: x");
    assert_eq!(grad_out.len(), shape.n * shape.out_len(), "grad_weight: g");
    assert_eq!(gw.len(), shape.f * shape.col_rows(), "grad_weight: gw");
    gw.fill(0.0);
    if shape.out_len() == 0 || shape.col_rows() == 0 {
        return;
    }
    let term_len = gw.len();
    // term = g[F, OH·OW] × colsᵀ[OH·OW, C·KH·KW] for image `img`.
    let image_term = |img: usize, cols: &mut [f32], term: &mut [f32], inner_pool: &Pool| {
        let image = &input[img * shape.image_len()..(img + 1) * shape.image_len()];
        let g = &grad_out[img * shape.out_len()..(img + 1) * shape.out_len()];
        im2col(shape, image, cols);
        gemm_bt(
            shape.f,
            shape.col_cols(),
            shape.col_rows(),
            g,
            cols,
            term,
            inner_pool,
        );
    };
    let add_term = |gw: &mut [f32], term: &[f32]| {
        for (o, &t) in gw.iter_mut().zip(term) {
            *o += t;
        }
    };
    let cols_len = shape.col_rows() * shape.col_cols();
    if shape.n > 1 && pool.threads() > 1 {
        // The terms live in one buffer allocated here, one band per
        // worker. Worker-allocated buffers stayed in their threads'
        // malloc arenas and raised the process's peak RSS.
        let mut terms = vec![0.0f32; shape.n * term_len];
        let serial = Pool::new(1);
        pool.parallel_row_chunks(&mut terms, term_len, 1, |first, band| {
            let mut cols = vec![0.0f32; cols_len];
            for (i, term) in band.chunks_exact_mut(term_len).enumerate() {
                image_term(first + i, &mut cols, term, &serial);
            }
        });
        for term in terms.chunks_exact(term_len) {
            add_term(gw, term);
        }
    } else {
        let mut cols = vec![0.0f32; cols_len];
        let mut term = vec![0.0f32; term_len];
        for img in 0..shape.n {
            image_term(img, &mut cols, &mut term, pool);
            add_term(gw, &term);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn shape(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        f: usize,
        k: usize,
        stride: usize,
        padding: usize,
    ) -> ConvShape {
        let od = |input: usize| (input + 2 * padding).saturating_sub(k) / stride + 1;
        ConvShape {
            n,
            c,
            h,
            w,
            f,
            kh: k,
            kw: k,
            stride,
            padding,
            oh: od(h),
            ow: od(w),
        }
    }

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                ((s >> 24) as f32 - 128.0) / 16.0
            })
            .collect()
    }

    /// Direct (nested-loop) convolution as the test oracle.
    fn conv_oracle(sh: &ConvShape, input: &[f32], weight: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; sh.n * sh.out_len()];
        for ni in 0..sh.n {
            for fi in 0..sh.f {
                for oy in 0..sh.oh {
                    for ox in 0..sh.ow {
                        let mut acc = 0.0f32;
                        for ci in 0..sh.c {
                            for ky in 0..sh.kh {
                                let iy = (oy * sh.stride + ky) as isize - sh.padding as isize;
                                if iy < 0 || iy >= sh.h as isize {
                                    continue;
                                }
                                for kx in 0..sh.kw {
                                    let ix = (ox * sh.stride + kx) as isize - sh.padding as isize;
                                    if ix < 0 || ix >= sh.w as isize {
                                        continue;
                                    }
                                    acc += input[((ni * sh.c + ci) * sh.h + iy as usize) * sh.w
                                        + ix as usize]
                                        * weight[((fi * sh.c + ci) * sh.kh + ky) * sh.kw + kx];
                                }
                            }
                        }
                        out[((ni * sh.f + fi) * sh.oh + oy) * sh.ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_direct_convolution() {
        for &(n, c, h, w, f, k, s, p) in &[
            (
                1usize, 1usize, 4usize, 4usize, 1usize, 1usize, 1usize, 0usize,
            ),
            (2, 3, 8, 8, 4, 3, 1, 1),
            (1, 2, 7, 5, 3, 3, 2, 1),
            (3, 1, 6, 6, 2, 5, 1, 2),
            (2, 2, 5, 5, 2, 2, 2, 0),
        ] {
            let sh = shape(n, c, h, w, f, k, s, p);
            let input = fill(n * sh.image_len(), 3 + h as u32);
            let weight = fill(f * sh.col_rows(), 17 + k as u32);
            let mut out = vec![0.0f32; n * sh.out_len()];
            for threads in [1, 4] {
                conv2d(&sh, &input, &weight, &mut out, &Pool::new(threads));
                let want = conv_oracle(&sh, &input, &weight);
                for (got, want) in out.iter().zip(&want) {
                    assert!(
                        (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                        "n{n} c{c} h{h} w{w} f{f} k{k} s{s} p{p} t{threads}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn gradients_match_finite_difference() {
        let sh = shape(2, 2, 5, 5, 3, 3, 1, 1);
        let pool = Pool::new(2);
        let mut input = fill(sh.n * sh.image_len(), 5);
        let mut weight = fill(sh.f * sh.col_rows(), 6);
        // Loss = sum(out); dL/dout = 1.
        let gout = vec![1.0f32; sh.n * sh.out_len()];
        let mut gin = vec![0.0f32; input.len()];
        let mut gw = vec![0.0f32; weight.len()];
        conv2d_grad_input(&sh, &gout, &weight, &mut gin, &pool);
        conv2d_grad_weight(&sh, &input, &gout, &mut gw, &pool);

        let loss = |inp: &[f32], wt: &[f32]| -> f32 { conv_oracle(&sh, inp, wt).iter().sum() };
        let eps = 1e-2;
        for &idx in &[0usize, 13, 49, input.len() - 1] {
            let orig = input[idx];
            input[idx] = orig + eps;
            let lp = loss(&input, &weight);
            input[idx] = orig - eps;
            let lm = loss(&input, &weight);
            input[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gin[idx]).abs() < 1e-1,
                "gin[{idx}]: fd={fd} got={}",
                gin[idx]
            );
        }
        for &idx in &[0usize, 7, weight.len() - 1] {
            let orig = weight[idx];
            weight[idx] = orig + eps;
            let lp = loss(&input, &weight);
            weight[idx] = orig - eps;
            let lm = loss(&input, &weight);
            weight[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gw[idx]).abs() < 1e-1,
                "gw[{idx}]: fd={fd} got={}",
                gw[idx]
            );
        }
    }

    #[test]
    fn conv2d_i8_matches_integer_oracle_bitwise() {
        let fill_i8 = |len: usize, seed: u32| -> Vec<i8> {
            let mut s = seed;
            (0..len)
                .map(|_| {
                    s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                    (s >> 24) as i8
                })
                .collect()
        };
        let oracle = |sh: &ConvShape, input: &[i8], weight: &[i8]| -> Vec<i32> {
            let mut out = vec![0i32; sh.n * sh.out_len()];
            for ni in 0..sh.n {
                for fi in 0..sh.f {
                    for oy in 0..sh.oh {
                        for ox in 0..sh.ow {
                            let mut acc = 0i32;
                            for ci in 0..sh.c {
                                for ky in 0..sh.kh {
                                    let iy = (oy * sh.stride + ky) as isize - sh.padding as isize;
                                    if iy < 0 || iy >= sh.h as isize {
                                        continue;
                                    }
                                    for kx in 0..sh.kw {
                                        let ix =
                                            (ox * sh.stride + kx) as isize - sh.padding as isize;
                                        if ix < 0 || ix >= sh.w as isize {
                                            continue;
                                        }
                                        let iv = input[((ni * sh.c + ci) * sh.h + iy as usize)
                                            * sh.w
                                            + ix as usize]
                                            as i32;
                                        let wv = weight
                                            [((fi * sh.c + ci) * sh.kh + ky) * sh.kw + kx]
                                            as i32;
                                        acc = acc.wrapping_add(iv * wv);
                                    }
                                }
                            }
                            out[((ni * sh.f + fi) * sh.oh + oy) * sh.ow + ox] = acc;
                        }
                    }
                }
            }
            out
        };
        for &(n, c, h, w, f, k, s, p) in &[
            (
                1usize, 1usize, 4usize, 4usize, 1usize, 1usize, 1usize, 0usize,
            ),
            (2, 3, 8, 8, 4, 3, 1, 1),
            (1, 2, 7, 5, 3, 3, 2, 1),
            (3, 1, 6, 6, 2, 5, 1, 2),
        ] {
            let sh = shape(n, c, h, w, f, k, s, p);
            let input = fill_i8(n * sh.image_len(), 7 + h as u32);
            let weight = fill_i8(f * sh.col_rows(), 29 + k as u32);
            let want = oracle(&sh, &input, &weight);
            for threads in [1, 4] {
                let mut out = vec![0i32; n * sh.out_len()];
                conv2d_i8(&sh, &input, &weight, &mut out, &Pool::new(threads));
                assert_eq!(
                    out, want,
                    "n{n} c{c} h{h} w{w} f{f} k{k} s{s} p{p} t{threads}"
                );
            }
        }
    }

    #[test]
    fn results_are_bitwise_equal_across_thread_counts() {
        // Values with full 24-bit mantissas, so every product rounds and
        // a reassociated sum would show in the low bits.
        let fill_inexact = |len: usize, seed: u32| -> Vec<f32> {
            let mut s = seed;
            (0..len)
                .map(|_| {
                    s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                    ((s >> 8) as f32 / 16_777_216.0 - 0.5) * 3.0
                })
                .collect()
        };
        // Ragged shapes: batch sizes and filter counts that no thread
        // count divides evenly, mixed strides and paddings, and batch 1.
        for &(n, c, h, w, f, k, s, p) in &[
            (
                7usize, 3usize, 9usize, 7usize, 5usize, 3usize, 1usize, 1usize,
            ),
            (5, 2, 11, 6, 3, 2, 2, 0),
            (3, 1, 8, 8, 7, 5, 1, 2),
            (9, 3, 6, 6, 4, 3, 1, 1),
            (1, 4, 6, 5, 6, 3, 1, 1),
        ] {
            let sh = shape(n, c, h, w, f, k, s, p);
            let input = fill_inexact(n * sh.image_len(), 3 + n as u32);
            let weight = fill_inexact(f * sh.col_rows(), 5 + f as u32);
            let gout = fill_inexact(n * sh.out_len(), 7 + c as u32);
            let run = |threads: usize| -> [Vec<u32>; 3] {
                let pool = Pool::new(threads);
                let mut out = vec![0.0f32; n * sh.out_len()];
                let mut gin = vec![0.0f32; input.len()];
                let mut gw = vec![0.0f32; weight.len()];
                conv2d(&sh, &input, &weight, &mut out, &pool);
                conv2d_grad_input(&sh, &gout, &weight, &mut gin, &pool);
                conv2d_grad_weight(&sh, &input, &gout, &mut gw, &pool);
                [out, gin, gw].map(|v| v.iter().map(|x| x.to_bits()).collect())
            };
            let serial = run(1);
            for threads in 2..=4 {
                let [out, gin, gw] = run(threads);
                let tag = format!("n{n} c{c} h{h} w{w} f{f} k{k} s{s} p{p} t{threads}");
                assert_eq!(out, serial[0], "conv2d {tag}");
                assert_eq!(gin, serial[1], "conv2d_grad_input {tag}");
                assert_eq!(gw, serial[2], "conv2d_grad_weight {tag}");
            }
        }
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of an adjoint pair.
        let sh = shape(1, 2, 6, 5, 1, 3, 2, 1);
        let x = fill(sh.image_len(), 21);
        let y = fill(sh.col_rows() * sh.col_cols(), 22);
        let mut cols = vec![0.0f32; y.len()];
        im2col(&sh, &x, &mut cols);
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut back = vec![0.0f32; x.len()];
        col2im_add(&sh, &y, &mut back);
        let rhs: f32 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }
}
