//! Dense compute kernels: matrix multiply, 2-D convolution, pooling.
//!
//! These are the functional (bit-accurate) counterparts of the operations
//! the Cambricon-Q PE array executes (`MM`, `CONV`, vector ops in Table V of
//! the paper). The cycle-level models in `cq-accel` charge time and energy
//! for them; this module computes the actual values so training runs produce
//! real numbers.

use crate::backend::Backend;
use crate::error::TensorError;
use crate::tensor::Tensor;
use cq_par::Pool;

/// Hyper-parameters of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding added on every spatial border.
    pub padding: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams {
            stride: 1,
            padding: 0,
        }
    }
}

impl Conv2dParams {
    /// Creates parameters with the given stride and padding.
    ///
    /// # Examples
    ///
    /// ```
    /// use cq_tensor::ops::Conv2dParams;
    /// let p = Conv2dParams::new(2, 1);
    /// assert_eq!(p.output_dim(8, 3), 4);
    /// ```
    pub fn new(stride: usize, padding: usize) -> Self {
        Conv2dParams { stride, padding }
    }

    /// Output spatial size for an input size and kernel size.
    ///
    /// # Panics
    ///
    /// Panics on a zero stride; the conv ops reject one first.
    pub fn output_dim(&self, input: usize, kernel: usize) -> usize {
        (input + 2 * self.padding).saturating_sub(kernel) / self.stride + 1
    }
}

/// Matrix multiply: `a [m,k] × b [k,n] → [m,n]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either input is not rank 2 and
/// [`TensorError::ShapeMismatch`] if inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use cq_tensor::{Tensor, ops};
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
/// assert_eq!(ops::matmul(&a, &i)?, a);
/// # Ok::<(), cq_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    matmul_with(Backend::Fast, a, b)
}

/// [`matmul`] on an explicit [`Backend`].
///
/// # Errors
///
/// Same as [`matmul`].
pub fn matmul_with(backend: Backend, a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    check_rank2(a, "matmul")?;
    check_rank2(b, "matmul")?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul",
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    match backend {
        Backend::Fast => cq_par::gemm(m, k, n, ad, bd, od, Pool::global()),
        Backend::Naive => {
            // No zero-skip: `0·NaN` must stay NaN so non-finite operands
            // surface through TensorError::NonFinite checks downstream.
            for i in 0..m {
                for p in 0..k {
                    let av = ad[i * k + p];
                    let brow = &bd[p * n..(p + 1) * n];
                    let orow = &mut od[i * n..(i + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Matrix multiply with the left operand transposed: `aᵀ [k,m] × b [k,n] → [m,n]`.
///
/// Equivalent to `matmul(&a.transpose()?, b)` without materializing the
/// transpose; used for the weight-gradient pass `ΔW = Iᵀ·δ`.
///
/// # Errors
///
/// Same as [`matmul`].
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    matmul_at_with(Backend::Fast, a, b)
}

/// [`matmul_at`] on an explicit [`Backend`].
///
/// # Errors
///
/// Same as [`matmul`].
pub fn matmul_at_with(backend: Backend, a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    check_rank2(a, "matmul_at")?;
    check_rank2(b, "matmul_at")?;
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul_at",
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    match backend {
        Backend::Fast => cq_par::gemm_at(m, k, n, ad, bd, od, Pool::global()),
        Backend::Naive => {
            // No zero-skip (see matmul_with): NaN operands must propagate.
            for p in 0..k {
                let arow = &ad[p * m..(p + 1) * m];
                let brow = &bd[p * n..(p + 1) * n];
                for (i, &av) in arow.iter().enumerate() {
                    let orow = &mut od[i * n..(i + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Matrix multiply with the right operand transposed: `a [m,k] × bᵀ [n,k] → [m,n]`.
///
/// Used for the neuron-gradient pass `δˡ = δˡ⁺¹·Wᵀ`.
///
/// # Errors
///
/// Same as [`matmul`].
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    matmul_bt_with(Backend::Fast, a, b)
}

/// [`matmul_bt`] on an explicit [`Backend`].
///
/// # Errors
///
/// Same as [`matmul`].
pub fn matmul_bt_with(backend: Backend, a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    check_rank2(a, "matmul_bt")?;
    check_rank2(b, "matmul_bt")?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul_bt",
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    match backend {
        Backend::Fast => cq_par::gemm_bt(m, k, n, ad, bd, od, Pool::global()),
        Backend::Naive => {
            for i in 0..m {
                let arow = &ad[i * k..(i + 1) * k];
                for j in 0..n {
                    let brow = &bd[j * k..(j + 1) * k];
                    od[i * n + j] = arow.iter().zip(brow).map(|(&x, &y)| x * y).sum();
                }
            }
        }
    }
    Ok(out)
}

fn check_rank2(t: &Tensor, op: &'static str) -> Result<(), TensorError> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.rank(),
            op,
        });
    }
    Ok(())
}

fn check_rank4(t: &Tensor, op: &'static str) -> Result<(), TensorError> {
    if t.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: t.rank(),
            op,
        });
    }
    Ok(())
}

/// Rejects a zero stride, for which [`Conv2dParams::output_dim`] is
/// undefined.
fn check_stride(params: Conv2dParams, op: &str) -> Result<(), TensorError> {
    if params.stride == 0 {
        return Err(TensorError::InvalidArgument(format!(
            "{op}: stride must be positive"
        )));
    }
    Ok(())
}

/// Valid kernel-offset range `[lo, hi)` for output position `o`: the `k`
/// whose input coordinate `o*s + k - p` lands inside `[0, input)`.
/// Hoisting this out of the per-pixel loops removes the bounds branch
/// from the naive kernels' innermost iterations.
fn valid_k_range(o: usize, s: usize, p: usize, input: usize, kdim: usize) -> (usize, usize) {
    let base = o * s; // input coord = base + k - p
    let lo = p.saturating_sub(base).min(kdim);
    let hi = (input + p).saturating_sub(base).min(kdim).max(lo);
    (lo, hi)
}

/// Per-output-position valid kernel ranges along one spatial axis.
fn valid_k_ranges(
    out_dim: usize,
    s: usize,
    p: usize,
    input: usize,
    kdim: usize,
) -> Vec<(usize, usize)> {
    (0..out_dim)
        .map(|o| valid_k_range(o, s, p, input, kdim))
        .collect()
}

/// Bundles validated dimensions into the `cq-par` shape descriptor.
#[allow(clippy::too_many_arguments)]
fn par_shape(
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    f: usize,
    kh: usize,
    kw: usize,
    params: Conv2dParams,
) -> cq_par::conv::ConvShape {
    cq_par::conv::ConvShape {
        n,
        c,
        h,
        w,
        f,
        kh,
        kw,
        stride: params.stride,
        padding: params.padding,
        oh: params.output_dim(h, kh),
        ow: params.output_dim(w, kw),
    }
}

/// 2-D convolution forward pass.
///
/// `input` is `[N, C, H, W]`, `weight` is `[F, C, KH, KW]`; output is
/// `[N, F, OH, OW]` with `OH/OW` given by [`Conv2dParams::output_dim`].
///
/// # Errors
///
/// Returns a rank or shape error if the operands do not describe a valid
/// convolution, and [`TensorError::InvalidArgument`] for a zero stride.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    params: Conv2dParams,
) -> Result<Tensor, TensorError> {
    conv2d_with(Backend::Fast, input, weight, params)
}

/// [`conv2d`] on an explicit [`Backend`].
///
/// # Errors
///
/// Same as [`conv2d`].
pub fn conv2d_with(
    backend: Backend,
    input: &Tensor,
    weight: &Tensor,
    params: Conv2dParams,
) -> Result<Tensor, TensorError> {
    check_rank4(input, "conv2d")?;
    check_rank4(weight, "conv2d")?;
    check_stride(params, "conv2d")?;
    let [n, c, h, w] = four(input);
    let [f, cw, kh, kw] = four(weight);
    if c != cw {
        return Err(TensorError::ShapeMismatch {
            lhs: input.dims().to_vec(),
            rhs: weight.dims().to_vec(),
            op: "conv2d",
        });
    }
    let oh = params.output_dim(h, kh);
    let ow = params.output_dim(w, kw);
    let mut out = Tensor::zeros(&[n, f, oh, ow]);
    if backend == Backend::Fast {
        let shape = par_shape(n, c, h, w, f, kh, kw, params);
        cq_par::conv::conv2d(
            &shape,
            input.data(),
            weight.data(),
            out.data_mut(),
            Pool::global(),
        );
        return Ok(out);
    }
    let id = input.data();
    let wd = weight.data();
    let od = out.data_mut();
    let (s, p) = (params.stride, params.padding);
    let kyr = valid_k_ranges(oh, s, p, h, kh);
    let kxr = valid_k_ranges(ow, s, p, w, kw);
    for ni in 0..n {
        for fi in 0..f {
            for (oy, &(ky_lo, ky_hi)) in kyr.iter().enumerate() {
                for (ox, &(kx_lo, kx_hi)) in kxr.iter().enumerate() {
                    let mut acc = 0.0f32;
                    for ci in 0..c {
                        for ky in ky_lo..ky_hi {
                            let iy = oy * s + ky - p;
                            for kx in kx_lo..kx_hi {
                                let ix = ox * s + kx - p;
                                let iv = id[((ni * c + ci) * h + iy) * w + ix];
                                let wv = wd[((fi * c + ci) * kh + ky) * kw + kx];
                                acc += iv * wv;
                            }
                        }
                    }
                    od[((ni * f + fi) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    Ok(out)
}

/// Gradient of [`conv2d`] w.r.t. its input (the "computing gradients on
/// neurons" stage, ① in Fig. 1 of the paper).
///
/// # Errors
///
/// Returns a rank or shape error on malformed operands, and
/// [`TensorError::InvalidArgument`] for a zero stride.
pub fn conv2d_grad_input(
    grad_output: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    params: Conv2dParams,
) -> Result<Tensor, TensorError> {
    conv2d_grad_input_with(Backend::Fast, grad_output, weight, input_dims, params)
}

/// [`conv2d_grad_input`] on an explicit [`Backend`].
///
/// # Errors
///
/// Same as [`conv2d_grad_input`].
pub fn conv2d_grad_input_with(
    backend: Backend,
    grad_output: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    params: Conv2dParams,
) -> Result<Tensor, TensorError> {
    check_rank4(grad_output, "conv2d_grad_input")?;
    check_rank4(weight, "conv2d_grad_input")?;
    check_stride(params, "conv2d_grad_input")?;
    if input_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input_dims.len(),
            op: "conv2d_grad_input",
        });
    }
    let [n, f, oh, ow] = four(grad_output);
    let [fw, c, kh, kw] = four(weight);
    let (h, w) = (input_dims[2], input_dims[3]);
    if f != fw || input_dims[0] != n || input_dims[1] != c {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_output.dims().to_vec(),
            rhs: weight.dims().to_vec(),
            op: "conv2d_grad_input",
        });
    }
    let mut gin = Tensor::zeros(input_dims);
    if backend == Backend::Fast {
        let shape = par_shape(n, c, h, w, f, kh, kw, params);
        cq_par::conv::conv2d_grad_input(
            &shape,
            grad_output.data(),
            weight.data(),
            gin.data_mut(),
            Pool::global(),
        );
        return Ok(gin);
    }
    let god = grad_output.data();
    let wd = weight.data();
    let gid = gin.data_mut();
    let (s, p) = (params.stride, params.padding);
    let kyr = valid_k_ranges(oh, s, p, h, kh);
    let kxr = valid_k_ranges(ow, s, p, w, kw);
    for ni in 0..n {
        for fi in 0..f {
            for (oy, &(ky_lo, ky_hi)) in kyr.iter().enumerate() {
                for (ox, &(kx_lo, kx_hi)) in kxr.iter().enumerate() {
                    // No zero-skip on `g`: a zero gradient times a NaN
                    // weight must still poison the result.
                    let g = god[((ni * f + fi) * oh + oy) * ow + ox];
                    for ci in 0..c {
                        for ky in ky_lo..ky_hi {
                            let iy = oy * s + ky - p;
                            for kx in kx_lo..kx_hi {
                                let ix = ox * s + kx - p;
                                gid[((ni * c + ci) * h + iy) * w + ix] +=
                                    g * wd[((fi * c + ci) * kh + ky) * kw + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(gin)
}

/// Gradient of [`conv2d`] w.r.t. its weights (the "computing gradients on
/// weights" stage, ② in Fig. 1 of the paper).
///
/// # Errors
///
/// Returns a rank or shape error on malformed operands, and
/// [`TensorError::InvalidArgument`] for a zero stride.
pub fn conv2d_grad_weight(
    input: &Tensor,
    grad_output: &Tensor,
    weight_dims: &[usize],
    params: Conv2dParams,
) -> Result<Tensor, TensorError> {
    conv2d_grad_weight_with(Backend::Fast, input, grad_output, weight_dims, params)
}

/// [`conv2d_grad_weight`] on an explicit [`Backend`].
///
/// # Errors
///
/// Same as [`conv2d_grad_weight`].
pub fn conv2d_grad_weight_with(
    backend: Backend,
    input: &Tensor,
    grad_output: &Tensor,
    weight_dims: &[usize],
    params: Conv2dParams,
) -> Result<Tensor, TensorError> {
    check_rank4(input, "conv2d_grad_weight")?;
    check_rank4(grad_output, "conv2d_grad_weight")?;
    check_stride(params, "conv2d_grad_weight")?;
    if weight_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: weight_dims.len(),
            op: "conv2d_grad_weight",
        });
    }
    let [n, c, h, w] = four(input);
    let [n2, f, oh, ow] = four(grad_output);
    let (kh, kw) = (weight_dims[2], weight_dims[3]);
    if n != n2 || weight_dims[0] != f || weight_dims[1] != c {
        return Err(TensorError::ShapeMismatch {
            lhs: input.dims().to_vec(),
            rhs: grad_output.dims().to_vec(),
            op: "conv2d_grad_weight",
        });
    }
    let mut gw = Tensor::zeros(weight_dims);
    if backend == Backend::Fast {
        let shape = par_shape(n, c, h, w, f, kh, kw, params);
        cq_par::conv::conv2d_grad_weight(
            &shape,
            input.data(),
            grad_output.data(),
            gw.data_mut(),
            Pool::global(),
        );
        return Ok(gw);
    }
    let id = input.data();
    let god = grad_output.data();
    let gwd = gw.data_mut();
    let (s, p) = (params.stride, params.padding);
    let kyr = valid_k_ranges(oh, s, p, h, kh);
    let kxr = valid_k_ranges(ow, s, p, w, kw);
    for ni in 0..n {
        for fi in 0..f {
            for (oy, &(ky_lo, ky_hi)) in kyr.iter().enumerate() {
                for (ox, &(kx_lo, kx_hi)) in kxr.iter().enumerate() {
                    // No zero-skip on `g` (see conv2d_grad_input_with).
                    let g = god[((ni * f + fi) * oh + oy) * ow + ox];
                    for ci in 0..c {
                        for ky in ky_lo..ky_hi {
                            let iy = oy * s + ky - p;
                            for kx in kx_lo..kx_hi {
                                let ix = ox * s + kx - p;
                                gwd[((fi * c + ci) * kh + ky) * kw + kx] +=
                                    g * id[((ni * c + ci) * h + iy) * w + ix];
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(gw)
}

/// Result of a max-pooling forward pass: the pooled tensor plus the flat
/// argmax index of each output element, needed for the backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxPoolOutput {
    /// Pooled tensor `[N, C, OH, OW]`.
    pub output: Tensor,
    /// For each output element, the flat index into the input that supplied
    /// the maximum (the window's first element when none exceeds −∞).
    pub argmax: Vec<usize>,
}

/// 2-D max pooling with square window `k` and stride `k` (non-overlapping).
///
/// # Errors
///
/// Returns a rank error for non-4D input or [`TensorError::InvalidArgument`]
/// if `k` is zero or larger than the spatial dims.
pub fn maxpool2d(input: &Tensor, k: usize) -> Result<MaxPoolOutput, TensorError> {
    check_rank4(input, "maxpool2d")?;
    let [n, c, h, w] = four(input);
    if k == 0 || k > h || k > w {
        return Err(TensorError::InvalidArgument(format!(
            "pool window {k} invalid for input {h}x{w}"
        )));
    }
    let (oh, ow) = (h / k, w / k);
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let mut argmax = vec![0usize; out.len()];
    let id = input.data();
    let od = out.data_mut();
    let mut oidx = 0;
    for plane in 0..n * c {
        for oy in 0..oh {
            for ox in 0..ow {
                // A window with no element above −∞ (all NaN or −∞)
                // keeps its first element, so its gradient stays in
                // this window.
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = (plane * h + oy * k) * w + ox * k;
                for ky in 0..k {
                    let start = (plane * h + oy * k + ky) * w + ox * k;
                    for (idx, &v) in (start..).zip(&id[start..start + k]) {
                        // Strict `>` keeps the first maximum (and never
                        // takes a NaN); a select, not a branch, which
                        // mispredicts on random data.
                        let gt = v > best;
                        best = if gt { v } else { best };
                        best_idx = if gt { idx } else { best_idx };
                    }
                }
                od[oidx] = best;
                argmax[oidx] = best_idx;
                oidx += 1;
            }
        }
    }
    Ok(MaxPoolOutput {
        output: out,
        argmax,
    })
}

/// Backward pass of [`maxpool2d`]: routes each output gradient to the input
/// position recorded in `argmax`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if `argmax` length differs from
/// `grad_output` length, or if an `argmax` index lies past the
/// `input_dims` tensor.
pub fn maxpool2d_backward(
    grad_output: &Tensor,
    argmax: &[usize],
    input_dims: &[usize],
) -> Result<Tensor, TensorError> {
    if argmax.len() != grad_output.len() {
        return Err(TensorError::InvalidArgument(format!(
            "argmax len {} != grad_output len {}",
            argmax.len(),
            grad_output.len()
        )));
    }
    let mut gin = Tensor::zeros(input_dims);
    let gid = gin.data_mut();
    let len = gid.len();
    for (&src, &g) in argmax.iter().zip(grad_output.data()) {
        *gid.get_mut(src).ok_or_else(|| {
            TensorError::InvalidArgument(format!(
                "argmax index {src} past the input's {len} elements"
            ))
        })? += g;
    }
    Ok(gin)
}

fn four(t: &Tensor) -> [usize; 4] {
    [t.dims()[0], t.dims()[1], t.dims()[2], t.dims()[3]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        assert_eq!(matmul(&a, &i).unwrap(), a);
    }

    #[test]
    fn matmul_known() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    /// Regression: the old kernels skipped `a == 0.0` operands, silently
    /// yielding `0` where `0 · NaN` must yield NaN (contradicting the
    /// `TensorError::NonFinite` machinery). Both backends must propagate.
    #[test]
    fn matmul_propagates_nan_through_zero_operand() {
        let a = Tensor::from_vec(vec![0.0, 0.0, 0.0, 0.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::NAN, 1.0, 2.0, 3.0], &[2, 2]).unwrap();
        for backend in [Backend::Naive, Backend::Fast] {
            let out = matmul_with(backend, &a, &b).unwrap();
            assert!(
                out.data()[0].is_nan(),
                "{backend:?}: 0·NaN swallowed in matmul"
            );
            let out = matmul_at_with(backend, &a, &b).unwrap();
            assert!(
                out.data()[0].is_nan(),
                "{backend:?}: 0·NaN swallowed in matmul_at"
            );
            let out = matmul_bt_with(backend, &b, &a).unwrap();
            assert!(
                out.data()[0].is_nan(),
                "{backend:?}: 0·NaN swallowed in matmul_bt"
            );
        }
    }

    /// Regression companion: a zero gradient must not mask a NaN weight in
    /// the convolution backward passes either.
    #[test]
    fn conv_gradients_propagate_nan_through_zero_gradient() {
        let p = Conv2dParams::default();
        let input = Tensor::ones(&[1, 1, 3, 3]);
        let mut weight = Tensor::ones(&[1, 1, 3, 3]);
        weight.data_mut()[4] = f32::NAN;
        let gout = Tensor::zeros(&[1, 1, 1, 1]);
        for backend in [Backend::Naive, Backend::Fast] {
            let gin = conv2d_grad_input_with(backend, &gout, &weight, input.dims(), p).unwrap();
            assert!(
                gin.data()[4].is_nan(),
                "{backend:?}: 0·NaN swallowed in conv2d_grad_input"
            );
        }
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&Tensor::zeros(&[2]), &b).is_err());
    }

    #[test]
    fn matmul_at_equals_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[3, 2]).unwrap();
        let b = Tensor::from_vec((0..12).map(|x| x as f32 * 0.5).collect(), &[3, 4]).unwrap();
        let direct = matmul_at(&a, &b).unwrap();
        let via_t = matmul(&a.transpose().unwrap(), &b).unwrap();
        assert_eq!(direct, via_t);
    }

    #[test]
    fn matmul_bt_equals_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let b = Tensor::from_vec((0..12).map(|x| x as f32 * 0.5).collect(), &[4, 3]).unwrap();
        let direct = matmul_bt(&a, &b).unwrap();
        let via_t = matmul(&a, &b.transpose().unwrap()).unwrap();
        assert_eq!(direct, via_t);
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel of value 1.0 reproduces the input.
        let input = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let out = conv2d(&input, &weight, Conv2dParams::default()).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv2d_known_3x3() {
        // All-ones 3x3 kernel on a 3x3 all-ones input (no padding) = 9.
        let input = Tensor::ones(&[1, 1, 3, 3]);
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let out = conv2d(&input, &weight, Conv2dParams::default()).unwrap();
        assert_eq!(out.dims(), &[1, 1, 1, 1]);
        assert_eq!(out.data()[0], 9.0);
    }

    #[test]
    fn conv2d_padding_and_stride() {
        let input = Tensor::ones(&[1, 1, 4, 4]);
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let out = conv2d(&input, &weight, Conv2dParams::new(2, 1)).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        // Top-left window covers 2x2 real pixels (corner), value 4.
        assert_eq!(out.get(&[0, 0, 0, 0]).unwrap(), 4.0);
    }

    #[test]
    fn conv2d_multi_channel_sum() {
        let input = Tensor::ones(&[1, 3, 2, 2]);
        let weight = Tensor::ones(&[2, 3, 2, 2]);
        let out = conv2d(&input, &weight, Conv2dParams::default()).unwrap();
        assert_eq!(out.dims(), &[1, 2, 1, 1]);
        assert_eq!(out.data(), &[12.0, 12.0]);
    }

    /// Numerical check: conv2d gradients match finite differences.
    #[test]
    fn conv2d_gradients_match_finite_difference() {
        let p = Conv2dParams::new(1, 1);
        let mut input = Tensor::from_vec(
            (0..18).map(|x| (x as f32) * 0.1 - 0.9).collect(),
            &[1, 2, 3, 3],
        )
        .unwrap();
        let mut weight = Tensor::from_vec(
            (0..16).map(|x| (x as f32) * 0.05 - 0.4).collect(),
            &[2, 2, 2, 2],
        )
        .unwrap();
        let out = conv2d(&input, &weight, p).unwrap();
        // Loss = sum of outputs, so dL/dout = 1 everywhere.
        let gout = Tensor::ones(out.dims());
        let gin = conv2d_grad_input(&gout, &weight, input.dims(), p).unwrap();
        let gw = conv2d_grad_weight(&input, &gout, weight.dims(), p).unwrap();
        let eps = 1e-3;
        // Spot check a few coordinates of each gradient.
        for &idx in &[0usize, 5, 11, 17] {
            let orig = input.data()[idx];
            input.data_mut()[idx] = orig + eps;
            let lp = conv2d(&input, &weight, p).unwrap().sum();
            input.data_mut()[idx] = orig - eps;
            let lm = conv2d(&input, &weight, p).unwrap().sum();
            input.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gin.data()[idx]).abs() < 1e-2,
                "input grad mismatch at {idx}: fd={fd} analytic={}",
                gin.data()[idx]
            );
        }
        for &idx in &[0usize, 7, 15] {
            let orig = weight.data()[idx];
            weight.data_mut()[idx] = orig + eps;
            let lp = conv2d(&input, &weight, p).unwrap().sum();
            weight.data_mut()[idx] = orig - eps;
            let lm = conv2d(&input, &weight, p).unwrap().sum();
            weight.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gw.data()[idx]).abs() < 1e-2,
                "weight grad mismatch at {idx}: fd={fd} analytic={}",
                gw.data()[idx]
            );
        }
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, 0.0, 0.5, 0.25, //
                -2.0, -3.0, 0.75, 0.1,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let MaxPoolOutput { output, argmax } = maxpool2d(&input, 2).unwrap();
        assert_eq!(output.data(), &[4.0, 8.0, 0.0, 0.75]);
        let gout = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let gin = maxpool2d_backward(&gout, &argmax, input.dims()).unwrap();
        assert_eq!(gin.get(&[0, 0, 1, 1]).unwrap(), 1.0); // where 4.0 was
        assert_eq!(gin.get(&[0, 0, 1, 3]).unwrap(), 2.0); // where 8.0 was
        assert_eq!(gin.get(&[0, 0, 2, 1]).unwrap(), 3.0); // where 0.0 was
        assert_eq!(gin.get(&[0, 0, 3, 2]).unwrap(), 4.0); // where 0.75 was
        assert_eq!(gin.sum(), 10.0);
        // An argmax past the input, or one of the wrong length, is an
        // error rather than an out-of-bounds write.
        let err = maxpool2d_backward(&gout, &[5, 99, 7, 14], input.dims()).unwrap_err();
        assert!(
            matches!(&err, TensorError::InvalidArgument(m) if m.contains("99")),
            "{err:?}"
        );
        assert!(matches!(
            maxpool2d_backward(&gout, &argmax[..3], input.dims()),
            Err(TensorError::InvalidArgument(_))
        ));
    }

    #[test]
    fn maxpool_first_maximum_skips_nan() {
        // Plane 0: NaN never wins, ties keep the first maximum in
        // row-major window order, the ragged third row is ignored.
        // Plane 1: an all-NaN window reports −∞ at its own first
        // element, so the backward pass keeps its gradient in plane 1.
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let mut data = vec![
            nan, 1.0, 2.0, 2.0, //
            1.0, nan, ninf, 2.0, //
            9.0, 9.0, 9.0, 9.0,
        ];
        data.extend([nan; 12]);
        let input = Tensor::from_vec(data, &[1, 2, 3, 4]).unwrap();
        let MaxPoolOutput { output, argmax } = maxpool2d(&input, 2).unwrap();
        assert_eq!(output.data(), &[1.0, 2.0, ninf, ninf]);
        assert_eq!(argmax, [1, 2, 12, 14]);
        let gout = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 1, 2]).unwrap();
        let gin = maxpool2d_backward(&gout, &argmax, input.dims()).unwrap();
        let mut want = vec![0.0; 24];
        for (i, g) in [(1, 1.0), (2, 2.0), (12, 3.0), (14, 4.0)] {
            want[i] = g;
        }
        assert_eq!(gin.data(), want.as_slice());
    }

    #[test]
    fn maxpool_rejects_bad_window() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        assert!(maxpool2d(&input, 0).is_err());
        assert!(maxpool2d(&input, 3).is_err());
    }

    #[test]
    fn conv_ops_reject_zero_stride() {
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let g = Tensor::ones(&[1, 1, 2, 2]);
        let p = Conv2dParams::new(0, 0);
        for be in [Backend::Naive, Backend::Fast] {
            let results = [
                conv2d_with(be, &x, &w, p),
                conv2d_grad_input_with(be, &g, &w, x.dims(), p),
                conv2d_grad_weight_with(be, &x, &g, w.dims(), p),
            ];
            for r in results {
                assert!(
                    matches!(&r, Err(TensorError::InvalidArgument(m)) if m.contains("stride")),
                    "{be:?}: {r:?}"
                );
            }
        }
    }

    #[test]
    fn output_dim_formula() {
        let p = Conv2dParams::new(1, 0);
        assert_eq!(p.output_dim(5, 3), 3);
        let p = Conv2dParams::new(2, 1);
        assert_eq!(p.output_dim(7, 3), 4);
    }
}
