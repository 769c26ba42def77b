//! Network layers with quantization-aware forward/backward passes.
//!
//! Every layer receives a [`QuantCtx`]; the context's
//! [`TrainingQuantizer`] is applied to the activations, weights and
//! gradients *used for compute*, while FP32 master weights and weight
//! gradients stay full precision — exactly the dataflow of Fig. 7 in the
//! paper (quantized FW/NG/WG, full-precision ΔW and weight update).

use crate::error::NnError;
use crate::intpath::{IntPathStats, QuantPath};
use crate::param::Param;
use cq_par::conv::{conv2d, ConvShape};
use cq_par::{gemm, Pool};
use cq_quant::{
    IntDomainQuantizer, IntDomainScratch, QuantScheme, QuantScratch, TrainingQuantizer,
};
use cq_tensor::ops::{self, Conv2dParams};
use cq_tensor::{init, Backend, Tensor, TensorError};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Reusable state for the integer-domain forward path: the ladder
/// quantizer plus every buffer the i8 pipeline touches, so steady-state
/// steps quantize and accumulate without allocating.
#[derive(Debug)]
struct IntState {
    quantizer: IntDomainQuantizer,
    scratch: IntDomainScratch,
    xcodes: Vec<i8>,
    wcodes: Vec<i8>,
    acc: Vec<i32>,
}

impl IntState {
    fn new() -> Self {
        IntState {
            // Same 4-way INT8 ladder as the E²BQM hardware default, so the
            // int path quantizes with the arbiter the f32 fast path uses.
            quantizer: IntDomainQuantizer::hardware_default(),
            scratch: IntDomainScratch::new(),
            xcodes: Vec::new(),
            wcodes: Vec::new(),
            acc: Vec::new(),
        }
    }
}

/// Quantization context threaded through forward and backward passes.
#[derive(Debug)]
pub struct QuantCtx {
    /// The quantizer applied to compute operands (activations, weights,
    /// gradients). [`TrainingQuantizer::fp32`] makes every transform the
    /// identity.
    pub quantizer: TrainingQuantizer,
    /// The compute backend every dense kernel in the pass runs on.
    /// Defaults to [`Backend::Fast`]; [`QuantCtx::with_backend`] pins
    /// the naive reference.
    pub backend: Backend,
    /// Arithmetic domain for quantized layer forwards. [`QuantPath::Int8`]
    /// routes [`Dense`]/[`Conv2d`] forwards through i8×i8→i32 kernels with
    /// a single output rescale; layers whose scales fall off the
    /// power-of-two ladder fall back to the f32 path for that pass.
    /// Defaults to [`QuantPath::Fp32`]; [`QuantCtx::with_path`] selects
    /// the int8 forward.
    pub path: QuantPath,
    /// Scratch arena threaded through every fast-path quantization this
    /// context performs, so steady-state training steps reuse candidate
    /// buffers instead of reallocating them per layer per step.
    scratch: Arc<Mutex<QuantScratch>>,
    /// Integer-path quantizer + code/accumulator buffers (same reuse
    /// rationale as `scratch`).
    int_state: Arc<Mutex<IntState>>,
    /// Integer-path hit/fallback counters, shared across clones so a
    /// training run reports one aggregate ladder hit rate.
    stats: Arc<IntPathStats>,
}

impl QuantCtx {
    /// Full-precision context (no quantization anywhere).
    pub fn fp32() -> Self {
        QuantCtx::new(TrainingQuantizer::fp32())
    }

    /// Context with the given training quantizer, on the fast backend and
    /// the f32 forward path ([`QuantPath::Fp32`]).
    pub fn new(quantizer: TrainingQuantizer) -> Self {
        QuantCtx {
            quantizer,
            backend: Backend::Fast,
            path: QuantPath::Fp32,
            scratch: Arc::new(Mutex::new(QuantScratch::new())),
            int_state: Arc::new(Mutex::new(IntState::new())),
            stats: Arc::new(IntPathStats::new()),
        }
    }

    /// Returns the context pinned to an explicit compute backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Returns the context pinned to an explicit forward path; the only
    /// way onto [`QuantPath::Int8`].
    pub fn with_path(mut self, path: QuantPath) -> Self {
        self.path = path;
        self
    }

    /// Integer-path hit/fallback counters (shared across clones).
    pub fn int_stats(&self) -> Arc<IntPathStats> {
        Arc::clone(&self.stats)
    }

    /// Whether [`Dense`] and [`Conv2d`] forwards take the integer-domain
    /// path: [`QuantPath::Int8`] with a quantizing scheme. The identity
    /// [`TrainingQuantizer::fp32`] has no codes to feed an integer kernel,
    /// so it stays on the f32 path whatever the path says.
    fn int8_forward(&self) -> bool {
        self.path == QuantPath::Int8 && self.quantizer.is_quantized()
    }

    /// Whether a [`MaxPool2d`] that follows a [`Conv2d`] hands the conv
    /// its ∂y already quantized, so the conv skips [`QuantCtx::q`]. Both
    /// layers decide from this one predicate. It holds on the fast
    /// backend for a block-local [`QuantScheme::Hqt`] scheme, which the
    /// pool quantizes block by block from the gradients it keeps, and for
    /// the identity [`QuantScheme::Fp32`], whose ∂y the pool writes as
    /// is. The naive reference and every other scheme keep the conv's
    /// own `q`.
    fn pool_quantizes_conv_grad(&self) -> bool {
        self.backend == Backend::Fast
            && matches!(
                self.quantizer.scheme(),
                QuantScheme::Fp32 | QuantScheme::Hqt { .. }
            )
    }

    /// Quantize-dequantizes a tensor for compute.
    pub fn q(&self, x: &Tensor) -> Tensor {
        match self.backend {
            Backend::Naive => self.quantizer.fake_quantize_naive(x),
            Backend::Fast => {
                let mut out = Vec::with_capacity(x.len());
                self.fill_quantized(x, &mut out);
                Tensor::from_vec(out, x.dims()).expect("shape preserved by construction")
            }
        }
    }

    /// Quantize-dequantizes `x` into a reusable slot, recycling the slot's
    /// previous allocation. Layers with cached quantized operands (e.g.
    /// [`Dense`]'s `cached_xq`/`cached_wq`) call this every step; after the
    /// first step the buffers are warm and the fast path allocates nothing.
    pub fn q_into(&self, x: &Tensor, slot: &mut Option<Tensor>) {
        match self.backend {
            Backend::Naive => *slot = Some(self.quantizer.fake_quantize_naive(x)),
            Backend::Fast => {
                let mut buf = slot.take().map(Tensor::into_vec).unwrap_or_default();
                self.fill_quantized(x, &mut buf);
                *slot = Some(Tensor::from_vec(buf, x.dims()).expect("shape preserved"));
            }
        }
    }

    /// Fast-path worker: runs `fake_quantize_into` under the shared
    /// scratch arena.
    fn fill_quantized(&self, x: &Tensor, out: &mut Vec<f32>) {
        let mut scratch = self
            .scratch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.quantizer.fake_quantize_into(x, out, &mut scratch);
    }

    /// Refills a cached-operand slot with `codes[i]·scale`, recycling the
    /// slot's buffer. The int path caches *dequantized* codes so the
    /// existing f32 backward consumes exactly the operands the integer
    /// GEMM multiplied.
    fn fill_dequant(slot: &mut Option<Tensor>, codes: &[i8], scale: f32, dims: &[usize]) {
        let mut buf = slot.take().map(Tensor::into_vec).unwrap_or_default();
        buf.clear();
        buf.extend(codes.iter().map(|&c| f32::from(c) * scale));
        *slot = Some(Tensor::from_vec(buf, dims).expect("shape preserved"));
    }

    /// Integer-domain dense forward: quantize `x` and `w` once to i8
    /// codes, multiply in i8×i8→i32, rescale once by `s_x·s_w` and add the
    /// bias. Returns `None` (without touching the caches) when either
    /// operand falls off the power-of-two ladder or the shapes don't
    /// describe a matmul — the caller falls back to the f32 path.
    fn int_dense_forward(
        &self,
        x: &Tensor,
        w: &Tensor,
        bias: &[f32],
        cached_xq: &mut Option<Tensor>,
        cached_wq: &mut Option<Tensor>,
    ) -> Option<Tensor> {
        if x.dims().len() != 2 || w.dims().len() != 2 || x.dims()[1] != w.dims()[0] {
            return None; // let the f32 path report the shape error
        }
        let (b, in_f, out_f) = (x.dims()[0], x.dims()[1], w.dims()[1]);
        let mut st = self
            .int_state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let st = &mut *st;
        let sx = st
            .quantizer
            .quantize_into(x.data(), &mut st.xcodes, &mut st.scratch)?;
        let sw = st
            .quantizer
            .quantize_into(w.data(), &mut st.wcodes, &mut st.scratch)?;
        // Size only — the i8 gemm overwrites every element, so the
        // steady-state call (same shape as last step) skips the full
        // rezeroing pass.
        st.acc.resize(b * out_f, 0);
        gemm(
            b,
            in_f,
            out_f,
            &st.xcodes,
            &st.wcodes,
            &mut st.acc,
            Pool::global(),
        );
        let s = sx.scale * sw.scale;
        let mut y = Vec::with_capacity(b * out_f);
        for i in 0..b {
            for j in 0..out_f {
                y.push(st.acc[i * out_f + j] as f32 * s + bias[j]);
            }
        }
        Self::fill_dequant(cached_xq, &st.xcodes, sx.scale, x.dims());
        Self::fill_dequant(cached_wq, &st.wcodes, sw.scale, w.dims());
        Some(Tensor::from_vec(y, &[b, out_f]).expect("shape by construction"))
    }

    /// Integer-domain convolution forward: same pipeline as
    /// [`Self::int_dense_forward`] with the MAC lowered through the i8
    /// instantiation of `conv2d` (shared im2col and weight prepack with
    /// the f32 path). Also `None` for a zero stride, which the f32 path
    /// reports as an error.
    fn int_conv_forward(
        &self,
        x: &Tensor,
        w: &Tensor,
        params: Conv2dParams,
        cached_xq: &mut Option<Tensor>,
        cached_wq: &mut Option<Tensor>,
    ) -> Option<Tensor> {
        if x.dims().len() != 4
            || w.dims().len() != 4
            || x.dims()[1] != w.dims()[1]
            || params.stride == 0
        {
            return None; // let the f32 path report the shape or stride error
        }
        let (n, c, h, wd) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let (f, kh, kw) = (w.dims()[0], w.dims()[2], w.dims()[3]);
        let shape = ConvShape {
            n,
            c,
            h,
            w: wd,
            f,
            kh,
            kw,
            stride: params.stride,
            padding: params.padding,
            oh: params.output_dim(h, kh),
            ow: params.output_dim(wd, kw),
        };
        let mut st = self
            .int_state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let st = &mut *st;
        let sx = st
            .quantizer
            .quantize_into(x.data(), &mut st.xcodes, &mut st.scratch)?;
        let sw = st
            .quantizer
            .quantize_into(w.data(), &mut st.wcodes, &mut st.scratch)?;
        // Size only — the i8 conv2d overwrites every element (see dense
        // above).
        st.acc.resize(n * shape.out_len(), 0);
        conv2d(&shape, &st.xcodes, &st.wcodes, &mut st.acc, Pool::global());
        let s = sx.scale * sw.scale;
        let y: Vec<f32> = st.acc.iter().map(|&a| a as f32 * s).collect();
        Self::fill_dequant(cached_xq, &st.xcodes, sx.scale, x.dims());
        Self::fill_dequant(cached_wq, &st.wcodes, sw.scale, w.dims());
        Some(Tensor::from_vec(y, &[n, f, shape.oh, shape.ow]).expect("shape by construction"))
    }
}

impl Clone for QuantCtx {
    /// Clones get a fresh scratch arena (not a handle to the same one), so
    /// contexts cloned into worker threads never contend on a lock. The
    /// int-path *stats* stay shared — a run reports one hit rate.
    fn clone(&self) -> Self {
        QuantCtx {
            quantizer: self.quantizer.clone(),
            backend: self.backend,
            path: self.path,
            scratch: Arc::new(Mutex::new(QuantScratch::new())),
            int_state: Arc::new(Mutex::new(IntState::new())),
            stats: Arc::clone(&self.stats),
        }
    }
}

impl PartialEq for QuantCtx {
    /// Scratch contents are a cache, not part of the context's identity.
    fn eq(&self, other: &Self) -> bool {
        self.quantizer == other.quantizer
            && self.backend == other.backend
            && self.path == other.path
    }
}

impl Default for QuantCtx {
    fn default() -> Self {
        QuantCtx::fp32()
    }
}

/// A differentiable network layer.
///
/// `backward` must be called after `forward` on the same input batch; it
/// accumulates weight gradients internally and returns the gradient with
/// respect to the layer input.
pub trait Layer: fmt::Debug {
    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if `x` has the wrong shape.
    fn forward(&mut self, x: &Tensor, ctx: &QuantCtx) -> Result<Tensor, NnError>;

    /// Backward pass: consumes ∂L/∂output, returns ∂L/∂input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor, ctx: &QuantCtx) -> Result<Tensor, NnError>;

    /// The layer's trainable parameters (empty for activations/pooling).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Layer name for diagnostics.
    fn name(&self) -> &str;
}

/// Fully-connected layer: `y = x·W + b` (`x: [B, in]`, `W: [in, out]`).
#[derive(Debug)]
pub struct Dense {
    name: String,
    weight: Param,
    bias: Param,
    cached_xq: Option<Tensor>,
    cached_wq: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights.
    pub fn new(name: impl Into<String>, in_f: usize, out_f: usize, seed: u64) -> Self {
        Dense {
            name: name.into(),
            weight: Param::new(init::xavier_uniform(&[in_f, out_f], in_f, out_f, seed)),
            bias: Param::new(Tensor::zeros(&[out_f])),
            cached_xq: None,
            cached_wq: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.dims()[1]
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Tensor, ctx: &QuantCtx) -> Result<Tensor, NnError> {
        if ctx.int8_forward() {
            if let Some(y) = ctx.int_dense_forward(
                x,
                &self.weight.value,
                self.bias.value.data(),
                &mut self.cached_xq,
                &mut self.cached_wq,
            ) {
                ctx.stats.record_hit();
                return Ok(y);
            }
            ctx.stats.record_fallback();
        }
        // Quantize straight into the cached slots: steady-state steps reuse
        // the previous step's buffers instead of allocating fresh tensors.
        ctx.q_into(x, &mut self.cached_xq);
        ctx.q_into(&self.weight.value, &mut self.cached_wq);
        let xq = self.cached_xq.as_ref().expect("just filled");
        let wq = self.cached_wq.as_ref().expect("just filled");
        let mut y = ops::matmul_with(ctx.backend, xq, wq)?;
        // Bias add in full precision (SFU path).
        let (b, out_f) = (y.dims()[0], y.dims()[1]);
        let bias = self.bias.value.data();
        for i in 0..b {
            for j in 0..out_f {
                y.data_mut()[i * out_f + j] += bias[j];
            }
        }
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor, ctx: &QuantCtx) -> Result<Tensor, NnError> {
        let xq = self.cached_xq.as_ref().ok_or(NnError::NoForwardCache {
            layer: self.name.clone(),
        })?;
        let wq = self.cached_wq.as_ref().expect("cached with xq");
        let gq = ctx.q(grad_out);
        // ΔW = xqᵀ·gq — full-precision result (paper: WG writes back FP32).
        let gw = ops::matmul_at_with(ctx.backend, xq, &gq)?;
        self.weight.grad.add_scaled(&gw, 1.0)?;
        // Δb = column sums of g.
        let (b, out_f) = (gq.dims()[0], gq.dims()[1]);
        for i in 0..b {
            for j in 0..out_f {
                self.bias.grad.data_mut()[j] += gq.data()[i * out_f + j];
            }
        }
        // δ_in = gq·Wᵀ.
        Ok(ops::matmul_bt_with(ctx.backend, &gq, wq)?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// 2-D convolution layer (`x: [B, C, H, W]`, weights `[F, C, K, K]`).
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    weight: Param,
    params: Conv2dParams,
    cached_xq: Option<Tensor>,
    cached_wq: Option<Tensor>,
    /// Whether a [`MaxPool2d`] follows inside a [`crate::Sequential`]
    /// (see [`QuantCtx::pool_quantizes_conv_grad`]).
    pool_follows: bool,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-normal weights.
    pub fn new(
        name: impl Into<String>,
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        let fan_in = in_c * k * k;
        Conv2d {
            name: name.into(),
            weight: Param::new(init::kaiming_normal(&[out_c, in_c, k, k], fan_in, seed)),
            params: Conv2dParams::new(stride, padding),
            cached_xq: None,
            cached_wq: None,
            pool_follows: false,
        }
    }

    /// Marks the layer as feeding the [`MaxPool2d`] added after it.
    pub(crate) fn feed_pool(&mut self) {
        self.pool_follows = true;
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, ctx: &QuantCtx) -> Result<Tensor, NnError> {
        if ctx.int8_forward() {
            if let Some(y) = ctx.int_conv_forward(
                x,
                &self.weight.value,
                self.params,
                &mut self.cached_xq,
                &mut self.cached_wq,
            ) {
                ctx.stats.record_hit();
                return Ok(y);
            }
            ctx.stats.record_fallback();
        }
        ctx.q_into(x, &mut self.cached_xq);
        ctx.q_into(&self.weight.value, &mut self.cached_wq);
        let xq = self.cached_xq.as_ref().expect("just filled");
        let wq = self.cached_wq.as_ref().expect("just filled");
        Ok(ops::conv2d_with(ctx.backend, xq, wq, self.params)?)
    }

    fn backward(&mut self, grad_out: &Tensor, ctx: &QuantCtx) -> Result<Tensor, NnError> {
        let xq = self.cached_xq.as_ref().ok_or(NnError::NoForwardCache {
            layer: self.name.clone(),
        })?;
        let wq = self.cached_wq.as_ref().expect("cached with xq");
        let quantized;
        let gq = if self.pool_follows && ctx.pool_quantizes_conv_grad() {
            grad_out
        } else {
            quantized = ctx.q(grad_out);
            &quantized
        };
        let gw = ops::conv2d_grad_weight_with(
            ctx.backend,
            xq,
            gq,
            self.weight.value.dims(),
            self.params,
        )?;
        self.weight.grad.add_scaled(&gw, 1.0)?;
        Ok(ops::conv2d_grad_input_with(
            ctx.backend,
            gq,
            wq,
            xq.dims(),
            self.params,
        )?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight]
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// ReLU of one value, the one definition [`Relu`] and the fused
/// [`MaxPool2d`] share. An explicit select maps −0.0 and NaN to `+0.0`
/// under every codegen; `f32::max(-0.0, 0.0)` may return either zero.
#[inline(always)]
fn relu(v: f32) -> f32 {
    if v > 0.0 {
        v
    } else {
        0.0
    }
}

/// ReLU activation.
///
/// Inside a [`crate::Sequential`], a [`MaxPool2d`] added right after a
/// `Relu` absorbs it (see [`crate::Sequential::add`]).
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, _ctx: &QuantCtx) -> Result<Tensor, NnError> {
        self.mask = Some(x.data().iter().map(|&v| v > 0.0).collect());
        Ok(x.map(relu))
    }

    fn backward(&mut self, grad_out: &Tensor, _ctx: &QuantCtx) -> Result<Tensor, NnError> {
        let mask = self.mask.as_ref().ok_or(NnError::NoForwardCache {
            layer: "relu".into(),
        })?;
        let mut g = grad_out.clone();
        // A select, not a branch: the mask is data-dependent, and a
        // branch mispredicts on about half the elements.
        for (v, &keep) in g.data_mut().iter_mut().zip(mask) {
            *v = if keep { *v } else { 0.0 };
        }
        Ok(g)
    }

    fn name(&self) -> &str {
        "relu"
    }
}

/// Offset of a window whose gradient the fused ReLU drops: its pooled
/// value is not above zero, so ReLU's mask zeroes the gradient.
const DROPPED: u8 = u8::MAX;

/// Largest window side whose `k·k` positions fit a byte below [`DROPPED`].
const MAX_WINDOW: usize = 15;

/// Non-overlapping 2-D max pooling with window and stride `k`
/// (`x: [B, C, H, W]`; rows and columns past the last whole window are
/// not pooled and get a zero gradient).
///
/// Each window's maximum comes from a strict `>` chain from −∞ in window
/// order, as in [`ops::maxpool2d`]: the first maximum wins and NaN never
/// does. The layer keeps one byte per output, the maximum's offset
/// `ky·k + kx` inside its window, so `k` is at most 15.
///
/// Added to a [`crate::Sequential`] right after a [`Relu`], the layer
/// absorbs that ReLU and runs both in the same window pass: it applies
/// ReLU to the pooled value, and its backward writes the input gradient
/// with ReLU's mask already applied. The results are bitwise those of
/// the two layers.
///
/// Added right after a [`Conv2d`] (with or without the ReLU between),
/// the layer's backward also quantizes the gradient it writes, the
/// conv's ∂y, bitwise as the conv's own [`QuantCtx::q`] would, and the
/// conv skips that call. It does so on the fast backend with an HQT
/// scheme.
#[derive(Debug)]
pub struct MaxPool2d {
    k: usize,
    /// Whether the layer applies the ReLU it absorbed.
    relu: bool,
    /// Whether a [`Conv2d`] precedes the layer, which then quantizes the
    /// conv's ∂y.
    after_conv: bool,
    /// Window offset of each output's maximum, or [`DROPPED`].
    offsets: Vec<u8>,
    /// Input dims of the last forward; `None` before the first.
    dims: Option<[usize; 4]>,
    /// The kept gradients [`MaxPool2d::unpool_quantized`] has gathered
    /// and not yet quantized; reused from step to step.
    kept: KeptGrads,
}

impl MaxPool2d {
    /// Creates a max-pool layer with window and stride `k`.
    pub fn new(k: usize) -> Self {
        MaxPool2d {
            k,
            relu: false,
            after_conv: false,
            offsets: Vec::new(),
            dims: None,
            kept: KeptGrads::default(),
        }
    }

    /// Makes the layer apply the ReLU that precedes it.
    pub(crate) fn absorb_relu(&mut self) {
        self.relu = true;
    }

    /// Makes the layer quantize the ∂y of the [`Conv2d`] before it.
    pub(crate) fn follow_conv(&mut self) {
        self.after_conv = true;
    }

    /// [`unpool_pass`] fused with the HQT fake-quantization of the
    /// gradient it writes, `block` elements a block, under `ctx`'s
    /// quantizer and scratch arena. Each plane is zeroed as in
    /// `unpool_pass`, but its windows' kept gradients are gathered (see
    /// [`KeptGrads`]) instead of written. Once the pass is past the end of
    /// a block, the block's nonzeros are fake-quantized from them and the
    /// block's length alone, and written at their positions. A block
    /// without nonzeros stays +0, which is what fake-quantization makes of
    /// ±0. Blocks need not align with planes: a block's nonzeros wait
    /// until the plane that holds its end is written. The pass runs in a
    /// `quant`/`fake_quantize` span that counts the nonzeros.
    fn unpool_quantized(
        &mut self,
        grad_out: &[f32],
        [h, w]: [usize; 2],
        block: usize,
        ctx: &QuantCtx,
        grad_in: &mut Vec<f32>,
    ) {
        assert!(block > 0, "block size must be positive");
        let mut sp = cq_obs::span!("quant", "fake_quantize");
        let mut scratch = ctx.scratch.lock().unwrap_or_else(PoisonError::into_inner);
        let mut quantize = |nonzeros: &mut [f32], len: usize| {
            ctx.quantizer
                .fake_quantize_nonzeros(nonzeros, len, &mut scratch)
        };
        let k = self.k;
        let plane_out = (h / k) * (w / k);
        let total = grad_out.len() / plane_out * h * w;
        let kept = &mut self.kept;
        kept.vals.clear();
        kept.at.clear();
        let mut nonzeros = 0;
        for (g_plane, off_plane) in grad_out
            .chunks_exact(plane_out)
            .zip(self.offsets.chunks_exact(plane_out))
        {
            let start = grad_in.len();
            grad_in.resize(start + h * w, 0.0);
            // The `k = 2` copy has the window constant, as in `forward`.
            nonzeros += if k == 2 {
                kept.gather(2, g_plane, off_plane, w, start)
            } else {
                kept.gather(k, g_plane, off_plane, w, start)
            };
            kept.flush(block, [start + h * w, total], grad_in, &mut quantize);
        }
        if sp.is_recording() {
            sp.arg("quantizer", ctx.quantizer.name())
                .arg("elems", grad_in.len())
                .arg("nonzeros", nonzeros)
                .arg("backend", "unpool");
            cq_obs::counter!("quant.calls").incr();
        }
    }
}

/// The pooling pass over `planes` (`h×w` each) into `out`, which it
/// extends, and `offsets`, one byte per output. Each window's chain runs
/// in registers, in the order [`ops::maxpool2d`] visits the window. With
/// `with_relu`, ReLU is applied to each pooled value, and a window whose
/// maximum is not above zero gets [`DROPPED`].
#[inline(always)]
fn pool_pass(
    k: usize,
    with_relu: bool,
    planes: &[f32],
    [h, w]: [usize; 2],
    out: &mut Vec<f32>,
    offsets: &mut [u8],
) {
    let ow = w / k;
    let plane_out = (h / k) * ow;
    for (plane, offs) in planes
        .chunks_exact(h * w)
        .zip(offsets.chunks_exact_mut(plane_out))
    {
        let start = out.len();
        out.resize(start + plane_out, 0.0);
        for ((band, out_row), off_row) in plane
            .chunks_exact(k * w)
            .zip(out[start..].chunks_exact_mut(ow))
            .zip(offs.chunks_exact_mut(ow))
        {
            // The band's pooled columns, one slice per window row.
            let mut rows: [&[f32]; MAX_WINDOW] = [&[]; MAX_WINDOW];
            for (ky, row) in rows.iter_mut().take(k).enumerate() {
                *row = &band[ky * w..][..ow * k];
            }
            // Index loops: with k = 2 they compile to straight-line
            // code, where iterator chains here ran about 2× slower.
            for (ox, (o, off)) in out_row.iter_mut().zip(off_row).enumerate() {
                let mut best = f32::NEG_INFINITY;
                let mut best_off = 0u8;
                for ky in 0..k {
                    for kx in 0..k {
                        let v = rows[ky][ox * k + kx];
                        // A select, not a branch, which mispredicts on
                        // random data. `k ≤ MAX_WINDOW`, so the offset
                        // fits the byte.
                        let gt = v > best;
                        best = if gt { v } else { best };
                        best_off = if gt { (ky * k + kx) as u8 } else { best_off };
                    }
                }
                if with_relu {
                    best_off = if best > 0.0 { best_off } else { DROPPED };
                    best = relu(best);
                }
                *off = best_off;
                *o = best;
            }
        }
    }
}

/// The backward of [`pool_pass`]: appends the input gradient of each
/// plane to `grad_in`. A window's gradient `g` lands on its offset as
/// `0.0 + g` (what [`ops::maxpool2d_backward`] accumulates onto zero);
/// every other input gets `+0.0`, and so does a whole [`DROPPED`] window.
#[inline(always)]
fn unpool_pass(
    k: usize,
    grad_out: &[f32],
    offsets: &[u8],
    [h, w]: [usize; 2],
    grad_in: &mut Vec<f32>,
) {
    let ow = w / k;
    let plane_out = (h / k) * ow;
    for (g_plane, off_plane) in grad_out
        .chunks_exact(plane_out)
        .zip(offsets.chunks_exact(plane_out))
    {
        // The zeros cover the unpooled rows and columns; the rest is
        // overwritten while the plane is still in cache.
        let start = grad_in.len();
        grad_in.resize(start + h * w, 0.0);
        for ((band, g_row), off_row) in grad_in[start..]
            .chunks_exact_mut(k * w)
            .zip(g_plane.chunks_exact(ow))
            .zip(off_plane.chunks_exact(ow))
        {
            // Index loops, as in `pool_pass`.
            for ky in 0..k {
                let row = &mut band[ky * w..][..ow * k];
                for ox in 0..ow {
                    let (g, off) = (g_row[ox], off_row[ox]);
                    for kx in 0..k {
                        row[ox * k + kx] = if usize::from(off) == ky * k + kx {
                            0.0 + g
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }
}

/// The nonzero gradients [`MaxPool2d::unpool_quantized`] has gathered
/// for HQT blocks it has not yet quantized, in ascending position order.
#[derive(Debug, Default)]
struct KeptGrads {
    /// `0.0 + g` for each kept window gradient `g`, never ±0.
    vals: Vec<f32>,
    /// Each value's position in the unpooled gradient.
    at: Vec<usize>,
}

impl KeptGrads {
    /// Appends the nonzero gradients that one plane's windows keep, the
    /// plane starting at position `start` of the unpooled gradient, and
    /// returns their count. The pass goes row by row and, in each row, in
    /// column order over the windows whose kept gradient lies in that
    /// row, so the positions ascend. It is branch-free: every window is
    /// written at the cursor, which moves past the kept nonzero ones
    /// only, and a [`DROPPED`] offset divides to no row. At most one per
    /// window is kept, so one spare slot takes the last write.
    #[inline(always)]
    fn gather(
        &mut self,
        k: usize,
        g_plane: &[f32],
        off_plane: &[u8],
        w: usize,
        start: usize,
    ) -> usize {
        let ow = w / k;
        let first = self.vals.len();
        let mut n = first;
        self.vals.resize(first + g_plane.len() + 1, 0.0);
        self.at.resize(first + g_plane.len() + 1, 0);
        for (oy, (g_row, off_row)) in g_plane
            .chunks_exact(ow)
            .zip(off_plane.chunks_exact(ow))
            .enumerate()
        {
            for ky in 0..k {
                let row = start + (oy * k + ky) * w;
                for (ox, (&g, &off)) in g_row.iter().zip(off_row).enumerate() {
                    let off = usize::from(off);
                    let v = 0.0 + g;
                    self.vals[n] = v;
                    self.at[n] = row + ox * k + off % k;
                    n += usize::from(off / k == ky && v != 0.0);
                }
            }
        }
        self.vals.truncate(n);
        self.at.truncate(n);
        n - first
    }

    /// Fake-quantizes, with `quantize(nonzeros, len)`, the nonzeros of
    /// every `block`-element block that ends by position `end`, writes
    /// them into `grad_in` and drops them; the last block ends at `total`.
    fn flush(
        &mut self,
        block: usize,
        [end, total]: [usize; 2],
        grad_in: &mut [f32],
        quantize: &mut impl FnMut(&mut [f32], usize),
    ) {
        let mut done = 0;
        while let Some(&next) = self.at.get(done) {
            let block_start = next / block * block;
            let block_end = (block_start + block).min(total);
            if block_end > end {
                break;
            }
            let m = done + self.at[done..].partition_point(|&p| p < block_end);
            let vals = &mut self.vals[done..m];
            quantize(vals, block_end - block_start);
            for (&p, &v) in self.at[done..m].iter().zip(vals.iter()) {
                grad_in[p] = v;
            }
            done = m;
        }
        self.vals.drain(..done);
        self.at.drain(..done);
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, _ctx: &QuantCtx) -> Result<Tensor, NnError> {
        let k = self.k;
        let &[n, c, h, w] = x.dims() else {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: x.dims().len(),
                op: "maxpool2d",
            }
            .into());
        };
        if k == 0 || k > h || k > w {
            return Err(TensorError::InvalidArgument(format!(
                "pool window {k} invalid for input {h}x{w}"
            ))
            .into());
        }
        if k > MAX_WINDOW {
            return Err(NnError::InvalidConfig(format!(
                "pool window {k} exceeds {MAX_WINDOW}: its offsets do not fit a byte"
            )));
        }
        let (oh, ow) = (h / k, w / k);
        let len = n * c * oh * ow;
        let mut out = Vec::with_capacity(len);
        // The pass writes every offset: sizing is all the buffer needs.
        self.offsets.resize(len, 0);
        // Every model here pools with k = 2: that call gets its own copy
        // with the window constant, so the window loops unroll. With a
        // run-time k the pass took about 6× longer.
        if k == 2 {
            pool_pass(2, self.relu, x.data(), [h, w], &mut out, &mut self.offsets);
        } else {
            pool_pass(k, self.relu, x.data(), [h, w], &mut out, &mut self.offsets);
        }
        self.dims = Some([n, c, h, w]);
        Ok(Tensor::from_vec(out, &[n, c, oh, ow])?)
    }

    fn backward(&mut self, grad_out: &Tensor, ctx: &QuantCtx) -> Result<Tensor, NnError> {
        let dims = self.dims.ok_or_else(|| NnError::NoForwardCache {
            layer: self.name().into(),
        })?;
        if grad_out.len() != self.offsets.len() {
            return Err(TensorError::InvalidArgument(format!(
                "max-pool produced {} outputs, grad_output has {}",
                self.offsets.len(),
                grad_out.len()
            ))
            .into());
        }
        let [n, c, h, w] = dims;
        let mut grad_in = Vec::with_capacity(n * c * h * w);
        match ctx.quantizer.scheme() {
            QuantScheme::Hqt { block_size, .. }
                if self.after_conv && ctx.pool_quantizes_conv_grad() =>
            {
                self.unpool_quantized(grad_out.data(), [h, w], *block_size, ctx, &mut grad_in);
            }
            // Everywhere else the plain pass; under the identity scheme
            // its gradient is the conv's ∂y as it stands.
            _ if self.k == 2 => {
                unpool_pass(2, grad_out.data(), &self.offsets, [h, w], &mut grad_in)
            }
            _ => unpool_pass(self.k, grad_out.data(), &self.offsets, [h, w], &mut grad_in),
        }
        Ok(Tensor::from_vec(grad_in, &dims)?)
    }

    fn name(&self) -> &str {
        if self.relu {
            "relu+maxpool2d"
        } else {
            "maxpool2d"
        }
    }
}

/// Flattens `[B, ...]` to `[B, features]`.
#[derive(Debug, Default)]
pub struct Flatten {
    dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, _ctx: &QuantCtx) -> Result<Tensor, NnError> {
        let b = x.dims()[0];
        let features = x.len() / b.max(1);
        self.dims = Some(x.dims().to_vec());
        Ok(x.reshape(&[b, features])?)
    }

    fn backward(&mut self, grad_out: &Tensor, _ctx: &QuantCtx) -> Result<Tensor, NnError> {
        let dims = self.dims.as_ref().ok_or(NnError::NoForwardCache {
            layer: "flatten".into(),
        })?;
        Ok(grad_out.reshape(dims)?)
    }

    fn name(&self) -> &str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_forward_known() {
        let mut d = Dense::new("fc", 2, 2, 1);
        d.params_mut()[0].value = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let x = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]).unwrap();
        let y = d.forward(&x, &QuantCtx::fp32()).unwrap();
        assert_eq!(y.data(), &[3.0, 4.0]);
    }

    #[test]
    fn dense_gradients_match_finite_difference() {
        let ctx = QuantCtx::fp32();
        let mut d = Dense::new("fc", 3, 2, 7);
        let x = init::normal(&[4, 3], 0.0, 1.0, 9);
        // Loss = sum(y).
        let y = d.forward(&x, &ctx).unwrap();
        let gout = Tensor::ones(y.dims());
        let gin = d.backward(&gout, &ctx).unwrap();
        let eps = 1e-3;
        // Input gradient check.
        let mut x2 = x.clone();
        for idx in [0usize, 5, 11] {
            let orig = x2.data()[idx];
            x2.data_mut()[idx] = orig + eps;
            let lp = d.forward(&x2, &ctx).unwrap().sum();
            x2.data_mut()[idx] = orig - eps;
            let lm = d.forward(&x2, &ctx).unwrap().sum();
            x2.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - gin.data()[idx]).abs() < 1e-2, "idx {idx}");
        }
        // Weight gradient check.
        let gw0 = d.params_mut()[0].grad.data()[0];
        let orig = d.params_mut()[0].value.data()[0];
        d.params_mut()[0].value.data_mut()[0] = orig + eps;
        let lp = d.forward(&x, &ctx).unwrap().sum();
        d.params_mut()[0].value.data_mut()[0] = orig - eps;
        let lm = d.forward(&x, &ctx).unwrap().sum();
        d.params_mut()[0].value.data_mut()[0] = orig;
        let fd = (lp - lm) / (2.0 * eps);
        assert!((fd - gw0).abs() < 2e-2, "fd {fd} gw {gw0}");
    }

    #[test]
    fn dense_backward_without_forward_errors() {
        let mut d = Dense::new("fc", 2, 2, 1);
        let g = Tensor::ones(&[1, 2]);
        assert!(matches!(
            d.backward(&g, &QuantCtx::fp32()),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn relu_masks_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]).unwrap();
        let y = r.forward(&x, &QuantCtx::fp32()).unwrap();
        assert_eq!(y.data(), &[0.0, 2.0]);
        let g = r
            .backward(
                &Tensor::from_vec(vec![5.0, 7.0], &[1, 2]).unwrap(),
                &QuantCtx::fp32(),
            )
            .unwrap();
        assert_eq!(g.data(), &[0.0, 7.0]);
    }

    #[test]
    fn relu_pins_the_bits_of_edge_values() {
        let zero = 0.0f32.to_bits();
        let cases = [
            (-0.0f32, zero),
            (f32::NAN, zero),
            (-f32::NAN, zero),
            (f32::INFINITY, f32::INFINITY.to_bits()),
            (f32::NEG_INFINITY, zero),
            (1.0e-40, 1.0e-40f32.to_bits()),
            (-1.0e-40, zero),
            (0.0, zero),
        ];
        let ctx = QuantCtx::fp32();
        // Scalar, with operands the compiler cannot see.
        for (v, want) in cases {
            assert_eq!(relu(std::hint::black_box(v)).to_bits(), want, "{v}");
        }
        // Through `Relu::forward`'s vectorized map, and through a fused
        // 1×1 max-pool, whose output is ReLU applied once per element.
        let xs: Vec<f32> = cases.iter().cycle().take(64).map(|c| c.0).collect();
        let wants: Vec<u32> = cases.iter().cycle().take(64).map(|c| c.1).collect();
        let x = Tensor::from_vec(xs, &[2, 2, 4, 4]).unwrap();
        let y = Relu::new().forward(&x, &ctx).unwrap();
        let got: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, wants);
        let mut fused = MaxPool2d::new(1);
        fused.absorb_relu();
        let y = fused.forward(&x, &ctx).unwrap();
        let got: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, wants);
    }

    #[test]
    fn conv_layer_roundtrip_shapes() {
        let ctx = QuantCtx::fp32();
        let mut c = Conv2d::new("c1", 3, 8, 3, 1, 1, 3);
        let x = init::normal(&[2, 3, 8, 8], 0.0, 1.0, 4);
        let y = c.forward(&x, &ctx).unwrap();
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
        let gin = c.backward(&Tensor::ones(y.dims()), &ctx).unwrap();
        assert_eq!(gin.dims(), x.dims());
        assert!(c.params_mut()[0].grad.max_abs() > 0.0);
    }

    #[test]
    fn flatten_and_pool_roundtrip() {
        let ctx = QuantCtx::fp32();
        let mut f = Flatten::new();
        let x = init::normal(&[2, 3, 4, 4], 0.0, 1.0, 5);
        let y = f.forward(&x, &ctx).unwrap();
        assert_eq!(y.dims(), &[2, 48]);
        assert_eq!(f.backward(&y, &ctx).unwrap().dims(), x.dims());

        let mut p = MaxPool2d::new(2);
        let y = p.forward(&x, &ctx).unwrap();
        assert_eq!(y.dims(), &[2, 3, 2, 2]);
        assert_eq!(p.backward(&y, &ctx).unwrap().dims(), x.dims());
    }

    #[test]
    fn quantized_forward_close_to_fp32() {
        let fp = QuantCtx::fp32();
        let q8 = QuantCtx::new(TrainingQuantizer::zhang2020_hqt());
        let x = init::normal(&[4, 16], 0.0, 1.0, 8);
        let mut d1 = Dense::new("fc", 16, 8, 2);
        let mut d2 = Dense::new("fc", 16, 8, 2); // same seed, same weights
        let y_fp = d1.forward(&x, &fp).unwrap();
        let y_q = d2.forward(&x, &q8).unwrap();
        let cos = y_fp.cosine_similarity(&y_q).unwrap();
        assert!(cos > 0.999, "cosine {cos}");
    }

    #[test]
    fn q_into_recycles_slot_and_matches_q() {
        let ctx = QuantCtx::new(TrainingQuantizer::zhang2020_hqt()).with_backend(Backend::Fast);
        let x = init::normal(&[8, 32], 0.0, 1.0, 3);
        let mut slot = None;
        ctx.q_into(&x, &mut slot);
        assert_eq!(slot.as_ref().unwrap().data(), ctx.q(&x).data());
        // Steady state: the slot's buffer is recycled, not reallocated.
        let p = slot.as_ref().unwrap().data().as_ptr();
        ctx.q_into(&x, &mut slot);
        assert_eq!(
            slot.as_ref().unwrap().data().as_ptr(),
            p,
            "slot buffer reallocated"
        );
    }

    #[test]
    fn ctx_q_backends_agree() {
        let x = init::long_tailed(&[2048], 0.1, 0.01, 20.0, 6);
        for q in [
            TrainingQuantizer::zhang2020_hqt(),
            TrainingQuantizer::zhong2020(),
            TrainingQuantizer::zhu2019(),
        ] {
            let naive = QuantCtx::new(q.clone()).with_backend(Backend::Naive).q(&x);
            let fast = QuantCtx::new(q).with_backend(Backend::Fast).q(&x);
            assert_eq!(naive.data(), fast.data());
        }
    }

    #[test]
    fn int8_dense_forward_close_to_fp32_and_counts_hits() {
        let fp = QuantCtx::fp32();
        let int = QuantCtx::new(TrainingQuantizer::zhang2020_hqt()).with_path(QuantPath::Int8);
        let x = init::normal(&[4, 32], 0.0, 1.0, 11);
        let mut d1 = Dense::new("fc", 32, 16, 5);
        let mut d2 = Dense::new("fc", 32, 16, 5); // same seed, same weights
        let y_fp = d1.forward(&x, &fp).unwrap();
        let y_int = d2.forward(&x, &int).unwrap();
        assert_eq!(y_int.dims(), y_fp.dims());
        let cos = y_fp.cosine_similarity(&y_int).unwrap();
        assert!(cos > 0.99, "cosine {cos}");
        let stats = int.int_stats();
        assert_eq!(stats.hits(), 1);
        assert_eq!(stats.fallbacks(), 0);
        assert_eq!(stats.hit_rate(), Some(1.0));
    }

    #[test]
    fn int8_dense_output_consistent_with_cached_operands() {
        // The integer accumulation must equal matmul of the dequantized
        // caches (which the f32 backward consumes) up to f32 rounding in
        // the rescale — that is the "single rescale" contract.
        let int = QuantCtx::new(TrainingQuantizer::zhang2020_hqt()).with_path(QuantPath::Int8);
        let x = init::normal(&[3, 24], 0.0, 2.0, 17);
        let mut d = Dense::new("fc", 24, 8, 9);
        let y = d.forward(&x, &int).unwrap();
        let xq = d.cached_xq.as_ref().expect("int path fills caches");
        let wq = d.cached_wq.as_ref().expect("int path fills caches");
        let want = ops::matmul_with(Backend::Naive, xq, wq).unwrap();
        for (i, (&got, &w)) in y.data().iter().zip(want.data()).enumerate() {
            // bias is zero at init, so y should equal the reference matmul
            let tol = 1e-4 * w.abs().max(1.0);
            assert!((got - w).abs() <= tol, "idx {i}: int {got} vs ref {w}");
        }
    }

    #[test]
    fn int8_conv_forward_close_to_fp32() {
        let fp = QuantCtx::fp32();
        let int = QuantCtx::new(TrainingQuantizer::zhang2020_hqt()).with_path(QuantPath::Int8);
        let x = init::normal(&[2, 3, 8, 8], 0.0, 1.0, 21);
        let mut c1 = Conv2d::new("c", 3, 6, 3, 1, 1, 13);
        let mut c2 = Conv2d::new("c", 3, 6, 3, 1, 1, 13);
        let y_fp = c1.forward(&x, &fp).unwrap();
        let y_int = c2.forward(&x, &int).unwrap();
        assert_eq!(y_int.dims(), y_fp.dims());
        let cos = y_fp.cosine_similarity(&y_int).unwrap();
        assert!(cos > 0.99, "cosine {cos}");
        assert_eq!(int.int_stats().hits(), 1);
    }

    #[test]
    fn conv_forward_rejects_zero_stride_on_both_paths() {
        let x = init::normal(&[1, 2, 6, 6], 0.0, 1.0, 4);
        for path in [QuantPath::Fp32, QuantPath::Int8] {
            let ctx = QuantCtx::new(TrainingQuantizer::zhang2020_hqt()).with_path(path);
            let mut c = Conv2d::new("c", 2, 4, 3, 0, 1, 5);
            let r = c.forward(&x, &ctx);
            assert!(
                matches!(&r, Err(NnError::Tensor(TensorError::InvalidArgument(m))) if m.contains("stride")),
                "{path:?}: {r:?}"
            );
            assert_eq!(ctx.int_stats().hits(), 0);
        }
    }

    #[test]
    fn int8_backward_flows_through_cached_operands() {
        let int = QuantCtx::new(TrainingQuantizer::zhang2020_hqt()).with_path(QuantPath::Int8);
        let x = init::normal(&[4, 12], 0.0, 1.0, 3);
        let mut d = Dense::new("fc", 12, 6, 7);
        let y = d.forward(&x, &int).unwrap();
        let gin = d.backward(&Tensor::ones(y.dims()), &int).unwrap();
        assert_eq!(gin.dims(), x.dims());
        assert!(d.params_mut()[0].grad.max_abs() > 0.0);

        let mut c = Conv2d::new("c", 2, 4, 3, 1, 1, 5);
        let xc = init::normal(&[1, 2, 6, 6], 0.0, 1.0, 8);
        let yc = c.forward(&xc, &int).unwrap();
        let ginc = c.backward(&Tensor::ones(yc.dims()), &int).unwrap();
        assert_eq!(ginc.dims(), xc.dims());
        assert!(c.params_mut()[0].grad.max_abs() > 0.0);
    }

    #[test]
    fn int8_off_ladder_block_falls_back_to_fp32_path() {
        let int = QuantCtx::new(TrainingQuantizer::zhang2020_hqt()).with_path(QuantPath::Int8);
        let mut d = Dense::new("fc", 4, 4, 2);
        // Subnormal-magnitude weights: θ/(qmax·2³) is subnormal, the
        // ladder guard rejects, and the pass must fall back — not panic,
        // not emit garbage.
        for v in d.params_mut()[0].value.data_mut() {
            *v = v.signum() * 1.0e-41;
        }
        let x = init::normal(&[2, 4], 0.0, 1.0, 6);
        let y = d.forward(&x, &int).unwrap();
        assert_eq!(y.dims(), &[2, 4]);
        assert!(y.data().iter().all(|v| v.is_finite()));
        let stats = int.int_stats();
        assert_eq!(stats.hits(), 0);
        assert_eq!(stats.fallbacks(), 1);
    }

    #[test]
    fn int8_path_ignored_by_fp32_ctx_and_shared_by_clones() {
        // A context starts on the f32 path.
        assert_eq!(QuantCtx::fp32().path, QuantPath::Fp32);
        let hqt = QuantCtx::new(TrainingQuantizer::zhang2020_hqt());
        assert_eq!(hqt.path, QuantPath::Fp32);
        // Clones share the stats handle but keep their own scratch.
        let int = QuantCtx::new(TrainingQuantizer::zhang2020_hqt()).with_path(QuantPath::Int8);
        let cloned = int.clone();
        assert_eq!(cloned.path, QuantPath::Int8);
        let mut d = Dense::new("fc", 8, 8, 1);
        let x = init::normal(&[2, 8], 0.0, 1.0, 2);
        d.forward(&x, &cloned).unwrap();
        assert_eq!(int.int_stats().hits(), 1, "stats shared across clones");
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fp32_quantizer_ignores_the_int8_path() {
        let fp = QuantCtx::fp32();
        let int = QuantCtx::new(TrainingQuantizer::fp32()).with_path(QuantPath::Int8);
        let x = init::normal(&[4, 32], 0.0, 1.0, 11);
        let (mut d1, mut d2) = (Dense::new("fc", 32, 16, 5), Dense::new("fc", 32, 16, 5));
        let (y_fp, y_int) = (d1.forward(&x, &fp).unwrap(), d2.forward(&x, &int).unwrap());
        assert_eq!(bits(&y_fp), bits(&y_int));
        let x = init::normal(&[2, 3, 8, 8], 0.0, 1.0, 21);
        let mut c1 = Conv2d::new("c", 3, 6, 3, 1, 1, 13);
        let mut c2 = Conv2d::new("c", 3, 6, 3, 1, 1, 13);
        let (y_fp, y_int) = (c1.forward(&x, &fp).unwrap(), c2.forward(&x, &int).unwrap());
        assert_eq!(bits(&y_fp), bits(&y_int));
        let stats = int.int_stats();
        assert_eq!((stats.hits(), stats.fallbacks()), (0, 0));
    }

    #[test]
    fn pool_after_a_conv_quantizes_its_gradient_where_the_context_allows() {
        // The pool a conv feeds writes `ctx.q` of the plain unpooled
        // gradient where the predicate holds for an HQT scheme, and the
        // plain gradient everywhere else: under the identity scheme, the
        // naive backend and the schemes the conv quantizes itself. The
        // 3×3 windows leave two rows and one column of each 11×10 plane
        // unpooled, and the LDQ and K = 256 blocks straddle planes.
        let f32_path = |q| QuantCtx::new(q).with_path(QuantPath::Fp32);
        let cases = [
            (f32_path(TrainingQuantizer::zhang2020_hqt()), true),
            (f32_path(TrainingQuantizer::zhong2020()), true),
            (
                f32_path(TrainingQuantizer::ldq_only(7, cq_quant::IntFormat::Int4)),
                true,
            ),
            (QuantCtx::fp32(), false),
            (
                f32_path(TrainingQuantizer::zhang2020_hqt()).with_backend(Backend::Naive),
                false,
            ),
            (f32_path(TrainingQuantizer::zhu2019()), false),
            (f32_path(TrainingQuantizer::wang2018(3)), false),
            (
                f32_path(TrainingQuantizer::static_range(
                    1.0,
                    cq_quant::IntFormat::Int8,
                )),
                false,
            ),
        ];
        for (ctx, quantizes) in cases {
            let identity = !ctx.quantizer.is_quantized();
            for (k, x_shape, g_shape) in [
                (2, [2, 3, 6, 5], [2, 3, 3, 2]),
                (3, [2, 3, 11, 10], [2, 3, 3, 3]),
            ] {
                let name = format!("{} on {:?}, k = {k}", ctx.quantizer.name(), ctx.backend);
                assert_eq!(
                    ctx.pool_quantizes_conv_grad(),
                    quantizes || identity,
                    "{name}"
                );
                let x = init::normal(&x_shape, 0.0, 1.0, 7);
                let g = init::normal(&g_shape, 0.0, 1.0, 8);
                let mut plain = MaxPool2d::new(k);
                let mut fed = MaxPool2d::new(k);
                fed.follow_conv();
                plain.forward(&x, &ctx).unwrap();
                fed.forward(&x, &ctx).unwrap();
                let unpooled = plain.backward(&g, &ctx).unwrap();
                let want = if quantizes {
                    let q = ctx.q(&unpooled);
                    assert_ne!(bits(&q), bits(&unpooled), "{name}: quantization is visible");
                    q
                } else {
                    unpooled
                };
                assert_eq!(
                    bits(&fed.backward(&g, &ctx).unwrap()),
                    bits(&want),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn kept_grads_hand_each_block_its_nonzeros_and_length() {
        // Three 4×5 planes pooled with k = 2 (one unpooled column), in
        // blocks of 7, 15 and 40 elements: blocks straddle planes, the
        // last one is ragged (except for 15) and holds a nonzero, and
        // every call must get exactly the block's nonzeros of the plain
        // unpooled gradient, in order, with the block's length. Window
        // gradients include ±0 and NaN; one window is dropped.
        let (k, [h, w]) = (2, [4, 5]);
        let g = [
            1.5,
            -0.0,
            0.0,
            f32::NAN,
            -2.0,
            3.0,
            0.25,
            0.0,
            4.0,
            -1.0,
            0.5,
            7.0,
        ];
        let offsets = [3, 0, DROPPED, 1, 2, 1, 0, 3, 1, 2, 0, 3];
        let mut plain = Vec::new();
        unpool_pass(k, &g, &offsets, [h, w], &mut plain);
        for block in [7, 15, 40] {
            let mut calls = Vec::new();
            let mut record = |vals: &mut [f32], len: usize| {
                calls.push((vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), len));
            };
            let (mut kept, mut grad_in) = (KeptGrads::default(), Vec::new());
            let total = 3 * h * w;
            let mut nonzeros = 0;
            for (g_plane, off_plane) in g.chunks_exact(4).zip(offsets.chunks_exact(4)) {
                let start = grad_in.len();
                grad_in.resize(start + h * w, 0.0);
                nonzeros += kept.gather(k, g_plane, off_plane, w, start);
                kept.flush(block, [start + h * w, total], &mut grad_in, &mut record);
            }
            assert!(kept.vals.is_empty(), "block {block}: gradients left over");
            let want: Vec<_> = plain
                .chunks(block)
                .map(|b| {
                    let nz = b.iter().filter(|v| **v != 0.0);
                    (nz.map(|v| v.to_bits()).collect::<Vec<_>>(), b.len())
                })
                .filter(|(nz, _)| !nz.is_empty())
                .collect();
            assert_eq!(calls, want, "block {block}");
            assert_eq!(nonzeros, 9, "block {block}");
            // `record` leaves the values as they are: the gradient is the
            // plain one.
            let as_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(as_bits(&grad_in), as_bits(&plain), "block {block}");
        }
    }

    #[test]
    fn dense_feature_getters() {
        let d = Dense::new("fc", 5, 9, 0);
        assert_eq!(d.in_features(), 5);
        assert_eq!(d.out_features(), 9);
        assert_eq!(d.name(), "fc");
    }
}
