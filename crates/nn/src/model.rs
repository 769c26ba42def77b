//! The [`Sequential`] model container and single-step training driver.

use crate::error::NnError;
use crate::layers::{Conv2d, Layer, MaxPool2d, QuantCtx, Relu};
use crate::loss::{accuracy, softmax_cross_entropy};
use crate::optim::Optimizer;
use cq_tensor::Tensor;
use std::any::Any;
use std::fmt;

/// A feed-forward stack of layers trained end to end.
///
/// # Examples
///
/// ```
/// use cq_nn::{Dense, Relu, Sequential, Sgd, QuantCtx};
/// use cq_tensor::init;
///
/// let mut model = Sequential::new();
/// model.add(Dense::new("fc1", 4, 16, 1)).add(Relu::new()).add(Dense::new("fc2", 16, 2, 2));
/// let x = init::normal(&[8, 4], 0.0, 1.0, 3);
/// let labels = vec![0usize, 1, 0, 1, 0, 1, 0, 1];
/// let mut opt = Sgd::new(0.1);
/// let report = model.train_step(&x, &labels, &mut opt, &QuantCtx::fp32())?;
/// assert!(report.loss > 0.0);
/// # Ok::<(), cq_nn::NnError>(())
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn AnyLayer>>,
}

/// A [`Layer`] that [`Sequential::add`] can also look at as [`Any`], to
/// find the layer types it fuses after they are boxed.
trait AnyLayer: Layer + Any {}

impl<T: Layer + Any> AnyLayer for T {}

/// Metrics of one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Mean loss of the minibatch.
    pub loss: f32,
    /// Minibatch accuracy.
    pub accuracy: f64,
}

impl Sequential {
    /// An empty model.
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Appends a layer.
    ///
    /// A [`MaxPool2d`] added right after a [`Relu`] replaces that ReLU
    /// and applies it inside its own window pass, so the pair is stored,
    /// traced (as `relu+maxpool2d`) and counted as one layer. Outputs and
    /// gradients are bitwise those of the two layers; the pair just skips
    /// the ReLU's own pass over memory and its mask.
    ///
    /// A [`MaxPool2d`] that then sits right after a [`Conv2d`] also
    /// quantizes the conv's ∂y while it writes it, on the fast backend
    /// with an HQT scheme, and the conv skips its own pass over the ∂y.
    /// The gradients are bitwise the same.
    pub fn add(&mut self, mut layer: impl Layer + 'static) -> &mut Self {
        let incoming: &mut dyn Any = &mut layer;
        if let Some(pool) = incoming.downcast_mut::<MaxPool2d>() {
            if self.last_mut::<Relu>().is_some() {
                pool.absorb_relu();
                self.layers.pop();
            }
            if let Some(conv) = self.last_mut::<Conv2d>() {
                conv.feed_pool();
                pool.follow_conv();
            }
        }
        self.layers.push(Box::new(layer));
        self
    }

    /// The last layer, if it is a `T`.
    fn last_mut<T: Any>(&mut self) -> Option<&mut T> {
        let last: &mut dyn Any = self.layers.last_mut()?.as_mut();
        last.downcast_mut()
    }

    /// Number of layers; a ReLU absorbed by the max-pool after it does
    /// not count (see [`Sequential::add`]).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total trainable scalar parameters.
    pub fn param_count(&mut self) -> usize {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .map(|p| p.len())
            .sum()
    }

    /// Forward pass through every layer. The first layer reads `x`
    /// itself; an empty model returns a copy of it.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward(&mut self, x: &Tensor, ctx: &QuantCtx) -> Result<Tensor, NnError> {
        let _sp = cq_obs::span!("nn", "forward");
        let mut cur: Option<Tensor> = None;
        for layer in &mut self.layers {
            let _layer_sp = cq_obs::span!("nn.layer", "{}:FW", layer.name());
            cur = Some(layer.forward(cur.as_ref().unwrap_or(x), ctx)?);
        }
        Ok(cur.unwrap_or_else(|| x.clone()))
    }

    /// Backward pass from the loss gradient; accumulates parameter grads.
    /// The last layer reads `grad` itself. The first layer runs
    /// [`Layer::backward_params`]: nothing reads the gradient with
    /// respect to the model input, so a [`crate::Conv2d`] or
    /// [`crate::Dense`] there skips its input-gradient GEMM. The
    /// parameter gradients are bitwise those of a full backward.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (e.g. backward before forward).
    pub fn backward(&mut self, grad: &Tensor, ctx: &QuantCtx) -> Result<(), NnError> {
        self.backward_layers(grad, ctx, false).map(drop)
    }

    /// [`Sequential::backward`] that also computes and returns the
    /// gradient with respect to the model input, the first layer running
    /// its full [`Layer::backward`]. An empty model returns a copy of
    /// `grad`.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (e.g. backward before forward).
    pub fn backward_to_input(&mut self, grad: &Tensor, ctx: &QuantCtx) -> Result<Tensor, NnError> {
        Ok(self
            .backward_layers(grad, ctx, true)?
            .unwrap_or_else(|| grad.clone()))
    }

    /// The layer walk of both backward entries, last layer first. Returns
    /// the first layer's input gradient, or `None` for an empty model or
    /// when the first layer runs [`Layer::backward_params`] (not
    /// `with_input`).
    fn backward_layers(
        &mut self,
        grad: &Tensor,
        ctx: &QuantCtx,
        with_input: bool,
    ) -> Result<Option<Tensor>, NnError> {
        let _sp = cq_obs::span!("nn", "backward");
        let mut cur: Option<Tensor> = None;
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let _layer_sp = cq_obs::span!("nn.layer", "{}:BW", layer.name());
            let g = cur.as_ref().unwrap_or(grad);
            if i == 0 && !with_input {
                layer.backward_params(g, ctx)?;
                return Ok(None);
            }
            cur = Some(layer.backward(g, ctx)?);
        }
        Ok(cur)
    }

    /// Clears all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                p.zero_grad();
            }
        }
    }

    /// All trainable parameters in stable (layer) order.
    pub fn params_mut(&mut self) -> Vec<&mut crate::param::Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Applies one optimizer step over all parameters.
    pub fn step_optimizer(&mut self, opt: &mut dyn Optimizer) {
        let mut params = self.params_mut();
        opt.step(&mut params);
    }

    /// One full training step: zero grads → forward → cross-entropy loss →
    /// backward → optimizer update.
    ///
    /// # Errors
    ///
    /// Propagates layer and loss errors.
    pub fn train_step(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        opt: &mut dyn Optimizer,
        ctx: &QuantCtx,
    ) -> Result<StepReport, NnError> {
        let mut sp = cq_obs::span!("nn", "train_step");
        if sp.is_recording() {
            sp.arg("batch", labels.len())
                .arg("layers", self.layers.len());
            cq_obs::counter!("nn.train_steps").incr();
            cq_obs::counter!("nn.samples_trained").add(labels.len() as u64);
        }
        self.zero_grads();
        let logits = self.forward(x, ctx)?;
        let out = {
            let _loss_sp = cq_obs::span!("nn", "loss");
            softmax_cross_entropy(&logits, labels)?
        };
        self.backward(&out.grad, ctx)?;
        {
            let _opt_sp = cq_obs::span!("nn", "optimizer");
            self.step_optimizer(opt);
        }
        if sp.is_recording() {
            cq_obs::gauge!("nn.last_loss").set(out.loss as f64);
        }
        Ok(StepReport {
            loss: out.loss,
            accuracy: accuracy(&logits, labels),
        })
    }

    /// Evaluates classification accuracy on a batch without training.
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn evaluate(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        ctx: &QuantCtx,
    ) -> Result<f64, NnError> {
        let logits = self.forward(x, ctx)?;
        Ok(accuracy(&logits, labels))
    }

    /// Snapshot of per-layer gradient statistics `(layer name, max |g|)`
    /// for the parameters of each layer — the quantity Fig. 2 plots.
    pub fn grad_max_abs(&mut self) -> Vec<(String, f32)> {
        self.layers
            .iter_mut()
            .filter_map(|l| {
                let name = l.name().to_string();
                let max = l
                    .params_mut()
                    .iter()
                    .map(|p| p.grad.max_abs())
                    .fold(0.0f32, f32::max);
                if max > 0.0 || !l.params_mut().is_empty() {
                    Some((name, max))
                } else {
                    None
                }
            })
            .collect()
    }
}

impl fmt::Display for Sequential {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sequential[{} layers]", self.layers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intpath::QuantPath;
    use crate::layers::{Dense, Flatten, Relu};
    use crate::optim::Sgd;
    use crate::param::Param;
    use cq_quant::TrainingQuantizer;
    use cq_tensor::{init, Backend};
    use std::sync::{Arc, Mutex};

    fn xor_data() -> (Tensor, Vec<usize>) {
        // Classic XOR, replicated 4x for a batch of 16.
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..4 {
            for (a, b, l) in [(0.0, 0.0, 0), (0.0, 1.0, 1), (1.0, 0.0, 1), (1.0, 1.0, 0)] {
                xs.push(a);
                xs.push(b);
                labels.push(l);
            }
        }
        (Tensor::from_vec(xs, &[16, 2]).unwrap(), labels)
    }

    #[test]
    fn learns_xor() {
        let mut model = Sequential::new();
        model
            .add(Dense::new("fc1", 2, 16, 11))
            .add(Relu::new())
            .add(Dense::new("fc2", 16, 2, 12));
        let (x, labels) = xor_data();
        let mut opt = Sgd::new(0.5);
        let ctx = QuantCtx::fp32();
        let mut last = StepReport {
            loss: f32::INFINITY,
            accuracy: 0.0,
        };
        for _ in 0..500 {
            last = model.train_step(&x, &labels, &mut opt, &ctx).unwrap();
        }
        assert_eq!(last.accuracy, 1.0, "failed to learn XOR: {last:?}");
        assert!(last.loss < 0.1);
    }

    #[test]
    fn param_count_sums_layers() {
        let mut model = Sequential::new();
        model
            .add(Dense::new("a", 3, 4, 0))
            .add(Dense::new("b", 4, 2, 1));
        assert_eq!(model.param_count(), 3 * 4 + 4 + 4 * 2 + 2);
        assert_eq!(model.len(), 2);
        assert!(!model.is_empty());
    }

    #[test]
    fn zero_grads_clears() {
        let mut model = Sequential::new();
        model.add(Dense::new("a", 2, 2, 0));
        let x = init::normal(&[4, 2], 0.0, 1.0, 1);
        let ctx = QuantCtx::fp32();
        let y = model.forward(&x, &ctx).unwrap();
        model.backward(&Tensor::ones(y.dims()), &ctx).unwrap();
        let g1: f32 = model.grad_max_abs().iter().map(|(_, g)| g).sum();
        assert!(g1 > 0.0);
        model.zero_grads();
        let g2: f32 = model.grad_max_abs().iter().map(|(_, g)| g).sum();
        assert_eq!(g2, 0.0);
    }

    #[test]
    fn grad_stats_report_layer_names() {
        let mut model = Sequential::new();
        model.add(Dense::new("first", 2, 2, 0)).add(Relu::new());
        let x = init::normal(&[2, 2], 0.0, 1.0, 1);
        let ctx = QuantCtx::fp32();
        let y = model.forward(&x, &ctx).unwrap();
        model.backward(&Tensor::ones(y.dims()), &ctx).unwrap();
        let stats = model.grad_max_abs();
        assert_eq!(stats.len(), 1); // relu has no params
        assert_eq!(stats[0].0, "first");
    }

    #[test]
    fn empty_model_returns_a_copy_of_its_input() {
        let mut model = Sequential::new();
        let x = init::normal(&[3, 4], 0.0, 1.0, 2);
        let ctx = QuantCtx::fp32();
        assert_eq!(model.forward(&x, &ctx).unwrap(), x);
        assert_eq!(model.backward_to_input(&x, &ctx).unwrap(), x);
        model.backward(&x, &ctx).unwrap();
    }

    /// Passes values through and logs which backward method ran.
    #[derive(Debug)]
    struct Recorder {
        name: &'static str,
        log: Arc<Mutex<Vec<String>>>,
    }

    impl Layer for Recorder {
        fn forward(&mut self, x: &Tensor, _ctx: &QuantCtx) -> Result<Tensor, NnError> {
            Ok(x.clone())
        }

        fn backward(&mut self, grad_out: &Tensor, _ctx: &QuantCtx) -> Result<Tensor, NnError> {
            let entry = format!("{}:backward", self.name);
            self.log.lock().unwrap().push(entry);
            Ok(grad_out.clone())
        }

        fn backward_params(&mut self, _grad_out: &Tensor, _ctx: &QuantCtx) -> Result<(), NnError> {
            let entry = format!("{}:backward_params", self.name);
            self.log.lock().unwrap().push(entry);
            Ok(())
        }

        fn name(&self) -> &str {
            self.name
        }
    }

    /// A small bench-CNN (conv first) or MLP (dense first), built with
    /// [`Sequential::add`], and the same layers unfused, to step by hand.
    fn first_layer_models(conv_first: bool) -> (Sequential, Vec<Box<dyn Layer>>) {
        let mut model = Sequential::new();
        if conv_first {
            let conv = || Conv2d::new("conv1", 3, 4, 3, 1, 1, 11);
            let fc = || Dense::new("fc", 4 * 3 * 3, 3, 12);
            model
                .add(conv())
                .add(Relu::new())
                .add(MaxPool2d::new(2))
                .add(Flatten::new())
                .add(fc());
            let layers: Vec<Box<dyn Layer>> = vec![
                Box::new(conv()),
                Box::new(Relu::new()),
                Box::new(MaxPool2d::new(2)),
                Box::new(Flatten::new()),
                Box::new(fc()),
            ];
            (model, layers)
        } else {
            let (fc1, fc2) = (
                || Dense::new("fc1", 6, 8, 13),
                || Dense::new("fc2", 8, 3, 14),
            );
            model.add(fc1()).add(Relu::new()).add(fc2());
            let layers: Vec<Box<dyn Layer>> =
                vec![Box::new(fc1()), Box::new(Relu::new()), Box::new(fc2())];
            (model, layers)
        }
    }

    fn grad_bits<'a>(params: impl IntoIterator<Item = &'a mut Param>) -> Vec<Vec<u32>> {
        params
            .into_iter()
            .map(|p| p.grad.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn backward_skips_only_the_first_input_gradient() {
        // Which method each layer gets.
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut model = Sequential::new();
        for name in ["a", "b", "c"] {
            let log = Arc::clone(&log);
            model.add(Recorder { name, log });
        }
        let ctx = QuantCtx::fp32();
        let x = init::normal(&[2, 3], 0.0, 1.0, 1);
        model.forward(&x, &ctx).unwrap();
        model.backward(&x, &ctx).unwrap();
        let ran = std::mem::take(&mut *log.lock().unwrap());
        assert_eq!(ran, ["c:backward", "b:backward", "a:backward_params"]);
        assert_eq!(model.backward_to_input(&x, &ctx).unwrap(), x);
        let ran = std::mem::take(&mut *log.lock().unwrap());
        assert_eq!(ran, ["c:backward", "b:backward", "a:backward"]);

        // The parameter gradients are those of every layer's full
        // backward, stepped by hand, bit for bit.
        let labels = [0usize, 2];
        for conv_first in [true, false] {
            let x = if conv_first {
                init::normal(&[2, 3, 6, 6], 0.0, 1.0, 15)
            } else {
                init::normal(&[2, 6], 0.0, 1.0, 16)
            };
            for backend in [Backend::Naive, Backend::Fast] {
                for path in [QuantPath::Fp32, QuantPath::Int8] {
                    for q in [
                        TrainingQuantizer::fp32(),
                        TrainingQuantizer::zhang2020_hqt(),
                    ] {
                        let case = format!("{} {backend:?} {path:?} conv {conv_first}", q.name());
                        let ctx = QuantCtx::new(q).with_backend(backend).with_path(path);
                        let (mut model, mut layers) = first_layer_models(conv_first);
                        let logits = model.forward(&x, &ctx).unwrap();
                        let grad = softmax_cross_entropy(&logits, &labels).unwrap().grad;
                        model.backward(&grad, &ctx).unwrap();

                        let mut cur = x.clone();
                        for layer in &mut layers {
                            cur = layer.forward(&cur, &ctx).unwrap();
                        }
                        let mut g = softmax_cross_entropy(&cur, &labels).unwrap().grad;
                        for layer in layers.iter_mut().rev() {
                            g = layer.backward(&g, &ctx).unwrap();
                        }
                        assert_eq!(g.dims(), x.dims(), "{case}");
                        let want = grad_bits(layers.iter_mut().flat_map(|l| l.params_mut()));
                        assert!(want.iter().flatten().any(|&b| b != 0), "{case}");
                        assert_eq!(grad_bits(model.params_mut()), want, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn display() {
        let model = Sequential::new();
        assert_eq!(model.to_string(), "Sequential[0 layers]");
    }
}
