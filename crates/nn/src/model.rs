//! The [`Sequential`] model container and single-step training driver.

use crate::error::NnError;
use crate::layers::{Layer, MaxPool2d, QuantCtx, Relu};
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
    layers: Vec<Box<dyn Layer>>,
    /// Whether the last layer added is a [`Relu`] that a following
    /// [`MaxPool2d`] may absorb.
    last_is_relu: bool,
}

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
    pub fn add(&mut self, mut layer: impl Layer + 'static) -> &mut Self {
        let incoming: &mut dyn Any = &mut layer;
        if self.last_is_relu {
            if let Some(pool) = incoming.downcast_mut::<MaxPool2d>() {
                pool.absorb_relu();
                self.layers.pop();
            }
        }
        self.last_is_relu = (&layer as &dyn Any).is::<Relu>();
        self.layers.push(Box::new(layer));
        self
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

    /// Forward pass through every layer.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward(&mut self, x: &Tensor, ctx: &QuantCtx) -> Result<Tensor, NnError> {
        let _sp = cq_obs::span!("nn", "forward");
        let mut cur = x.clone();
        for layer in &mut self.layers {
            let _layer_sp = cq_obs::span!("nn.layer", "{}:FW", layer.name());
            cur = layer.forward(&cur, ctx)?;
        }
        Ok(cur)
    }

    /// Backward pass from the loss gradient; accumulates parameter grads.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (e.g. backward before forward).
    pub fn backward(&mut self, grad: &Tensor, ctx: &QuantCtx) -> Result<Tensor, NnError> {
        let _sp = cq_obs::span!("nn", "backward");
        let mut cur = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            let _layer_sp = cq_obs::span!("nn.layer", "{}:BW", layer.name());
            cur = layer.backward(&cur, ctx)?;
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
    use crate::layers::{Dense, Relu};
    use crate::optim::Sgd;
    use cq_tensor::init;

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
    fn display() {
        let model = Sequential::new();
        assert_eq!(model.to_string(), "Sequential[0 layers]");
    }
}
