//! The four optimizers of the paper's Table IV: SGD, AdaGrad, RMSProp and
//! Adam — exactly the update rules the NDP optimizer (NDPO) must realize.
//!
//! The NDPO hardware in `cq-ndp` implements the unified Eq. 1 datapath;
//! its unit tests verify bit-level agreement with these reference
//! implementations.

use crate::param::Param;
use std::fmt;

/// Numerical floor added before reciprocal square roots.
pub const EPS: f32 = 1e-8;

/// A gradient-descent optimizer (Table IV).
///
/// Implementations keep per-parameter state internally, keyed by the
/// position of the parameter in the `params` slice — callers must pass
/// parameters in a stable order every step.
pub trait Optimizer: fmt::Debug {
    /// Applies one update step to every parameter from its accumulated
    /// gradient. Gradients are *not* cleared.
    fn step(&mut self, params: &mut [&mut Param]);

    /// The optimizer's display name.
    fn name(&self) -> &'static str;
}

/// Plain stochastic gradient descent: `w ← w − η·g`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sgd {
    /// Learning rate η.
    pub lr: f32,
}

impl Sgd {
    /// Creates SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        for p in params {
            let lr = self.lr;
            for (w, &g) in p.value.data_mut().iter_mut().zip(p.grad.data()) {
                *w -= lr * g;
            }
        }
    }

    fn name(&self) -> &'static str {
        "SGD"
    }
}

/// AdaGrad: `m ← m + g²`, `w ← w − η·g·m^(−1/2)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaGrad {
    /// Learning rate η.
    pub lr: f32,
    m: Vec<Vec<f32>>,
}

impl AdaGrad {
    /// Creates AdaGrad with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        AdaGrad { lr, m: Vec::new() }
    }
}

impl Optimizer for AdaGrad {
    fn step(&mut self, params: &mut [&mut Param]) {
        ensure_state(&mut self.m, params);
        for (i, p) in params.iter_mut().enumerate() {
            let m = &mut self.m[i];
            for ((w, &g), mi) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(m.iter_mut())
            {
                *mi += g * g;
                *w -= self.lr * g / (mi.sqrt() + EPS);
            }
        }
    }

    fn name(&self) -> &'static str {
        "AdaGrad"
    }
}

/// RMSProp: `m ← β·m + (1−β)·g²`, `w ← w − η·g·m^(−1/2)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RmsProp {
    /// Learning rate η.
    pub lr: f32,
    /// Decay rate β.
    pub beta: f32,
    m: Vec<Vec<f32>>,
}

impl RmsProp {
    /// Creates RMSProp with learning rate `lr` and decay `beta`.
    pub fn new(lr: f32, beta: f32) -> Self {
        RmsProp {
            lr,
            beta,
            m: Vec::new(),
        }
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, params: &mut [&mut Param]) {
        ensure_state(&mut self.m, params);
        for (i, p) in params.iter_mut().enumerate() {
            let m = &mut self.m[i];
            for ((w, &g), mi) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(m.iter_mut())
            {
                *mi = self.beta * *mi + (1.0 - self.beta) * g * g;
                *w -= self.lr * g / (mi.sqrt() + EPS);
            }
        }
    }

    fn name(&self) -> &'static str {
        "RMSProp"
    }
}

/// Adam (Kingma & Ba 2015) with bias correction, exactly as in Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    /// Learning rate η.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    t: u32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with custom hyper-parameters.
    pub fn new(lr: f32, beta1: f32, beta2: f32) -> Self {
        Adam {
            lr,
            beta1,
            beta2,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adam with the standard defaults (β₁=0.9, β₂=0.999).
    pub fn with_defaults(lr: f32) -> Self {
        Adam::new(lr, 0.9, 0.999)
    }

    /// Steps taken so far.
    pub fn timestep(&self) -> u32 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        ensure_state(&mut self.m, params);
        ensure_state(&mut self.v, params);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in params.iter_mut().enumerate() {
            let (m, v) = (&mut self.m[i], &mut self.v[i]);
            for (((w, &g), mi), vi) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= self.lr * m_hat / (v_hat.sqrt() + EPS);
            }
        }
    }

    fn name(&self) -> &'static str {
        "Adam"
    }
}

fn ensure_state(state: &mut Vec<Vec<f32>>, params: &[&mut Param]) {
    while state.len() < params.len() {
        let i = state.len();
        state.push(vec![0.0; params[i].len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_tensor::Tensor;

    fn param(w: &[f32], g: &[f32]) -> Param {
        let mut p = Param::new(Tensor::from_vec(w.to_vec(), &[w.len()]).unwrap());
        p.grad = Tensor::from_vec(g.to_vec(), &[g.len()]).unwrap();
        p
    }

    #[test]
    fn sgd_rule() {
        let mut p = param(&[1.0, 2.0], &[0.5, -0.5]);
        Sgd::new(0.1).step(&mut [&mut p]);
        assert!((p.value.data()[0] - 0.95).abs() < 1e-6);
        assert!((p.value.data()[1] - 2.05).abs() < 1e-6);
    }

    #[test]
    fn adagrad_rule() {
        let mut p = param(&[1.0], &[2.0]);
        let mut opt = AdaGrad::new(0.1);
        opt.step(&mut [&mut p]);
        // m = 4, w -= 0.1*2/2 = 0.1.
        assert!((p.value.data()[0] - 0.9).abs() < 1e-5);
        opt.step(&mut [&mut p]);
        // m = 8, w -= 0.1*2/sqrt(8).
        assert!((p.value.data()[0] - (0.9 - 0.2 / 8f32.sqrt())).abs() < 1e-5);
    }

    #[test]
    fn rmsprop_rule() {
        let mut p = param(&[1.0], &[1.0]);
        let mut opt = RmsProp::new(0.01, 0.9);
        opt.step(&mut [&mut p]);
        // m = 0.1, step = 0.01/sqrt(0.1).
        let expect = 1.0 - 0.01 / 0.1f32.sqrt();
        assert!((p.value.data()[0] - expect).abs() < 1e-5);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the very first Adam step ≈ lr for any g.
        let mut p = param(&[0.0], &[123.0]);
        let mut opt = Adam::with_defaults(0.001);
        opt.step(&mut [&mut p]);
        assert!((p.value.data()[0] + 0.001).abs() < 1e-6);
        assert_eq!(opt.timestep(), 1);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(w) = (w-3)^2 with analytic gradient.
        let mut p = param(&[0.0], &[0.0]);
        let mut opt = Adam::with_defaults(0.1);
        for _ in 0..500 {
            let w = p.value.data()[0];
            p.grad.data_mut()[0] = 2.0 * (w - 3.0);
            opt.step(&mut [&mut p]);
        }
        assert!((p.value.data()[0] - 3.0).abs() < 0.05);
    }

    #[test]
    fn optimizers_handle_multiple_params() {
        let mut a = param(&[1.0], &[1.0]);
        let mut b = param(&[1.0, 1.0], &[1.0, 1.0]);
        let mut opt = Adam::with_defaults(0.01);
        opt.step(&mut [&mut a, &mut b]);
        assert!(a.value.data()[0] < 1.0);
        assert!(b.value.data()[1] < 1.0);
    }

    #[test]
    fn names_match_table4() {
        assert_eq!(Sgd::new(0.1).name(), "SGD");
        assert_eq!(AdaGrad::new(0.1).name(), "AdaGrad");
        assert_eq!(RmsProp::new(0.1, 0.9).name(), "RMSProp");
        assert_eq!(Adam::with_defaults(0.1).name(), "Adam");
    }
}
