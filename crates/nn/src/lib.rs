//! # cq-nn — DNN training substrate with quantization-aware compute
//!
//! A from-scratch training framework sufficient to run the paper's
//! quantized-training accuracy experiments at small scale:
//!
//! * layers: [`Dense`], [`Conv2d`], [`Relu`], [`MaxPool2d`], [`Flatten`] —
//!   all quantization-aware via the [`QuantCtx`] threaded through
//!   forward/backward (quantized FW/NG/WG operands, full-precision master
//!   weights and ΔW, exactly the Fig. 7 dataflow);
//! * [`intpath`]: the int8 forward a context selects with
//!   [`QuantCtx::with_path`]`(`[`QuantPath::Int8`]`)` —
//!   [`Dense`]/[`Conv2d`] forwards run dequantization-free through
//!   i8×i8→i32 kernels with one output rescale, falling back to f32 per
//!   pass when a block's scale leaves the power-of-two ladder;
//! * [`Lstm`] and [`SelfAttention`] for the recurrent and attention
//!   benchmarks;
//! * [`optim`]: the four Table IV optimizers (SGD, AdaGrad, RMSProp, Adam)
//!   that the NDP optimizer must reproduce;
//! * [`loss`]: softmax cross-entropy and MSE with analytic gradients;
//! * [`Sequential`]: the model container and training driver.
//!
//! # Examples
//!
//! ```
//! use cq_nn::{Dense, Relu, Sequential, Adam, QuantCtx};
//! use cq_quant::TrainingQuantizer;
//! use cq_tensor::init;
//!
//! // Train one step with Zhang-2020+HQT INT8 quantization.
//! let mut model = Sequential::new();
//! model.add(Dense::new("fc1", 8, 32, 1)).add(Relu::new()).add(Dense::new("fc2", 32, 3, 2));
//! let ctx = QuantCtx::new(TrainingQuantizer::zhang2020_hqt());
//! let x = init::normal(&[6, 8], 0.0, 1.0, 3);
//! let mut opt = Adam::with_defaults(1e-3);
//! let report = model.train_step(&x, &[0, 1, 2, 0, 1, 2], &mut opt, &ctx)?;
//! assert!(report.loss.is_finite());
//! # Ok::<(), cq_nn::NnError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index-based numeric kernels read clearer here

mod attention;
pub mod checkpoint;
mod crc32;
mod error;
pub mod intpath;
mod layers;
pub mod loss;
mod lstm;
mod model;
pub mod optim;
mod param;

pub use attention::SelfAttention;
pub use error::NnError;
pub use intpath::{IntPathStats, QuantPath};
pub use layers::{Conv2d, Dense, Flatten, Layer, MaxPool2d, QuantCtx, Relu};
pub use lstm::Lstm;
pub use model::{Sequential, StepReport};
pub use optim::{AdaGrad, Adam, Optimizer, RmsProp, Sgd};
pub use param::Param;
