//! # cq-quant — Hardware-friendly Quantization Technique (HQT)
//!
//! The algorithmic core of the Cambricon-Q reproduction (paper §III):
//!
//! * [`format`](mod@format): fixed-point widths (INT4/8/12/16) and affine quantization
//!   parameters `X_q = round((X − α)/β)`;
//! * [`qtensor`]: the [`QuantizedTensor`] container and error metrics;
//! * [`ldq`]: **Local Dynamic Quantization** — block-local statistic +
//!   quantize in one pass, with the error-domination and compression-ratio
//!   properties from the paper;
//! * [`e2bqm`]: **Error-estimation-based Quantization Multiplexing** — the
//!   unified N-way candidate/arbiter procedure that subsumes shiftable
//!   fixed-point, BiScaled-FxP, adaptive precision and direction-sensitive
//!   clipping;
//! * [`algorithms`]: the Table III algorithm registry plus ready-made
//!   training quantizers (Zhu 2019 / Zhang 2020, each ± HQT);
//! * [`intdomain`]: the dequantization-free integer-domain strategy — one
//!   base quantization, shift-derived ladder candidates, i64 error folds,
//!   i8 codes + an exact power-of-two scale for the i8 instantiation of
//!   `cq_par::gemm`.
//!
//! # Examples
//!
//! ```
//! use cq_quant::{IntFormat, LdqConfig, LdqTensor};
//! use cq_tensor::init;
//!
//! // One-pass block-local quantization of a long-tailed gradient tensor.
//! let grads = init::long_tailed(&[4096], 0.01, 0.01, 50.0, 42);
//! let q = LdqTensor::quantize(&grads, LdqConfig::new(1024, IntFormat::Int8));
//! let restored = q.dequantize();
//! assert!(grads.cosine_similarity(&restored).unwrap() > 0.98);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithms;
pub mod e2bqm;
pub mod fast;
pub mod format;
pub mod guard;
pub mod intdomain;
pub mod ldq;
#[cfg(test)]
mod level_parity;
pub mod qtensor;
pub mod rounding;

pub use algorithms::{QuantScheme, TrainingQuantizer, WeightUpdatePrecision};
pub use e2bqm::{CandidateStrategy, E2bqmQuantizer, E2bqmSelection, ErrorEstimator};
pub use fast::QuantScratch;
pub use format::{IntFormat, QuantParams};
pub use guard::{DegradeEvent, GuardAction, GuardedQuantizer, QuantAnomaly};
pub use intdomain::{IntDomainQuantizer, IntDomainScratch, IntSelection};
pub use ldq::{LdqConfig, LdqTensor};
pub use qtensor::{quant_error, QuantError, QuantizedTensor};
pub use rounding::{MiniFloat, RoundingMode};
