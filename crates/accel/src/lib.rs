//! # cq-accel — the Cambricon-Q acceleration core
//!
//! The hardware model of the paper's §IV: configuration ([`CqConfig`],
//! including the Fig. 13 scaling variants), the PE-array timing model
//! ([`pe`], 64×64 4-bit PEs with bit-serial widening), the fused
//! statistic-quantization unit ([`Squ`]), the tagged buffer controller
//! ([`Qbc`]), a functional instruction-level executor ([`Machine`]) with a
//! layer [`compiler`], and the whole-chip training-iteration simulator
//! ([`CambriconQ`]) that produces the per-phase, per-component results
//! behind Figs. 12 and 13.
//!
//! # Examples
//!
//! ```
//! use cq_accel::CambriconQ;
//! use cq_ndp::OptimizerKind;
//! use cq_workloads::models;
//!
//! let chip = CambriconQ::edge();
//! let r = chip.simulate(&models::squeezenet_v1(), OptimizerKind::Sgd { lr: 0.01 });
//! println!("{}: {:.2} ms / {:.2} mJ", r.workload, r.time_ms(), r.total_energy_mj());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::too_many_arguments)] // phase-charging helpers mirror hardware port lists

pub mod buffers;
mod chip;
pub mod compiler;
mod config;
mod exec;
mod keyspec;
mod machine;
pub mod mapping_search;
pub mod pe;
mod qbc;
mod squ;

pub use chip::{clear_sim_cache, sim_cache_stats, CambriconQ, MappingPolicy};
pub use compiler::{
    compile_conv_forward, compile_dense_forward, compile_network_forward, compile_weight_update,
    ConvLayout, ConvShape, DenseLayout, UpdateLayout,
};
pub use config::{CqConfig, ScaleVariant};
pub use exec::{ExecTiming, TimingExecutor};
pub use machine::{ExecStats, Machine, MachineError};
pub use mapping_search::{search_layer, search_network, LayerSearch};
pub use qbc::{BufferLine, Qbc, QbcStats};
pub use squ::{Squ, SquCost};
