//! # cq-faults — fault injection & resilience modeling
//!
//! Cambricon-Q trains with statistics-guided quantization in flight, which
//! makes it sensitive to hardware faults in ways an inference-only
//! accelerator is not: a flipped bit in a θ statistic register rescales an
//! entire block, and a corrupted weight row is read back into the *next*
//! iteration's update. This crate models those failure modes and the
//! mechanisms that absorb them:
//!
//! - [`FaultInjector`] — deterministic, counter-based injection of bit
//!   flips, stuck-at faults, and burst errors into value streams (SRAM
//!   buffers, DRAM-resident rows, θ registers), with a typed
//!   [`FaultEvent`] log.
//! - [`secded`] — a bit-level Hamming SECDED(72,64) codec, the ground
//!   truth behind the statistical ECC accounting `cq-mem` charges on the
//!   DDR path.
//! - [`FaultPlan`] — one sweep cell: injection rates plus the armed
//!   protections (DDR SECDED, guarded-quantizer E²BQM fallback), with
//!   helpers to stamp a `DdrConfig` and mint injectors reproducibly.
//! - [`ResilienceReport`] — per-(workload, config, rate) outcome rows and
//!   their text-table rendering for the `fault_sweep` experiment.
//!
//! # Examples
//!
//! ```
//! use cq_faults::{FaultDomain, FaultPlan};
//!
//! let plan = FaultPlan::full_protection(42, 1e-5);
//! let mut inj = plan.injector();
//! let mut weights = vec![1.0f32; 4096];
//! let flips = inj.corrupt_slice(&mut weights, plan.sram_ber, FaultDomain::Sram);
//! assert_eq!(inj.events().len(), flips);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod events;
mod inject;
mod plan;
pub mod secded;

pub use events::{EventCounts, FaultDomain, FaultEvent, ResilienceReport};
pub use inject::{FaultInjector, FaultKind};
pub use plan::FaultPlan;
pub use secded::{Secded, CODE_BITS};
