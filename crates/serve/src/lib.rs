//! Simulation-as-a-service: a std-only TCP sweep daemon for the
//! Cambricon-Q cycle simulator.
//!
//! Training-time design-space exploration wants many `(network, chip
//! config, optimizer)` simulations, and re-running the simulator
//! binary per cell repays nothing across invocations. `cq-serve` keeps
//! one warm process — with its populated `HwCostCache` — behind
//! a line-oriented TCP protocol:
//!
//! * **Requests** are single JSON lines naming preset keywords
//!   ([`registry`]); a sweep is the cross product of its `nets`,
//!   `configs` and `optimizers` lists.
//! * **Admission** is all-or-nothing into a bounded queue
//!   ([`cq_par::BoundedQueue`]); when the grid does not fit the free
//!   slots the client gets `rejected` with `retry_after_ms` advice —
//!   the daemon never buffers unadmitted work.
//! * **Workers** drain the queue on the `cq-par` pool, wrap every cell
//!   in [`cq_resil::run_task`] (panic isolation + retries), and results
//!   stream back as JSONL frames carrying the exact
//!   [`cq_sim::SimResult::to_record`] bytes plus `sim.*`/`serve.*`
//!   counters.
//!
//! Responses are **byte-identical** to a direct in-process
//! [`cq_accel::CambriconQ::simulate`] call: the record codec is the
//! shared tab-separated one, and presets resolve through the same
//! committed model/config constructors ([`simulate_cell`]). The
//! `cq_loadgen` binary verifies exactly that with `--check`.
//!
//! Everything is `std`-only: hand-rolled JSON via [`cq_obs::json`], no
//! async runtime, plain blocking sockets with short read timeouts so
//! shutdown flags are observed promptly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod load;
pub mod protocol;
pub mod registry;
mod server;

pub use load::{run_load, LoadOptions, LoadReport};
pub use protocol::{parse_request, Cell, Frame, Request, SweepRequest};
pub use server::{simulate_cell, FaultHook, Server, ServerConfig};
