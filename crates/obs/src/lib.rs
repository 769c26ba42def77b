//! # cq-obs — workspace-wide observability
//!
//! Lock-free counters/gauges, hierarchical timed spans (wall-clock and
//! simulated time), and a pluggable sink API. This is the third leg of
//! the workspace after resilience (`cq-faults`) and speed (`cq-par`):
//! every simulator, the memory model, the parallel runtime, and the
//! training loop emit structured events here, so a run can be profiled
//! per layer × phase without changing results.
//!
//! ## Design
//!
//! * **Zero overhead when off.** Every probe first checks one relaxed
//!   `AtomicBool`. With no sink installed (or with [`NullSink`]) that
//!   check is the *entire* cost: no clock reads, no allocation, no
//!   formatting — see the `span!` macro, which does not even evaluate
//!   its name.
//! * **Pluggable sinks.** [`JsonlSink`] emits one self-describing JSON
//!   object per line (schema: `schemas/trace-schema.json`, enforced by
//!   the `validate_trace` binary); [`ChromeTraceSink`] writes a Chrome
//!   `trace_event` array that loads in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev).
//! * **Two timelines.** Wall-clock spans measure the host program;
//!   virtual spans place *simulated* cycles on named tracks (pid 2), so
//!   a Cambricon-Q iteration renders as per-layer, per-phase slices.
//!
//! ## Usage
//!
//! ```
//! use std::sync::Arc;
//! let sink = Arc::new(cq_obs::MemorySink::new());
//! cq_obs::install(sink.clone());
//! {
//!     let mut sp = cq_obs::span!("demo", "work unit {}", 7);
//!     sp.arg("bytes", 4096u64);
//!     cq_obs::counter!("demo.units").incr();
//! }
//! cq_obs::uninstall();
//! assert_eq!(sink.take().len(), 1);
//! ```
//!
//! Binaries call [`init_from_env`] (or honor a `--profile PATH` flag)
//! and [`finish`] before exit; `CQ_TRACE=<path>` selects the sink — a
//! `.jsonl` suffix means JSONL, anything else Chrome trace format.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod counter;
mod event;
pub mod json;
mod sink;
mod span;

pub use counter::{
    counter, counters_snapshot, gauge, gauges_snapshot, reset_counters, Counter, Gauge,
};
pub use event::{json_escape, ArgValue, Event, EventKind, VIRTUAL_PID, WALL_PID};
pub use sink::{ChromeTraceSink, JsonlSink, MemorySink, NullSink, Sink};
pub use span::{
    emit_counter_sample, emit_instant, emit_virtual_span, thread_tid, virtual_track, Span,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Whether a recording sink is installed. One relaxed load — the only
/// cost instrumented code pays when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the trace epoch (first install, or first call).
pub fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// Installs `sink` as the process-wide event consumer. Installing a
/// [`NullSink`] keeps the fast path disabled (null == off).
pub fn install(sink: Arc<dyn Sink>) {
    let _ = EPOCH.get_or_init(Instant::now);
    let on = !sink.is_null();
    *SINK.write().expect("sink lock poisoned") = Some(sink);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Removes the current sink (flushing it first) and disables recording.
/// Returns the sink so tests can inspect it.
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    ENABLED.store(false, Ordering::Relaxed);
    let sink = SINK.write().expect("sink lock poisoned").take();
    if let Some(s) = &sink {
        s.flush();
    }
    sink
}

/// Delivers one event to the installed sink (no-op when disabled).
pub fn emit(ev: &Event) {
    if !enabled() {
        return;
    }
    if let Some(sink) = &*SINK.read().expect("sink lock poisoned") {
        sink.event(ev);
    }
}

/// Emits a counter/gauge sample event for every registered counter and
/// gauge, then flushes the sink. Call at run boundaries so file sinks
/// carry final totals.
pub fn flush() {
    if enabled() {
        for (name, value) in counters_snapshot() {
            emit_counter_sample("counter", name, value as f64);
        }
        for (name, value) in gauges_snapshot() {
            emit_counter_sample("gauge", name, value);
        }
    }
    if let Some(sink) = &*SINK.read().expect("sink lock poisoned") {
        sink.flush();
    }
}

/// Final flush for process exit: counters, gauges, sink. Idempotent.
pub fn finish() {
    flush();
}

/// Installs a file sink for `path`: `.jsonl` → [`JsonlSink`], anything
/// else → [`ChromeTraceSink`].
pub fn init_to_path(path: &str) -> std::io::Result<()> {
    if path.ends_with(".jsonl") {
        install(Arc::new(JsonlSink::create(path)?));
    } else {
        install(Arc::new(ChromeTraceSink::create(path)?));
    }
    Ok(())
}

/// The `CQ_*` environment variables the workspace reads:
/// `CQ_THREADS`, `CQ_SIMD` and `CQ_TUNE_FILE` (cq-par), `CQ_QUANT_PATH`
/// (cq-nn), `CQ_MAPPING` (cq-sim) and `CQ_TRACE` (this crate).
pub const KNOBS: [&str; 6] = [
    "CQ_THREADS",
    "CQ_SIMD",
    "CQ_TUNE_FILE",
    "CQ_QUANT_PATH",
    "CQ_MAPPING",
    "CQ_TRACE",
];

/// Panics on the first `CQ_*` environment variable that is not one of
/// [`KNOBS`], naming it and listing the knobs. Binaries call this before
/// anything else, so a stale or misspelt name (`CQ_THREAD=2`) stops the
/// run instead of being silently ignored.
pub fn reject_unknown_knobs() {
    for (name, _) in std::env::vars_os() {
        let name = name.to_string_lossy();
        if name.starts_with("CQ_") && !KNOBS.contains(&name.as_ref()) {
            panic!(
                "unknown environment variable {name}; the CQ_* knobs are {}",
                KNOBS.join(", ")
            );
        }
    }
}

/// Reads `CQ_TRACE` and installs the matching file sink. Returns the
/// path when tracing was enabled. An unset or empty variable leaves
/// tracing off; an unwritable path is an error (callers should fail
/// loudly rather than silently profile nothing).
pub fn init_from_env() -> std::io::Result<Option<String>> {
    match std::env::var("CQ_TRACE") {
        Ok(path) if !path.trim().is_empty() => {
            init_to_path(&path)?;
            Ok(Some(path))
        }
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the global sink.
    static GLOBAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn null_sink_keeps_disabled() {
        let _g = GLOBAL.lock().unwrap();
        install(Arc::new(NullSink));
        assert!(!enabled());
        uninstall();
    }

    #[test]
    fn memory_sink_receives_spans_and_counters() {
        let _g = GLOBAL.lock().unwrap();
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        assert!(enabled());
        {
            let mut sp = span!("test", "unit");
            sp.arg("k", 1u64);
        }
        counter!("test.lib.events").incr();
        flush();
        uninstall();
        assert!(!enabled());
        let events = sink.take();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Span { .. }) && e.name == "unit"));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Counter { .. }) && e.name == "test.lib.events"));
    }

    #[test]
    fn span_macro_is_free_when_disabled() {
        let _g = GLOBAL.lock().unwrap();
        assert!(!enabled());
        // The name expression must not be evaluated when disabled.
        let sp = span!("test", "{}", {
            panic!("name evaluated while disabled");
            #[allow(unreachable_code)]
            ""
        });
        assert!(!sp.is_recording());
    }

    #[test]
    fn virtual_spans_carry_supplied_timestamps() {
        let _g = GLOBAL.lock().unwrap();
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        let track = virtual_track("test:virtual");
        emit_virtual_span(
            track,
            "phase",
            "FW",
            10.0,
            5.0,
            vec![("cycles", 5u64.into())],
        );
        uninstall();
        let events = sink.take();
        let span = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Span { .. }))
            .expect("span present");
        assert_eq!(span.ts_us, 10.0);
        assert_eq!(span.pid, VIRTUAL_PID);
        assert!(events.iter().any(|e| e.kind == EventKind::TrackName));
    }
}
