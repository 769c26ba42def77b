//! The run configuration: the `CQ_*` environment knobs, read and parsed
//! once per process, and [`start`], which every binary runs first.

use crate::microkernel::{avx2_available, SimdLevel};
use crate::Pool;
use std::sync::OnceLock;

/// The `CQ_*` environment variables the workspace reads. `CQ_SIMD` picks
/// the GEMM micro-kernels and the compiled form of the cq-quant kernels
/// that cq-par dispatches.
pub const KNOBS: [&str; 3] = ["CQ_THREADS", "CQ_SIMD", "CQ_TRACE"];

/// What the `CQ_*` knobs configure for one process.
#[derive(Debug)]
pub struct RunConfig {
    /// The process-wide pool: `CQ_THREADS` workers, or the host's
    /// parallelism when the knob is unset.
    pub(crate) pool: Pool,
    /// The SIMD level: `CQ_SIMD` (`auto`, `scalar` or `avx2`) checked
    /// against the CPU. `auto` takes AVX2 where the CPU runs it.
    pub(crate) simd: SimdLevel,
    /// The cq-obs trace file `CQ_TRACE` names, if any: a `.jsonl` path
    /// gets the JSONL sink, any other path a Chrome trace.
    pub(crate) trace: Option<String>,
}

impl RunConfig {
    /// Parses the knobs. `var` returns a knob's value (`None` when it is
    /// unset), `cores` is the pool size when `CQ_THREADS` is unset, and
    /// `avx2` says whether the CPU runs the AVX2 kernels.
    ///
    /// An unset or blank knob takes its default; any other value must be
    /// valid. A typo like `CQ_THREADS=fuor` must not run on every core,
    /// which quietly invalidates a scaling experiment, and `CQ_SIMD=avx2`
    /// must not fall back, which would invalidate an A/B kernel
    /// comparison.
    ///
    /// # Errors
    ///
    /// A message naming the knob and its value: a `CQ_THREADS` that is
    /// not a positive integer, a `CQ_SIMD` other than `auto`, `scalar`
    /// or `avx2` (any case), or `avx2` on a CPU without it.
    pub(crate) fn parse<'a>(
        var: impl Fn(&str) -> Option<&'a str>,
        cores: usize,
        avx2: bool,
    ) -> Result<RunConfig, String> {
        let set = |knob| var(knob).filter(|v| !v.trim().is_empty());
        let threads = match set("CQ_THREADS") {
            None => cores,
            Some(v) => v.trim().parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                format!("invalid CQ_THREADS value {v:?}: expected a positive integer")
            })?,
        };
        let v = set("CQ_SIMD").unwrap_or("auto");
        let simd = match v.trim().to_ascii_lowercase().as_str() {
            "auto" | "avx2" if avx2 => SimdLevel::Avx2,
            "auto" | "scalar" => SimdLevel::Scalar,
            "avx2" => {
                return Err(format!(
                    "CQ_SIMD={v:?} requests the AVX2 micro-kernels but this CPU/target \
                     does not support AVX2+FMA"
                ))
            }
            _ => {
                return Err(format!(
                    "invalid CQ_SIMD value {v:?}: expected \"auto\", \"scalar\" or \"avx2\""
                ))
            }
        };
        Ok(RunConfig {
            pool: Pool::new(threads),
            simd,
            trace: set("CQ_TRACE").map(str::to_string),
        })
    }

    /// The process's configuration, parsed from its environment on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics on an invalid value, with a message naming the knob and
    /// the value.
    pub fn global() -> &'static RunConfig {
        static CONFIG: OnceLock<RunConfig> = OnceLock::new();
        CONFIG.get_or_init(|| {
            let env = cq_env();
            let var = |knob: &str| env.iter().find(|(k, _)| k == knob).map(|(_, v)| v.as_str());
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            RunConfig::parse(var, cores, avx2_available()).unwrap_or_else(|e| panic!("{e}"))
        })
    }
}

/// This process's `CQ_*` environment variables as (name, value) pairs:
/// the one reader of the environment. [`start`] checks the names and
/// [`RunConfig::global`] parses the values.
fn cq_env() -> Vec<(String, String)> {
    let lossy = |s: std::ffi::OsString| s.to_string_lossy().into_owned();
    std::env::vars_os()
        .map(|(k, v)| (lossy(k), lossy(v)))
        .filter(|(k, _)| k.starts_with("CQ_"))
        .collect()
}

/// Starts a binary: every `main` calls it first.
///
/// It aborts on any `CQ_*` variable that is not one of [`KNOBS`], naming
/// it and listing the knobs, so a stale or misspelt name (`CQ_THREAD=2`)
/// stops the run instead of being ignored. It then resolves
/// [`RunConfig::global`], so a bad value stops even a binary that never
/// starts a pool or dispatches a kernel, and installs the `CQ_TRACE`
/// sink. The returned guard flushes the trace when dropped.
///
/// The name check lives here and not in [`RunConfig::global`], because
/// test processes that run kernels read variables of their own
/// (`CQ_BLESS`).
///
/// # Panics
///
/// On an unknown `CQ_*` name, an invalid knob value, or a `CQ_TRACE` file
/// that cannot be created: a requested trace that silently records
/// nothing is the failure cq-obs exists to prevent.
pub fn start() -> TraceGuard {
    if let Some((name, _)) = cq_env().iter().find(|(k, _)| !KNOBS.contains(&k.as_str())) {
        panic!(
            "unknown environment variable {name}; the CQ_* knobs are {}",
            KNOBS.join(", ")
        );
    }
    let path = RunConfig::global().trace.as_deref();
    if let Some(p) = path {
        cq_obs::init_to_path(p).unwrap_or_else(|e| panic!("cannot open CQ_TRACE path {p:?}: {e}"));
    }
    TraceGuard { path }
}

/// What [`start`] returns: flushes cq-obs counters, gauges and the trace
/// sink when dropped, so a binary cannot exit with a truncated trace.
#[derive(Debug)]
#[must_use = "dropping the guard flushes the trace: hold it until main returns"]
pub struct TraceGuard {
    path: Option<&'static str>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        cq_obs::finish();
        if let Some(p) = self.path {
            eprintln!("[cq-obs] trace written to {p}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `vars` on a host with 8 cores and, per `avx2`, AVX2.
    fn parse(vars: &[(&str, &str)], avx2: bool) -> Result<RunConfig, String> {
        let var = |knob: &str| vars.iter().find(|(k, _)| *k == knob).map(|(_, v)| *v);
        RunConfig::parse(var, 8, avx2)
    }

    fn threads(value: &str) -> Result<usize, String> {
        parse(&[("CQ_THREADS", value)], true).map(|c| c.pool.threads())
    }

    fn simd(value: &str, avx2: bool) -> Result<SimdLevel, String> {
        parse(&[("CQ_SIMD", value)], avx2).map(|c| c.simd)
    }

    #[test]
    fn unset_knobs_take_their_defaults() {
        let cfg = parse(&[], true).unwrap();
        assert_eq!(cfg.pool.threads(), 8);
        assert_eq!(cfg.simd, SimdLevel::Avx2);
        assert_eq!(cfg.trace, None);
        assert_eq!(parse(&[], false).unwrap().simd, SimdLevel::Scalar);
    }

    #[test]
    fn threads_must_be_a_positive_integer() {
        assert_eq!(threads(""), Ok(8));
        assert_eq!(threads("  "), Ok(8));
        assert_eq!(threads("4"), Ok(4));
        assert_eq!(threads(" 16 "), Ok(16));
        for bad in ["fuor", "0", "-2", "3.5", "4 threads"] {
            let err = threads(bad).unwrap_err();
            assert!(err.contains("invalid CQ_THREADS"), "{err}");
            assert!(err.contains("positive integer"), "{err}");
        }
    }

    #[test]
    fn simd_must_name_a_level_the_cpu_runs() {
        assert_eq!(simd("", true), Ok(SimdLevel::Avx2));
        assert_eq!(simd(" AUTO ", false), Ok(SimdLevel::Scalar));
        assert_eq!(simd("scalar", true), Ok(SimdLevel::Scalar));
        assert_eq!(simd(" Avx2 ", true), Ok(SimdLevel::Avx2));
        let err = simd("avx2", false).unwrap_err();
        assert!(err.contains("AVX2"), "{err}");
        let err = simd("sse9", true).unwrap_err();
        assert!(err.contains("invalid CQ_SIMD"), "{err}");
        assert!(err.contains("scalar"), "{err}");
    }

    #[test]
    fn a_blank_trace_path_traces_nothing() {
        let trace = |v| parse(&[("CQ_TRACE", v)], true).unwrap().trace;
        assert_eq!(trace("  "), None);
        assert_eq!(trace("t.jsonl"), Some("t.jsonl".to_string()));
    }
}
