//! Shared profiling bootstrap for the experiment binaries.
//!
//! Every binary's first line is
//! `let _profile = cq_experiments::profiling::init_for_bin();`, which
//! turns on `cq-obs` tracing when either a `--profile <path>` flag or
//! the `CQ_TRACE=<path>` environment variable is present (the flag
//! wins). A `.jsonl` path selects the line-oriented sink; any other
//! path gets a Chrome `trace_event` file loadable in Perfetto. With
//! neither source set, tracing stays off and instrumented code costs
//! one atomic load per probe.

/// RAII guard: flushes and finalizes the installed trace sink on drop,
/// so binaries can't exit with a truncated profile.
#[derive(Debug)]
pub struct ProfileGuard {
    path: Option<String>,
}

impl ProfileGuard {
    /// The trace path when profiling is active.
    pub fn path(&self) -> Option<&str> {
        self.path.as_deref()
    }
}

impl Drop for ProfileGuard {
    fn drop(&mut self) {
        cq_obs::finish();
        if let Some(p) = &self.path {
            eprintln!("[cq-obs] trace written to {p}");
        }
    }
}

/// Extracts a `--profile <path>` / `--profile=<path>` flag from raw
/// command-line arguments. Pure so it can be unit tested.
fn profile_flag<I: IntoIterator<Item = String>>(args: I) -> Option<String> {
    let mut args = args.into_iter();
    let mut path = None;
    while let Some(a) = args.next() {
        if a == "--profile" {
            path = args.next();
        } else if let Some(p) = a.strip_prefix("--profile=") {
            path = Some(p.to_string());
        }
    }
    path
}

/// Installs the trace sink selected by `--profile` or `CQ_TRACE` (if
/// any) and returns the guard that finalizes it. An unwritable path
/// aborts — a requested profile that silently produces nothing is the
/// exact failure mode this subsystem exists to kill.
///
/// Also validates `CQ_BACKEND`, `CQ_THREADS`, `CQ_QUANT_PATH`,
/// `CQ_HWCACHE`, `CQ_HWCACHE_CAP`, `CQ_SIMD`, `CQ_TUNE_FILE` and
/// `CQ_MAPPING` eagerly: pure-simulation binaries never dispatch a dense
/// kernel or start a pool, a sweep might be entirely cache-hit, and a
/// quantized forward only reads the path knob at the first layer, so
/// without this a typo like `CQ_BACKEND=bogus`, `CQ_THREADS=fuor`,
/// `CQ_QUANT_PATH=int7`, `CQ_HWCACHE=offf`, `CQ_HWCACHE_CAP=-3`,
/// `CQ_SIMD=avx512`, an unreadable/mismatched tune profile or a
/// malformed mapping table would pass unremarked — and an
/// `fp32`-vs-`int8` A/B accuracy run would silently compare a path
/// against itself.
pub fn init_for_bin() -> ProfileGuard {
    let _ = cq_tensor::default_backend();
    let _ = cq_par::Pool::global();
    let _ = cq_nn::env_quant_path();
    let _ = cq_sim::hwcache_enabled();
    let _ = cq_sim::hwcache_cap();
    let _ = cq_tensor::fast_path_info();
    let _ = cq_sim::mapping::env_policy();
    let path = profile_flag(std::env::args().skip(1));
    match path {
        Some(p) => {
            cq_obs::init_to_path(&p)
                .unwrap_or_else(|e| panic!("cannot open --profile path {p:?}: {e}"));
            ProfileGuard { path: Some(p) }
        }
        None => {
            let p = cq_obs::init_from_env()
                .unwrap_or_else(|e| panic!("cannot open CQ_TRACE path: {e}"));
            ProfileGuard { path: p }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn profile_flag_forms() {
        assert_eq!(profile_flag(strs(&[])), None);
        assert_eq!(profile_flag(strs(&["--quick"])), None);
        assert_eq!(
            profile_flag(strs(&["--profile", "out.json"])),
            Some("out.json".into())
        );
        assert_eq!(
            profile_flag(strs(&["--quick", "--profile=t.jsonl"])),
            Some("t.jsonl".into())
        );
        // Last occurrence wins; a dangling flag yields nothing usable.
        assert_eq!(
            profile_flag(strs(&["--profile=a", "--profile", "b"])),
            Some("b".into())
        );
        assert_eq!(profile_flag(strs(&["--profile"])), None);
    }
}
