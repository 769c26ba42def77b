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

/// Extracts the value of a `<flag> <path>` / `<flag>=<path>` option
/// (e.g. `--profile`) from raw command-line arguments; the last
/// occurrence wins. Pure so it can be unit tested.
pub fn flag_path<I: IntoIterator<Item = String>>(args: I, flag: &str) -> Option<String> {
    let mut args = args.into_iter();
    let mut path = None;
    while let Some(a) = args.next() {
        if a == flag {
            path = args.next();
        } else if let Some(p) = a.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
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
/// Also aborts on any `CQ_*` variable that is not one of
/// [`cq_obs::KNOBS`] ([`cq_obs::reject_unknown_knobs`]), and
/// validates `CQ_THREADS`, `CQ_QUANT_PATH`, `CQ_SIMD`, `CQ_TUNE_FILE`
/// and `CQ_MAPPING` eagerly: pure-simulation binaries never dispatch a
/// dense kernel or start a pool, and a quantized forward only reads the
/// path knob at the first layer, so without this a stale or misspelt
/// name (`CQ_THREAD=2`), a typo like `CQ_THREADS=fuor`,
/// `CQ_QUANT_PATH=int7` or `CQ_SIMD=avx512`, an unreadable/mismatched
/// tune profile or a malformed mapping table would pass unremarked —
/// and an `fp32`-vs-`int8` A/B accuracy run would silently compare a
/// path against itself.
pub fn init_for_bin() -> ProfileGuard {
    cq_obs::reject_unknown_knobs();
    let _ = cq_par::Pool::global();
    let _ = cq_nn::env_quant_path();
    let _ = cq_tensor::fast_path_info();
    let _ = cq_sim::mapping::env_policy();
    let path = flag_path(std::env::args().skip(1), "--profile");
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
        let profile = |v: &[&str]| flag_path(strs(v), "--profile");
        assert_eq!(profile(&[]), None);
        assert_eq!(profile(&["--quick"]), None);
        assert_eq!(profile(&["--profile", "out.json"]), Some("out.json".into()));
        assert_eq!(
            profile(&["--quick", "--profile=t.jsonl"]),
            Some("t.jsonl".into())
        );
        // Last occurrence wins; a dangling flag yields nothing usable.
        assert_eq!(
            profile(&["--profile=a", "--profile", "b"]),
            Some("b".into())
        );
        assert_eq!(profile(&["--profile"]), None);
        // Other flags, and names that merely start with the flag, are
        // not the flag.
        assert_eq!(profile(&["--profiler=x", "--quick", "j"]), None);
        assert_eq!(
            flag_path(strs(&["--profile", "t.json", "--out=j"]), "--out"),
            Some("j".into())
        );
    }
}
