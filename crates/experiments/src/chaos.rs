//! Shared plumbing for the crash-safe experiment binaries: CLI parsing
//! for the `chaos_sweep` flags, the retry policy, and the self-kill hook
//! the CI chaos-smoke job uses to die mid-grid.
//!
//! The binaries themselves stay thin; everything parseable lives here so
//! it can be unit tested without spawning processes.

use cq_faults::ChaosPlan;
use cq_resil::{RetryPolicy, SweepJournal};

/// Default chaos seed: the sweep seed, so one number reproduces both the
/// hardware-fault and software-chaos schedules.
pub const DEFAULT_CHAOS_SEED: u64 = crate::resilience::SWEEP_SEED;

/// Parsed `chaos_sweep`-family command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosArgs {
    /// Journal path from `--journal <path>`.
    pub journal: Option<String>,
    /// Report output path from `--out <path>`; stdout when absent.
    pub out: Option<String>,
    /// Whether chaos injection is armed (`--chaos on|off`, default off).
    pub chaos: bool,
    /// Die after this many journal records (`--kill-after <n>`).
    pub kill_after: Option<u64>,
    /// Chaos schedule seed (`--seed <n>`).
    pub seed: u64,
}

impl Default for ChaosArgs {
    fn default() -> Self {
        ChaosArgs {
            journal: None,
            out: None,
            chaos: false,
            kill_after: None,
            seed: DEFAULT_CHAOS_SEED,
        }
    }
}

impl ChaosArgs {
    /// The chaos plan these arguments select.
    pub fn plan(&self) -> ChaosPlan {
        if self.chaos {
            ChaosPlan::moderate(self.seed)
        } else {
            ChaosPlan::off()
        }
    }
}

/// Parses the `chaos_sweep` flag family from raw arguments. Unknown
/// flags are rejected, except `--profile`, which belongs to
/// [`crate::profiling::init_for_bin`] and is skipped here.
pub fn parse_chaos_args<I: IntoIterator<Item = String>>(args: I) -> Result<ChaosArgs, String> {
    let mut out = ChaosArgs::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match a.as_str() {
            "--journal" => out.journal = Some(value("--journal")?),
            "--out" => out.out = Some(value("--out")?),
            "--chaos" => {
                out.chaos = match value("--chaos")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--chaos expects on|off, got {other:?}")),
                }
            }
            "--kill-after" => {
                let v = value("--kill-after")?;
                out.kill_after = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--kill-after expects a count, got {v:?}"))?,
                );
            }
            "--seed" => {
                let v = value("--seed")?;
                out.seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("--seed expects an integer, got {v:?}"))?;
            }
            "--profile" => {
                let _ = value("--profile");
            }
            other if other.starts_with("--profile=") => {}
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(out)
}

/// The retry policy the journal-aware binaries run under: the default
/// three-attempt budget, seeded so backoff jitter is reproducible.
pub fn sweep_policy() -> RetryPolicy {
    RetryPolicy::default()
}

/// Arms the CI kill switch: after `n` records have been appended this
/// process dies hard (SIGKILL, falling back to `abort`), mid-grid and
/// without any cleanup — the most hostile crash the resume path must
/// survive. Used by `chaos_sweep --kill-after <n>`.
pub fn arm_kill_after(journal: &SweepJournal, n: u64) {
    journal.set_record_hook(move |records| {
        if records >= n {
            eprintln!("[chaos] kill-after {n}: dying without cleanup");
            let pid = std::process::id().to_string();
            let _ = std::process::Command::new("kill")
                .args(["-9", &pid])
                .status();
            // If an external SIGKILL was unavailable, die abruptly anyway.
            std::process::abort();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_flag_family() {
        let args = parse_chaos_args(strs(&[
            "--journal",
            "j.log",
            "--out",
            "report.txt",
            "--chaos",
            "on",
            "--kill-after",
            "20",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(
            args,
            ChaosArgs {
                journal: Some("j.log".into()),
                out: Some("report.txt".into()),
                chaos: true,
                kill_after: Some(20),
                seed: 7,
            }
        );
        assert!(args.plan().is_active());
    }

    #[test]
    fn defaults_are_off_and_unjournaled() {
        let args = parse_chaos_args(strs(&[])).unwrap();
        assert_eq!(args, ChaosArgs::default());
        assert!(!args.plan().is_active());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_chaos_args(strs(&["--chaos", "maybe"])).is_err());
        assert!(parse_chaos_args(strs(&["--kill-after", "soon"])).is_err());
        assert!(parse_chaos_args(strs(&["--seed", "x"])).is_err());
        assert!(parse_chaos_args(strs(&["--journal"])).is_err());
        assert!(parse_chaos_args(strs(&["--frobnicate"])).is_err());
    }

    #[test]
    fn profile_flag_is_ignored_not_rejected() {
        let args = parse_chaos_args(strs(&["--profile", "t.jsonl", "--chaos", "on"])).unwrap();
        assert!(args.chaos);
        let args = parse_chaos_args(strs(&["--profile=t.jsonl"])).unwrap();
        assert_eq!(args, ChaosArgs::default());
    }
}
