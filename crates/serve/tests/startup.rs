//! `cq_serve` checks its `CQ_*` environment before it binds a socket: a
//! misspelt or removed name, or a bad `CQ_THREADS` or `CQ_SIMD` value,
//! stops the daemon at start-up instead of being ignored, or of
//! panicking a worker on the first request after `cq-serve listening`
//! was printed.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `cq_serve` on an ephemeral port with `key=value` as its only
/// `CQ_*` variable, and asserts that it exits non-zero without
/// listening and that its stderr contains `needle`.
fn assert_exits_before_listening(key: &str, value: &str, needle: &str) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cq_serve"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("CQ_") {
            cmd.env_remove(name);
        }
    }
    let mut child = cmd
        .args(["--addr", "127.0.0.1:0"])
        .env(key, value)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cq_serve");
    // A daemon that got past start-up would serve forever: never leave
    // one running.
    let deadline = Instant::now() + Duration::from_secs(10);
    let exited = loop {
        if child.try_wait().expect("poll cq_serve").is_some() {
            break true;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            break false;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = child.wait_with_output().expect("collect cq_serve output");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(exited, "{key}: still running after 10 s: {stdout}{stderr}");
    assert!(!out.status.success(), "{key}: exited 0: {stderr}");
    assert!(stderr.contains(needle), "{key}: {stderr}");
    assert!(!stdout.contains("listening"), "{stdout}");
}

#[test]
fn bad_mapping_exits_before_listening() {
    assert_exits_before_listening(
        "CQ_MAPPING",
        "search",
        "unknown environment variable CQ_MAPPING;",
    );
}

#[test]
fn invalid_values_exit_before_listening() {
    for (key, value) in [("CQ_THREADS", "fuor"), ("CQ_SIMD", "avx512")] {
        assert_exits_before_listening(key, value, &format!("invalid {key} value"));
    }
}

#[test]
fn unknown_cq_name_exits_before_listening() {
    assert_exits_before_listening("CQ_THREAD", "2", "unknown environment variable CQ_THREAD;");
}
