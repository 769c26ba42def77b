//! `cq_serve` and `cq_loadgen` check their `CQ_*` environment before
//! they open a socket: a misspelt or removed name, a bad `CQ_THREADS` or
//! `CQ_SIMD` value, or a `CQ_TRACE` file that cannot be created stops
//! them at start-up instead of being ignored, or of panicking a worker on
//! the first request after `cq-serve listening` was printed.

use std::net::TcpListener;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `exe` with `args` and `key=value` as its only `CQ_*` variable,
/// for at most 10 s. Returns whether it exited by itself, and its output.
fn run(exe: &str, args: &[&str], key: &str, value: &str) -> (bool, Output) {
    let mut cmd = Command::new(exe);
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("CQ_") {
            cmd.env_remove(name);
        }
    }
    let mut child = cmd
        .args(args)
        .env(key, value)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the binary");
    // A daemon that got past start-up would serve forever: never leave
    // one running.
    let deadline = Instant::now() + Duration::from_secs(10);
    let exited = loop {
        if child.try_wait().expect("poll the binary").is_some() {
            break true;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            break false;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    (
        exited,
        child.wait_with_output().expect("collect the output"),
    )
}

/// Runs `cq_serve` on an ephemeral port with `key=value` as its only
/// `CQ_*` variable, and asserts that it exits non-zero without
/// listening and that its stderr contains `needle`.
fn assert_exits_before_listening(key: &str, value: &str, needle: &str) {
    let exe = env!("CARGO_BIN_EXE_cq_serve");
    let (exited, out) = run(exe, &["--addr", "127.0.0.1:0"], key, value);
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

/// A `CQ_TRACE` path under a directory that does not exist.
fn unwritable_trace(name: &str) -> String {
    let missing = std::env::temp_dir().join(format!("cq-{name}-missing-{}", std::process::id()));
    assert!(!missing.exists(), "{}", missing.display());
    missing.join("trace.jsonl").display().to_string()
}

#[test]
fn unwritable_trace_exits_before_listening() {
    assert_exits_before_listening("CQ_TRACE", &unwritable_trace("serve"), "CQ_TRACE");
}

/// `cq_loadgen` pointed at a listener of this test: with an unwritable
/// `CQ_TRACE` it must exit non-zero, name the variable, and never
/// connect.
#[test]
fn loadgen_unwritable_trace_exits_before_connecting() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a listener");
    let addr = listener.local_addr().expect("listener address").to_string();
    let exe = env!("CARGO_BIN_EXE_cq_loadgen");
    let args = ["--addr", &addr, "--quick", "--requests", "1"];
    let (exited, out) = run(exe, &args, "CQ_TRACE", &unwritable_trace("loadgen"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(exited, "still running after 10 s: {stderr}");
    assert!(!out.status.success(), "exited 0: {stderr}");
    assert!(stderr.contains("CQ_TRACE"), "{stderr}");
    listener
        .set_nonblocking(true)
        .expect("non-blocking listener");
    assert!(listener.accept().is_err(), "cq_loadgen connected: {stderr}");
}
