//! `cq_serve` resolves `CQ_MAPPING` before it binds a socket: a bad
//! value stops the daemon at start-up instead of panicking a worker on
//! the first request after `cq-serve listening` was printed.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn bad_mapping_exits_before_listening() {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cq_serve"));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CQ_") {
            cmd.env_remove(key);
        }
    }
    let mut child = cmd
        .args(["--addr", "127.0.0.1:0"])
        .env("CQ_MAPPING", "serach")
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
    assert!(exited, "still running after 10 s: {stdout}{stderr}");
    assert!(!out.status.success(), "exited 0: {stderr}");
    assert!(stderr.contains("CQ_MAPPING"), "{stderr}");
    assert!(!stdout.contains("listening"), "{stdout}");
}
