//! CLI usage errors: combinations the engines cannot run are rejected
//! up front with exit code 2, never with a panic or a hang.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs the `paratreet` binary with `args`, killing it if it outlives
/// `limit`. Returns the exit code and stderr.
fn run_with_limit(args: &[&str], limit: Duration) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_paratreet"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn paratreet");
    let started = Instant::now();
    while child.try_wait().expect("poll paratreet").is_none() {
        if started.elapsed() > limit {
            child.kill().expect("kill hung paratreet");
            child.wait().expect("reap paratreet");
            panic!("paratreet {args:?} still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect paratreet output");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn dual_tree_is_rejected_on_threaded_and_machine_engines() {
    for engine in ["threaded", "machine"] {
        let (code, stderr) = run_with_limit(
            &["gravity", "--engine", engine, "--traversal", "dual-tree", "--particles", "500"],
            Duration::from_secs(60),
        );
        assert_eq!(code, Some(2), "--engine {engine}: stderr was {stderr}");
        assert!(!stderr.contains("panicked"), "--engine {engine} panicked: {stderr}");
        assert!(stderr.contains("dual-tree"), "--engine {engine}: unhelpful error {stderr}");
    }
}
