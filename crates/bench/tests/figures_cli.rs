//! Command-line rejections of the `figures` binary: a flag value that
//! does not parse, or a retired flag, exits 2 with a message before
//! any simulation starts — never a silent fall-back to a default.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `figures` with `args`; returns (exit code, stdout, stderr).
/// Fails if the binary is still running after a few seconds, which
/// means it went on to simulate instead of rejecting its arguments.
fn figures(args: &[&str]) -> (i32, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn figures");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll figures").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("figures {args:?} did not exit promptly: it ran instead of rejecting");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect figures output");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_rejected(args: &[&str], needle: &str) {
    let (code, stdout, stderr) = figures(args);
    assert_eq!(code, 2, "figures {args:?}: stderr:\n{stderr}");
    assert!(
        stdout.is_empty(),
        "figures {args:?} printed output:\n{stdout}"
    );
    assert!(
        stderr.contains(needle),
        "figures {args:?}: stderr:\n{stderr}"
    );
}

#[test]
fn unparseable_seeds_exits_2() {
    assert_rejected(&["fig2", "--quick", "--seeds", "abc"], "--seeds");
}

#[test]
fn unparseable_jobs_exits_2() {
    assert_rejected(&["fig2", "--quick", "--jobs", "x"], "--jobs");
}

#[test]
fn missing_flag_value_exits_2() {
    assert_rejected(&["fig2", "--quick", "--seeds"], "--seeds needs a value");
}

#[test]
fn retired_intra_jobs_exits_2_with_advice() {
    assert_rejected(&["fig2", "--quick", "--intra-jobs", "2"], "windowed");
    assert_rejected(&["fig2", "--quick", "--intra-jobs", "2"], "--jobs");
}
