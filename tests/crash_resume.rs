//! Crash consistency end to end: a campaign process killed at an
//! arbitrary instant must resume with `--resume` to the bytes of an
//! uninterrupted run.

#![cfg(unix)]

use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("samr-crash-test-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn genuinely_killed_campaign_resumes_to_the_uninterrupted_bytes() {
    // A real SIGKILL mid-execution — not a post-hoc file deletion: the
    // campaign process dies at an arbitrary instant (mid-trace-gen,
    // mid-simulation, mid-write), and `--resume` must complete it to
    // the byte-identical output of an uninterrupted run, whatever
    // subset of scenarios the kill happened to have banked. The
    // reduced config runs for several seconds, so the kill lands while
    // scenarios are actually computing.
    let interrupted = temp_dir("sigkill-out");
    let control = temp_dir("sigkill-control");
    let axes = [
        "--apps",
        "tp2d",
        "--partitioners",
        "hybrid,domain-sfc",
        "--nprocs",
        "8,16",
        "--config",
        "reduced",
    ];
    let mut args: Vec<&str> = vec!["campaign"];
    args.extend(axes);
    args.extend(["--threads", "1", "--out", interrupted.to_str().unwrap()]);
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_samr"))
        .args(&args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn samr");
    std::thread::sleep(std::time::Duration::from_millis(2500));
    child.kill().expect("SIGKILL the campaign");
    child.wait().expect("reap the killed campaign");
    // Resume the wreckage; the stamped prefix is skipped, the rest
    // (including anything half-written) re-executes.
    let mut resume_args: Vec<&str> = vec!["campaign"];
    resume_args.extend(axes);
    resume_args.extend([
        "--resume",
        "--threads",
        "1",
        "--out",
        interrupted.to_str().unwrap(),
    ]);
    let resumed = std::process::Command::new(env!("CARGO_BIN_EXE_samr"))
        .args(&resume_args)
        .output()
        .expect("spawn resume");
    assert!(
        resumed.status.success(),
        "resume after SIGKILL failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let mut control_args: Vec<&str> = vec!["campaign"];
    control_args.extend(axes);
    control_args.extend(["--out", control.to_str().unwrap()]);
    let uninterrupted = std::process::Command::new(env!("CARGO_BIN_EXE_samr"))
        .args(&control_args)
        .output()
        .expect("spawn control");
    assert!(uninterrupted.status.success());
    assert_eq!(
        std::fs::read_to_string(interrupted.join("campaign.csv")).unwrap(),
        std::fs::read_to_string(control.join("campaign.csv")).unwrap(),
        "resumed-after-SIGKILL campaign drifted from the uninterrupted run"
    );
    std::fs::remove_dir_all(&interrupted).ok();
    std::fs::remove_dir_all(&control).ok();
}
