//! Crash-consistency end-to-end: a worker killed mid-shard must be
//! relaunched with `--resume` by the retry machinery, re-execute only
//! its unfinished remainder, and the merged campaign must still be
//! byte-identical to the golden artifact.
//!
//! The "kill" is deterministic: the worker binary is a wrapper script
//! that, on its first invocation for the victim shard, lets the real
//! `samr` worker finish, then erases the shard manifest and one
//! scenario's artifact trio (exactly the on-disk state a worker killed
//! between two scenarios leaves behind — completed scenarios stamped,
//! the rest absent, no manifest) and dies with a signal-style exit
//! code.

#![cfg(unix)]

use samr::apps::{AppKind, TraceGenConfig};
use samr::engine::{
    merge_shards, CampaignPlan, CampaignSpec, MergeError, PartitionerSpec, ShardStrategy,
    WorkerExecutor,
};
use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};

const GOLDEN: &str = include_str!("../crates/engine/tests/golden/campaign_smoke.csv");

/// The spec of the checked-in golden campaign.
fn smoke_spec() -> CampaignSpec {
    CampaignSpec::new(TraceGenConfig::smoke())
        .apps([AppKind::Tp2d, AppKind::Sc2d])
        .partitioners([
            PartitionerSpec::parse("hybrid").unwrap(),
            PartitionerSpec::parse("domain-sfc").unwrap(),
        ])
        .nprocs([8])
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("samr-crash-test-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write the crashy worker wrapper: first invocation for shard `0/3`
/// runs the real worker, tears its shard back to a mid-run state and
/// exits 137; every other invocation (including the retry's `--resume`
/// relaunch) execs the real binary.
fn write_crashy_worker(dir: &Path, marker_dir: &Path) -> PathBuf {
    let real = env!("CARGO_BIN_EXE_samr");
    let script = format!(
        r#"#!/bin/sh
shard=""; out=""; prev=""
for a in "$@"; do
  case "$prev" in
    --shard) shard="$a";;
    --out) out="$a";;
  esac
  prev="$a"
done
marker="{markers}/crashed-$(printf '%s' "$shard" | tr '/' '-')"
if [ "$shard" = "0/3" ] && [ ! -e "$marker" ]; then
  : > "$marker"
  "{real}" "$@" >/dev/null 2>&1
  sd="$out/shard-0-of-3"
  rm -f "$sd/shard.manifest.json"
  first=$(ls "$sd"/*.done.json | head -n 1)
  base="${{first%.done.json}}"
  rm -f "$first" "$base.csv" "$base.json"
  exit 137
fi
exec "{real}" "$@"
"#,
        markers = marker_dir.display(),
        real = real,
    );
    let path = dir.join("crashy-samr.sh");
    std::fs::write(&path, script).unwrap();
    let mut perms = std::fs::metadata(&path).unwrap().permissions();
    perms.set_mode(0o755);
    std::fs::set_permissions(&path, perms).unwrap();
    path
}

#[test]
fn killed_worker_is_relaunched_with_resume_and_the_merge_stays_golden() {
    let out = temp_dir("retry-out");
    let aux = temp_dir("retry-aux");
    let bin = write_crashy_worker(&aux, &aux);
    let plan = CampaignPlan::new(&smoke_spec(), 3, ShardStrategy);
    let exec = WorkerExecutor {
        bin,
        threads: Some(1),
        retries: 1,
        resume: false,
    };
    let shard_dirs = exec
        .run_workers(&plan, &out)
        .expect("the dead worker must be retried, not fail the sweep");
    assert!(
        aux.join("crashed-0-3").exists(),
        "the crash path was never taken — the test exercised nothing"
    );
    assert_eq!(shard_dirs.len(), 3);
    let report = merge_shards(&shard_dirs, &out).unwrap();
    assert_eq!(report.scenario_count, plan.len());
    let merged = std::fs::read_to_string(&report.csv_path).unwrap();
    assert!(
        merged == GOLDEN,
        "retried + resumed campaign drifted from the golden artifact"
    );
    std::fs::remove_dir_all(&out).ok();
    std::fs::remove_dir_all(&aux).ok();
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

#[test]
fn without_retries_a_killed_worker_fails_the_sweep_but_stays_salvageable() {
    let out = temp_dir("noretry-out");
    let aux = temp_dir("noretry-aux");
    let bin = write_crashy_worker(&aux, &aux);
    let plan = CampaignPlan::new(&smoke_spec(), 3, ShardStrategy);
    let exec = WorkerExecutor {
        bin,
        threads: Some(1),
        retries: 0,
        resume: false,
    };
    let err = exec.run_workers(&plan, &out).unwrap_err();
    assert!(err.to_string().contains("shard 0"), "{err}");
    // The wreckage is salvage-aware: the merge refuses with the exact
    // resumable-shard diagnosis instead of a generic corruption error.
    let shard_dirs: Vec<PathBuf> = (0..3)
        .map(|i| out.join(format!("shard-{i}-of-3")))
        .collect();
    match merge_shards(&shard_dirs, &out).unwrap_err() {
        MergeError::ShardIncomplete { shard, rerun, .. } => {
            assert_eq!(shard, 0);
            assert!(rerun.contains("--resume"), "{rerun}");
            assert!(rerun.contains("campaign.spec.json"), "{rerun}");
        }
        other => panic!("expected ShardIncomplete, got {other:?}"),
    }
    std::fs::remove_dir_all(&out).ok();
    std::fs::remove_dir_all(&aux).ok();
}
