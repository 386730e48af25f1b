//! End-to-end CLI coverage of distributed campaigns: the unsharded,
//! sharded-and-merged and multi-process worker paths must all produce
//! the byte-identical canonical campaign CSV (pinned by the checked-in
//! golden artifact), and the merge CLI must fail loudly on incomplete
//! shard sets.

use samr::engine::{CampaignManifest, CompletionRecord, ShardManifest};
use std::path::PathBuf;
use std::process::{Command, Output};

const GOLDEN: &str = include_str!("../crates/engine/tests/golden/campaign_smoke.csv");

/// The axis flags of the golden smoke campaign.
const AXES: [&str; 8] = [
    "--apps",
    "tp2d,sc2d",
    "--partitioners",
    "hybrid,domain-sfc",
    "--nprocs",
    "8",
    "--config",
    "smoke",
];

fn samr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_samr"))
        .args(args)
        .output()
        .expect("spawn samr")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("samr-cli-test-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn campaign_csv(dir: &std::path::Path) -> String {
    std::fs::read_to_string(dir.join("campaign.csv"))
        .unwrap_or_else(|e| panic!("read {}/campaign.csv: {e}", dir.display()))
}

#[test]
fn unsharded_campaign_writes_the_golden_csv_and_manifest() {
    let dir = temp_dir("unsharded");
    let mut args = vec!["campaign"];
    args.extend(AXES);
    args.extend(["--out", dir.to_str().unwrap()]);
    assert_ok(&samr(&args), "unsharded campaign");
    assert!(
        campaign_csv(&dir) == GOLDEN,
        "unsharded campaign.csv drifted from the golden artifact"
    );
    let manifest = std::fs::read_to_string(dir.join("campaign.manifest.json")).unwrap();
    let manifest: CampaignManifest = serde_json::from_str(&manifest).unwrap();
    assert_eq!(manifest.scenario_count, 4);
    assert_eq!(manifest.shards, 1);
    assert!(!manifest.plan_hash.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn three_cli_shards_merge_back_to_the_golden_csv() {
    let dir = temp_dir("shards");
    for i in 0..3 {
        let shard = format!("{i}/3");
        let mut args = vec!["campaign"];
        args.extend(AXES);
        args.extend([
            "--shard",
            &shard,
            "--threads",
            "2",
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert_ok(&samr(&args), &format!("shard {i}/3"));
    }
    let merge = samr(&["campaign-merge", dir.to_str().unwrap()]);
    assert_ok(&merge, "campaign-merge");
    assert!(
        campaign_csv(&dir) == GOLDEN,
        "3-shard merged campaign.csv drifted from the golden artifact"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_processes_produce_the_golden_csv() {
    let dir = temp_dir("workers");
    let mut args = vec!["campaign"];
    args.extend(AXES);
    args.extend([
        "--workers",
        "3",
        "--threads",
        "1",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_ok(&samr(&args), "3-worker campaign");
    assert!(
        campaign_csv(&dir) == GOLDEN,
        "multi-process campaign.csv drifted from the golden artifact"
    );
    // The worker path leaves the shard directories and the spec file
    // behind for audit; the merged manifest records all three shards.
    assert!(dir.join("campaign.spec.json").exists());
    assert!(dir
        .join("shard-0-of-3")
        .join("shard.manifest.json")
        .exists());
    let manifest = std::fs::read_to_string(dir.join("campaign.manifest.json")).unwrap();
    let manifest: CampaignManifest = serde_json::from_str(&manifest).unwrap();
    assert_eq!(manifest.shards, 3);
    assert_eq!(manifest.scenario_count, 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_refuses_an_incomplete_shard_set() {
    let dir = temp_dir("incomplete");
    for i in [0usize, 2] {
        let shard = format!("{i}/3");
        let mut args = vec!["campaign"];
        args.extend(AXES);
        args.extend(["--shard", &shard, "--out", dir.to_str().unwrap()]);
        assert_ok(&samr(&args), &format!("shard {i}/3"));
    }
    let merge = samr(&["campaign-merge", dir.to_str().unwrap()]);
    assert!(
        !merge.status.success(),
        "merge of 2 of 3 shards unexpectedly succeeded"
    );
    let stderr = String::from_utf8_lossy(&merge.stderr);
    assert!(
        stderr.contains("missing shard") && stderr.contains("[1]"),
        "unhelpful merge error: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_of_a_forged_scenario_total_fails_with_an_error() {
    let dir = temp_dir("forged-total");
    let mut args = vec!["campaign"];
    args.extend(AXES);
    args.extend(["--shard", "0/1", "--out", dir.to_str().unwrap()]);
    assert_ok(&samr(&args), "shard 0/1");
    let shard_dir = dir.join("shard-0-of-1");
    let mut manifest = ShardManifest::read(&shard_dir).unwrap();
    manifest.total_scenarios = usize::MAX;
    manifest.write(&shard_dir).unwrap();
    let merge = samr(&["campaign-merge", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&merge.stderr);
    assert_eq!(merge.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("error:") && stderr.contains("covered by no shard"),
        "unhelpful merge error: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_stamped_summary_that_does_not_parse_is_rerun_by_resume() {
    let dir = temp_dir("unparsable-summary");
    let shard = ["--shard", "0/1", "--out", dir.to_str().unwrap()];
    let mut args = vec!["campaign"];
    args.extend(AXES);
    args.extend(shard);
    assert_ok(&samr(&args), "shard 0/1");
    // Forge one summary and restamp its completion record to match, so
    // the record validates everything but the summary's contents.
    let shard_dir = dir.join("shard-0-of-1");
    let victim = "tp2d_hybrid_p8_g1";
    let forged = br#"{"not": "a summary"}"#;
    std::fs::write(shard_dir.join(format!("{victim}.json")), forged).unwrap();
    let record_path = CompletionRecord::path(&shard_dir, victim);
    let mut record: CompletionRecord =
        serde_json::from_str(&std::fs::read_to_string(&record_path).unwrap()).unwrap();
    record.json_digest = CompletionRecord::digest(forged);
    std::fs::write(&record_path, serde_json::to_string(&record).unwrap()).unwrap();

    let merge = samr(&["campaign-merge", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&merge.stderr);
    assert_eq!(merge.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(victim) && stderr.contains("does not parse") && stderr.contains("--resume"),
        "unhelpful merge error: {stderr}"
    );
    // The rerun the error names runs exactly the forged scenario again.
    let mut args = vec!["campaign"];
    args.extend(AXES);
    args.extend(shard);
    args.push("--resume");
    let out = samr(&args);
    assert_ok(&out, "resumed shard");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("wrote 1 of 4 scenarios")
            && stderr.contains("3 resumed as already complete"),
        "resume did not rerun the forged scenario alone: {stderr}"
    );
    assert_ok(
        &samr(&["campaign-merge", dir.to_str().unwrap()]),
        "second merge",
    );
    assert!(
        campaign_csv(&dir) == GOLDEN,
        "merged campaign.csv after the rerun drifted from the golden artifact"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_unsharded_campaign_resumes_to_the_golden_csv() {
    let dir = temp_dir("resume-unsharded");
    let mut args = vec!["campaign"];
    args.extend(AXES);
    args.extend(["--out", dir.to_str().unwrap()]);
    assert_ok(&samr(&args), "initial campaign");
    let front = std::fs::read(dir.join("campaign.pareto.json")).unwrap();
    // Tear the directory back to a mid-run state: one scenario loses
    // its artifacts and stamp, and the campaign files are gone too.
    let victim = "tp2d_hybrid_p8_g1";
    for name in [
        format!("{victim}.csv"),
        format!("{victim}.json"),
        format!("{victim}.done.json"),
        "campaign.csv".to_string(),
        "campaign.pareto.json".to_string(),
        "campaign.manifest.json".to_string(),
    ] {
        std::fs::remove_file(dir.join(name)).unwrap();
    }
    let mut args = vec!["campaign"];
    args.extend(AXES);
    args.extend(["--resume", "--out", dir.to_str().unwrap()]);
    let out = samr(&args);
    assert_ok(&out, "resumed campaign");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("1 scenarios executed, 3 resumed as already complete"),
        "resume did not skip the complete scenarios: {stderr}"
    );
    assert!(
        campaign_csv(&dir) == GOLDEN,
        "resumed campaign.csv drifted from the golden artifact"
    );
    assert!(
        std::fs::read(dir.join("campaign.pareto.json")).unwrap() == front,
        "resumed campaign.pareto.json differs from the uninterrupted run's"
    );
    let manifest: CampaignManifest =
        serde_json::from_str(&std::fs::read_to_string(dir.join("campaign.manifest.json")).unwrap())
            .unwrap();
    assert_eq!(manifest.scenario_count, 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retries_flag_requires_workers() {
    let mut args = vec!["campaign"];
    args.extend(AXES);
    args.extend(["--retries", "2"]);
    let out = samr(&args);
    assert!(
        !out.status.success(),
        "--retries without --workers was accepted"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--workers"),
        "error does not point at --workers"
    );
}

#[test]
fn unparsable_trace_cache_budget_warns_instead_of_silently_defaulting() {
    let dir = temp_dir("budget-warning");
    let out = Command::new(env!("CARGO_BIN_EXE_samr"))
        .args([
            "campaign",
            "--apps",
            "tp2d",
            "--partitioners",
            "hybrid",
            "--nprocs",
            "4",
            "--config",
            "smoke",
            "--out",
            dir.to_str().unwrap(),
        ])
        .env("SAMR_TRACE_CACHE_BYTES", "256MB")
        .output()
        .expect("spawn samr");
    assert_ok(&out, "campaign under a bad budget value");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("SAMR_TRACE_CACHE_BYTES") && stderr.contains("256MB"),
        "no warning naming the rejected value: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mixed_shard_families_are_rejected_by_name_at_merge() {
    let dir = temp_dir("mixed-families");
    for i in 0..2 {
        let shard = format!("{i}/2");
        let mut args = vec!["campaign"];
        args.extend(AXES);
        args.extend(["--shard", &shard, "--out", dir.to_str().unwrap()]);
        assert_ok(&samr(&args), &format!("shard {i}/2"));
    }
    // A leftover directory from an older 3-way split of the same
    // campaign: discovery must reject the mix by name.
    std::fs::create_dir_all(dir.join("shard-0-of-3")).unwrap();
    let merge = samr(&["campaign-merge", dir.to_str().unwrap()]);
    assert!(!merge.status.success(), "mixed families merged");
    let stderr = String::from_utf8_lossy(&merge.stderr);
    assert!(
        stderr.contains("different shard counts"),
        "unhelpful mixed-family error: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_flag_validation_rejects_malformed_values() {
    for bad in ["3/3", "2", "a/b", "1/0"] {
        let mut args = vec!["campaign"];
        args.extend(AXES);
        args.extend(["--shard", bad]);
        let out = samr(&args);
        assert!(!out.status.success(), "--shard {bad} was accepted");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--shard"),
            "--shard {bad}: error does not name the flag"
        );
    }
    // --shard and --workers together make no sense.
    let mut args = vec!["campaign"];
    args.extend(AXES);
    args.extend(["--shard", "0/2", "--workers", "2"]);
    let out = samr(&args);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
}

#[test]
fn spec_file_reproduces_the_axis_flags_campaign() {
    // A spec written by one process and executed from the file by
    // another (what --workers does internally) plans the same campaign.
    let dir = temp_dir("specfile");
    let mut args = vec!["campaign"];
    args.extend(AXES);
    args.extend(["--out", dir.to_str().unwrap()]);
    assert_ok(&samr(&args), "axis-flags campaign");
    let spec_path = dir.join("respec.json");
    let manifest = std::fs::read_to_string(dir.join("campaign.manifest.json")).unwrap();
    let manifest: CampaignManifest = serde_json::from_str(&manifest).unwrap();
    std::fs::write(&spec_path, serde_json::to_string(&manifest.spec).unwrap()).unwrap();
    let redir = temp_dir("specfile-re");
    let out = samr(&[
        "campaign",
        "--spec",
        spec_path.to_str().unwrap(),
        "--out",
        redir.to_str().unwrap(),
    ]);
    assert_ok(&out, "spec-file campaign");
    assert_eq!(campaign_csv(&dir), campaign_csv(&redir));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&redir).ok();
}

#[test]
fn simulate_and_compare_reject_a_trace_with_no_snapshots() {
    // A trace file holding only its JSON-lines header is input the
    // program does not control: both commands must fail with a message,
    // not a panic.
    use samr::geom::Rect2;
    use samr::trace::io::JsonlSnapshotWriter;
    use samr::trace::TraceMeta;
    let dir = temp_dir("empty-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("empty.trace");
    let meta = TraceMeta::<2> {
        app: "SYN".into(),
        description: "header only".into(),
        base_domain: Rect2::from_extents(8, 8),
        ratio: 2,
        max_levels: 2,
        regrid_interval: 4,
        min_block: 2,
        seed: 0,
    };
    let file = std::fs::File::create(&path).unwrap();
    JsonlSnapshotWriter::new(file, &meta)
        .unwrap()
        .finish()
        .unwrap();
    for cmd in ["simulate", "compare"] {
        let out = samr(&[cmd, path.to_str().unwrap(), "--nprocs", "4"]);
        assert_eq!(out.status.code(), Some(1), "samr {cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("cannot simulate an empty snapshot stream"),
            "samr {cmd}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "samr {cmd}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unrunnable_trace_configs_are_refused_by_field_with_no_output() {
    // A spec file or an axis flag is input the program does not
    // control: a value the planner cannot run must exit 1 with an
    // `error:` line naming the field and its bound, before any output
    // directory exists.
    use samr::apps::{AppKind, TraceGenConfig};
    use samr::engine::CampaignSpec;
    type Edit = fn(&mut CampaignSpec);
    let spec_cases: [(&str, Edit, &str); 5] = [
        (
            "ref-resolution",
            |s| s.trace.ref_resolution = 4,
            "`ref_resolution` = 4 is out of range (must be >= 8)",
        ),
        (
            "zero-steps",
            |s| s.trace.steps = 0,
            "`steps` = 0 is out of range (must be >= 1)",
        ),
        (
            "zero-ratio",
            |s| s.trace.ratio = 0,
            "`ratio` = 0 is out of range (must be >= 2)",
        ),
        (
            "zero-nprocs",
            |s| s.nprocs = vec![0],
            "`nprocs` = 0 is out of range (must be >= 1)",
        ),
        (
            "negative-ghost-width",
            |s| s.ghost_widths = vec![-3],
            "`ghost_widths` = -3 is out of range (must be >= 0)",
        ),
    ];
    let assert_refused = |tag: &str, args: &[&str], message: &str, out_dir: &PathBuf| {
        let out = samr(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert!(
            stderr.contains("error: ") && stderr.contains(message),
            "{tag}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{tag}: {stderr}");
        assert!(!out_dir.exists(), "{tag}: partial output left behind");
    };
    for (tag, edit, message) in spec_cases {
        let dir = temp_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        let mut spec = CampaignSpec::new(TraceGenConfig::smoke())
            .apps([AppKind::Tp2d])
            .nprocs([4]);
        edit(&mut spec);
        let spec_path = dir.join("spec.json");
        std::fs::write(&spec_path, serde_json::to_string(&spec).unwrap()).unwrap();
        let out_dir = dir.join("out");
        let args = [
            "campaign",
            "--spec",
            spec_path.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
        ];
        assert_refused(tag, &args, message, &out_dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    // The same bound on the `--nprocs` flag of every command that has one.
    let dir = temp_dir("zero-nprocs-flag");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("tp2d.trace");
    let trace = trace.to_str().unwrap();
    assert_ok(
        &samr(&["generate", "tp2d", "--config", "smoke", "--out", trace]),
        "generate",
    );
    let out_dir = dir.join("out");
    let out = out_dir.to_str().unwrap();
    let message = "`nprocs` = 0 is out of range (must be >= 1)";
    let campaign = [
        "campaign", "--apps", "tp2d", "--nprocs", "0", "--config", "smoke", "--out", out,
    ];
    assert_refused("campaign --nprocs 0", &campaign, message, &out_dir);
    for cmd in ["simulate", "compare"] {
        let args = [cmd, trace, "--nprocs", "0"];
        assert_refused(&format!("{cmd} --nprocs 0"), &args, message, &out_dir);
    }
    std::fs::remove_dir_all(&dir).ok();
}
