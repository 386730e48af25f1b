//! Plan → shard-execute → merge integration: a campaign split across
//! shard executors and merged back must be byte-identical to the
//! unsharded run (and to the checked-in golden artifact), every cohort
//! must land whole on one shard, and the merger must reject incomplete,
//! foreign or corrupt shard sets with precise errors instead of merging
//! them wrong.

use proptest::prelude::*;
use samr_apps::{AppKind, TraceGenConfig};
use samr_engine::{
    cohorts, find_shard_dirs, merge_shards, Campaign, CampaignPlan, CampaignSpec, MergeError,
    PartitionerSpec, PolicySpec, ShardExecutor, ShardManifest, ShardStrategy, CAMPAIGN_PARETO,
};
use samr_sim::MachineModel;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn two_by_two() -> CampaignSpec {
    CampaignSpec::new(TraceGenConfig::smoke())
        .apps([AppKind::Tp2d, AppKind::Sc2d])
        .partitioners([
            PartitionerSpec::parse("hybrid").unwrap(),
            PartitionerSpec::parse("domain-sfc").unwrap(),
        ])
        .nprocs([8])
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("samr-shard-test-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run every shard of a plan in-process and return the shard dirs.
fn run_shards(plan: &CampaignPlan, dir: &std::path::Path) -> Vec<PathBuf> {
    (0..plan.nshards)
        .map(|shard| {
            ShardExecutor {
                shard,
                resume: false,
            }
            .run_shard(plan, dir)
            .unwrap()
            .dir
        })
        .collect()
}

#[test]
fn three_shard_split_merges_to_the_golden_bytes() {
    let dir = temp_dir("golden");
    let plan = CampaignPlan::new(&two_by_two(), 3, ShardStrategy);
    let shard_dirs = run_shards(&plan, &dir);
    assert_eq!(shard_dirs.len(), 3);
    // Discovery finds the same directories the executors returned.
    let mut found = find_shard_dirs(&dir).unwrap();
    found.sort();
    let mut expected = shard_dirs.clone();
    expected.sort();
    assert_eq!(found, expected);
    let report = merge_shards(&shard_dirs, &dir).unwrap();
    assert_eq!(report.scenario_count, plan.len());
    assert_eq!(report.shards, 3);
    assert_eq!(report.plan_hash, plan.plan_hash);
    let merged = std::fs::read_to_string(&report.csv_path).unwrap();
    assert!(
        merged == include_str!("golden/campaign_smoke.csv"),
        "merged campaign drifted from the golden artifact"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The members of `all` whose bit is set in `mask`, in order.
fn pick<T: Copy>(all: &[T], mask: u8) -> Vec<T> {
    (0..all.len())
        .filter(|i| mask >> i & 1 == 1)
        .map(|i| all[i])
        .collect()
}

/// A spec over the subsets of each axis that the bit masks pick: static
/// and switching partitioners, the static and an adaptive policy, three
/// machines, 2-D and 3-D, on a trace small enough to run every case.
fn random_spec(
    (apps, partitioners, policies, machines, nprocs): (u8, u8, u8, u8, u8),
) -> CampaignSpec {
    let partitioners = pick(
        &["hybrid", "domain-sfc", "meta", "octant-meta"],
        partitioners,
    );
    let policies = pick(&["static", "adaptive:balance"], policies);
    let machines = pick(&["uniform", "slow-net", "slow-cpu"], machines);
    CampaignSpec::new(TraceGenConfig {
        steps: 4,
        base_cells: 8,
        ref_resolution: 24,
        ..TraceGenConfig::smoke()
    })
    .apps(pick(&[AppKind::Tp2d, AppKind::Sc2d, AppKind::Sp3d], apps))
    .partitioners(
        partitioners
            .iter()
            .map(|p| PartitionerSpec::parse(p).unwrap()),
    )
    .policies(policies.iter().map(|p| PolicySpec::parse(p).unwrap()))
    .machines(machines.iter().map(|m| MachineModel::parse(m).unwrap()))
    .nprocs(pick(&[2, 4, 8], nprocs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_cohort_lands_whole_on_one_shard_at_any_shard_count(
        axes in (1u8..8, 1u8..16, 1u8..4, 1u8..8, 1u8..8),
    ) {
        let spec = random_spec(axes);
        let one = CampaignPlan::new(&spec, 1, ShardStrategy);
        for nshards in 1..=7 {
            let plan = CampaignPlan::new(&spec, nshards, ShardStrategy);
            prop_assert_eq!(&plan, &CampaignPlan::new(&spec, nshards, ShardStrategy));
            prop_assert_eq!(&plan.plan_hash, &one.plan_hash);
            // Every scenario lands on exactly one shard.
            let mut ids: Vec<usize> = (0..nshards)
                .flat_map(|shard| plan.shard_scenarios(shard))
                .map(|p| p.id)
                .collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..plan.len()).collect::<Vec<_>>());
            // The recorded cohorts are the scenarios that share one
            // simulation, and each one's members share a shard.
            for a in &plan.scenarios {
                for b in &plan.scenarios {
                    let same = a.scenario.same_cohort(&b.scenario);
                    prop_assert_eq!(a.cohort == b.cohort, same);
                    prop_assert!(!same || a.shard == b.shard, "{} and {} split", a.slug, b.slug);
                }
            }
            // So a shard's cohorts are whole.
            for shard in 0..nshards {
                for cohort in cohorts(&plan.shard_scenarios(shard)) {
                    let members = plan.scenarios.iter().filter(|p| p.cohort == cohort[0].cohort);
                    prop_assert_eq!(cohort.len(), members.count());
                }
            }
        }
        // Seven shards, some of them empty when the plan has fewer
        // cohorts, merge to the unsharded bytes.
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let (sharded, unsharded) = (temp_dir(&format!("prop-{case}")), temp_dir(&format!("prop-{case}-one")));
        let plan = CampaignPlan::new(&spec, 7, ShardStrategy);
        merge_shards(&run_shards(&plan, &sharded), &sharded).unwrap();
        Campaign::run_to_dir(&spec, &unsharded).unwrap();
        for name in ["campaign.csv", CAMPAIGN_PARETO] {
            let (a, b) = (std::fs::read(sharded.join(name)).unwrap(), std::fs::read(unsharded.join(name)).unwrap());
            prop_assert!(a == b, "{name} differs between the 7-shard merge and the unsharded run");
        }
        std::fs::remove_dir_all(&sharded).ok();
        std::fs::remove_dir_all(&unsharded).ok();
    }
}

#[test]
fn merged_artifacts_match_the_unsharded_run_file_for_file() {
    let sharded = temp_dir("files-sharded");
    let unsharded = temp_dir("files-unsharded");
    let spec = two_by_two();
    let plan = CampaignPlan::new(&spec, 2, ShardStrategy);
    let shard_dirs = run_shards(&plan, &sharded);
    merge_shards(&shard_dirs, &sharded).unwrap();
    Campaign::run_to_dir(&spec, &unsharded).unwrap();
    for planned in &plan.scenarios {
        for ext in ["csv", "json"] {
            let name = format!("{}.{ext}", planned.slug);
            let a = std::fs::read_to_string(sharded.join(&name)).unwrap();
            let b = std::fs::read_to_string(unsharded.join(&name)).unwrap();
            assert_eq!(a, b, "{name} differs between merged and unsharded runs");
        }
    }
    for name in ["campaign.csv", "campaign.pareto.json"] {
        assert_eq!(
            std::fs::read_to_string(sharded.join(name)).unwrap(),
            std::fs::read_to_string(unsharded.join(name)).unwrap(),
            "{name} differs between merged and unsharded runs"
        );
    }
    std::fs::remove_dir_all(&sharded).ok();
    std::fs::remove_dir_all(&unsharded).ok();
}

#[test]
fn pareto_front_is_byte_identical_across_shard_counts() {
    // The merger and the in-process runner write the front through one
    // code path; a 1-, 3- and 7-shard merge (three shards of the last
    // empty: the plan has four cohorts) — and the unsharded run — must
    // all land on the same golden bytes.
    let golden = include_str!("golden/campaign_pareto_smoke.json");
    let spec = two_by_two();
    for nshards in [1, 3, 7] {
        let dir = temp_dir(&format!("pareto-{nshards}"));
        let plan = CampaignPlan::new(&spec, nshards, ShardStrategy);
        let shard_dirs = run_shards(&plan, &dir);
        merge_shards(&shard_dirs, &dir).unwrap();
        let merged = std::fs::read_to_string(dir.join("campaign.pareto.json")).unwrap();
        assert!(
            merged == golden,
            "{nshards}-shard merged pareto front drifted from the golden artifact"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    let dir = temp_dir("pareto-unsharded");
    Campaign::run_to_dir(&spec, &dir).unwrap();
    let unsharded = std::fs::read_to_string(dir.join("campaign.pareto.json")).unwrap();
    assert!(
        unsharded == golden,
        "unsharded pareto front drifted from the golden artifact"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_manifests_describe_their_slice_of_the_plan() {
    let dir = temp_dir("manifest");
    let plan = CampaignPlan::new(&two_by_two(), 3, ShardStrategy);
    let shard_dirs = run_shards(&plan, &dir);
    for (shard, shard_dir) in shard_dirs.iter().enumerate() {
        let m = ShardManifest::read(shard_dir).unwrap();
        assert_eq!(m.shard, shard);
        assert_eq!(m.nshards, 3);
        assert_eq!(m.plan_hash, plan.plan_hash);
        assert_eq!(m.total_scenarios, plan.len());
        assert_eq!(m.spec, plan.spec);
        let expected: Vec<usize> = plan.shard_scenarios(shard).iter().map(|p| p.id).collect();
        let got: Vec<usize> = m.scenarios.iter().map(|e| e.id).collect();
        assert_eq!(got, expected);
        // Every listed artifact exists.
        for e in &m.scenarios {
            assert!(shard_dir.join(format!("{}.csv", e.slug)).exists());
            assert!(shard_dir.join(format!("{}.json", e.slug)).exists());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_rejects_a_missing_shard() {
    let dir = temp_dir("missing-shard");
    let plan = CampaignPlan::new(&two_by_two(), 3, ShardStrategy);
    let shard_dirs = run_shards(&plan, &dir);
    let err = merge_shards(&shard_dirs[..2], &dir).unwrap_err();
    match &err {
        MergeError::MissingShards {
            missing,
            count,
            nshards,
        } => {
            assert_eq!(missing, &vec![2]);
            assert_eq!(*count, 1);
            assert_eq!(*nshards, 3);
        }
        other => panic!("expected MissingShards, got {other:?}"),
    }
    // The message tells the operator exactly what to run.
    assert!(err.to_string().contains("--shard i/3"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_rejects_a_foreign_plan_hash() {
    let dir = temp_dir("foreign-hash");
    let plan = CampaignPlan::new(&two_by_two(), 2, ShardStrategy);
    let shard_dirs = run_shards(&plan, &dir);
    // Tamper: shard 1 claims to belong to a different plan, as if it
    // were left over from an older campaign in the same directory.
    let mut m = ShardManifest::read(&shard_dirs[1]).unwrap();
    m.plan_hash = "deadbeefdeadbeef".into();
    m.write(&shard_dirs[1]).unwrap();
    let err = merge_shards(&shard_dirs, &dir).unwrap_err();
    match &err {
        MergeError::PlanHashMismatch {
            expected, found, ..
        } => {
            assert_eq!(expected, &plan.plan_hash);
            assert_eq!(found, "deadbeefdeadbeef");
        }
        other => panic!("expected PlanHashMismatch, got {other:?}"),
    }
    assert!(err.to_string().contains("different campaigns"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_rejects_duplicate_scenario_claims() {
    let dir = temp_dir("dup-scenario");
    let plan = CampaignPlan::new(&two_by_two(), 2, ShardStrategy);
    let shard_dirs = run_shards(&plan, &dir);
    // Tamper: shard 1 also claims shard 0's scenarios (a truncated or
    // corrupted rerun could produce this).
    let m0 = ShardManifest::read(&shard_dirs[0]).unwrap();
    let mut m1 = ShardManifest::read(&shard_dirs[1]).unwrap();
    m1.scenarios.extend(m0.scenarios.clone());
    m1.write(&shard_dirs[1]).unwrap();
    match merge_shards(&shard_dirs, &dir).unwrap_err() {
        MergeError::DuplicateScenario { id } => assert_eq!(id, m0.scenarios[0].id),
        other => panic!("expected DuplicateScenario, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_rejects_forged_manifest_counts_without_sizing_by_them() {
    // A manifest's shard and scenario counts are read from disk: forged
    // ones must end in a typed error, not in an allocation the size of
    // the forged count.
    let dir = temp_dir("forged-counts");
    let plan = CampaignPlan::new(&two_by_two(), 1, ShardStrategy);
    let shard_dirs = run_shards(&plan, &dir);
    let genuine = ShardManifest::read(&shard_dirs[0]).unwrap();
    let n = plan.len();
    let forge = |edit: &dyn Fn(&mut ShardManifest)| {
        let mut m = genuine.clone();
        edit(&mut m);
        m.write(&shard_dirs[0]).unwrap();
        merge_shards(&shard_dirs, &dir).unwrap_err()
    };
    for total in [usize::MAX, 4_000_000_000_000] {
        match forge(&|m| m.total_scenarios = total) {
            MergeError::MissingScenarios {
                missing,
                count,
                total: t,
            } => {
                assert_eq!(missing, (n..n + 32).collect::<Vec<_>>());
                assert_eq!((count, t), (total - n, total));
            }
            other => panic!("expected MissingScenarios for total {total}, got {other:?}"),
        }
    }
    let err = forge(&|m| m.nshards = 100_000_000_000);
    match &err {
        MergeError::MissingShards {
            missing,
            count,
            nshards,
        } => {
            assert_eq!(missing, &(1..33).collect::<Vec<_>>());
            assert_eq!((*count, *nshards), (99_999_999_999, 100_000_000_000));
        }
        other => panic!("expected MissingShards, got {other:?}"),
    }
    assert!(err.to_string().contains("and 99999999967 more"), "{err}");
    match forge(&|m| m.shard = 1) {
        MergeError::ShardOutOfRange { shard, nshards, .. } => assert_eq!((shard, nshards), (1, 1)),
        other => panic!("expected ShardOutOfRange, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_rejects_duplicate_shards_and_empty_sets() {
    let dir = temp_dir("dup-shard");
    let plan = CampaignPlan::new(&two_by_two(), 2, ShardStrategy);
    let shard_dirs = run_shards(&plan, &dir);
    let doubled = vec![
        shard_dirs[0].clone(),
        shard_dirs[1].clone(),
        shard_dirs[0].clone(),
    ];
    match merge_shards(&doubled, &dir).unwrap_err() {
        MergeError::DuplicateShard { shard } => assert_eq!(shard, 0),
        other => panic!("expected DuplicateShard, got {other:?}"),
    }
    match merge_shards(&[], &dir).unwrap_err() {
        MergeError::NoShards => {}
        other => panic!("expected NoShards, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_rejects_a_directory_without_a_manifest() {
    let dir = temp_dir("no-manifest");
    let plan = CampaignPlan::new(&two_by_two(), 2, ShardStrategy);
    let mut shard_dirs = run_shards(&plan, &dir);
    // A directory that is not even named like a shard: not a shard
    // directory at all.
    let bogus = dir.join("scratch");
    std::fs::create_dir_all(&bogus).unwrap();
    shard_dirs.push(bogus.clone());
    match merge_shards(&shard_dirs, &dir).unwrap_err() {
        MergeError::MissingManifest(d) => assert_eq!(d, bogus),
        other => panic!("expected MissingManifest, got {other:?}"),
    }
    // An *empty* shard-named directory is the wreckage of a worker
    // killed before its first scenario landed (the executor creates the
    // directory up front): resumable, with the rerun command.
    shard_dirs.pop();
    let empty = dir.join("shard-9-of-9");
    std::fs::create_dir_all(&empty).unwrap();
    shard_dirs.push(empty.clone());
    match merge_shards(&shard_dirs, &dir).unwrap_err() {
        MergeError::ShardIncomplete {
            dir: d,
            shard,
            nshards,
            rerun,
            ..
        } => {
            assert_eq!(d, empty);
            assert_eq!((shard, nshards), (9, 9));
            assert!(rerun.contains("--resume"), "{rerun}");
        }
        other => panic!("expected ShardIncomplete, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_flags_deleted_artifacts_as_resumable_incompleteness() {
    // Deleted outputs are a resumable gap, not corruption: the merger
    // must name the missing scenario and hand the operator the exact
    // `--resume` invocation that fills it.
    let dir = temp_dir("missing-artifact");
    let plan = CampaignPlan::new(&two_by_two(), 2, ShardStrategy);
    let shard_dirs = run_shards(&plan, &dir);
    let victim = &plan.shard_scenarios(0)[0].slug;
    std::fs::remove_file(shard_dirs[0].join(format!("{victim}.csv"))).unwrap();
    let err = merge_shards(&shard_dirs, &dir).unwrap_err();
    match &err {
        MergeError::ShardIncomplete {
            shard,
            nshards,
            missing,
            rerun,
            ..
        } => {
            assert_eq!((*shard, *nshards), (0, 2));
            assert_eq!(missing, &vec![victim.clone()]);
            assert!(rerun.contains("--shard 0/2"), "{rerun}");
            assert!(rerun.contains("--resume"), "{rerun}");
        }
        other => panic!("expected ShardIncomplete, got {other:?}"),
    }
    assert!(err.to_string().contains("resumable"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_flags_torn_artifact_bytes_as_corruption() {
    // Bytes that disagree with their completion record cannot be
    // produced by a crash (writes are tmp-then-rename): that is genuine
    // corruption and must be typed as such, not merged and not called
    // merely incomplete.
    let dir = temp_dir("torn-artifact");
    let plan = CampaignPlan::new(&two_by_two(), 2, ShardStrategy);
    let shard_dirs = run_shards(&plan, &dir);
    let victim = &plan.shard_scenarios(1)[0].slug;
    let path = shard_dirs[1].join(format!("{victim}.csv"));
    let whole = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &whole[..whole.len() / 2]).unwrap();
    let err = merge_shards(&shard_dirs, &dir).unwrap_err();
    match &err {
        MergeError::CorruptArtifact { detail, rerun, .. } => {
            assert!(detail.contains("digest"), "{detail}");
            assert!(rerun.contains("--resume"), "{rerun}");
        }
        other => panic!("expected CorruptArtifact, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_flags_a_manifestless_executed_shard_as_resumable() {
    // A shard killed before its manifest write (the manifest is the
    // last artifact) has records and CSVs but no manifest: incomplete,
    // not "not a shard directory".
    let dir = temp_dir("killed-shard");
    let plan = CampaignPlan::new(&two_by_two(), 2, ShardStrategy);
    let shard_dirs = run_shards(&plan, &dir);
    std::fs::remove_file(shard_dirs[1].join("shard.manifest.json")).unwrap();
    let err = merge_shards(&shard_dirs, &dir).unwrap_err();
    match &err {
        MergeError::ShardIncomplete { shard, rerun, .. } => {
            assert_eq!(*shard, 1);
            assert!(rerun.contains("--shard 1/2"), "{rerun}");
        }
        other => panic!("expected ShardIncomplete, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resumed_shard_skips_complete_scenarios_and_merges_to_golden() {
    // Simulate a shard killed mid-run: one scenario finished (stamped),
    // the other's artifacts and the manifest are gone. --resume must
    // re-execute exactly the remainder and the merge must match the
    // golden bytes.
    let dir = temp_dir("resume-shard");
    let plan = CampaignPlan::new(&two_by_two(), 2, ShardStrategy);
    let shard_dirs = run_shards(&plan, &dir);
    let scenarios = plan.shard_scenarios(0);
    assert_eq!(scenarios.len(), 2);
    let victim = &scenarios[1].slug;
    for name in [
        format!("{victim}.csv"),
        format!("{victim}.json"),
        format!("{victim}.done.json"),
        "shard.manifest.json".to_string(),
    ] {
        std::fs::remove_file(shard_dirs[0].join(name)).unwrap();
    }
    let rerun = ShardExecutor {
        shard: 0,
        resume: true,
    }
    .run_shard(&plan, &dir)
    .unwrap();
    assert_eq!(rerun.skipped, 1, "the stamped scenario must be skipped");
    assert_eq!(rerun.digests.len(), 1, "only the victim re-executes");
    let report = merge_shards(&shard_dirs, &dir).unwrap();
    let merged = std::fs::read_to_string(&report.csv_path).unwrap();
    assert!(
        merged == include_str!("golden/campaign_smoke.csv"),
        "resumed + merged campaign drifted from the golden artifact"
    );
    let front = std::fs::read_to_string(dir.join("campaign.pareto.json")).unwrap();
    assert!(
        front == include_str!("golden/campaign_pareto_smoke.json"),
        "resumed + merged pareto front drifted from the golden artifact"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_reruns_torn_artifacts_instead_of_trusting_them() {
    let dir = temp_dir("resume-torn");
    let plan = CampaignPlan::new(&two_by_two(), 2, ShardStrategy);
    let shard_dirs = run_shards(&plan, &dir);
    let victim = &plan.shard_scenarios(0)[0].slug;
    // Truncate the CSV but leave its completion record: resume must
    // notice the digest mismatch and re-execute the scenario.
    let path = shard_dirs[0].join(format!("{victim}.csv"));
    let whole = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &whole[..whole.len() / 3]).unwrap();
    let rerun = ShardExecutor {
        shard: 0,
        resume: true,
    }
    .run_shard(&plan, &dir)
    .unwrap();
    assert_eq!(rerun.skipped, 1, "the intact scenario is skipped");
    assert_eq!(rerun.digests.len(), 1, "the torn scenario re-executes");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), whole);
    let report = merge_shards(&shard_dirs, &dir).unwrap();
    let merged = std::fs::read_to_string(&report.csv_path).unwrap();
    assert!(merged == include_str!("golden/campaign_smoke.csv"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_discovery_rejects_mixed_shard_families_by_name() {
    // A stale shard-0-of-2 next to a fresh 3-shard family must be
    // rejected by name at discovery, not surface as duplicate-index
    // corruption during validation.
    let dir = temp_dir("mixed-family");
    let plan = CampaignPlan::new(&two_by_two(), 3, ShardStrategy);
    run_shards(&plan, &dir);
    std::fs::create_dir_all(dir.join("shard-0-of-2")).unwrap();
    match find_shard_dirs(&dir).unwrap_err() {
        MergeError::MixedShardFamilies { families } => assert_eq!(families, vec![2, 3]),
        other => panic!("expected MixedShardFamilies, got {other:?}"),
    }
    // Malformed shard-like names are not shard directories at all.
    std::fs::remove_dir_all(dir.join("shard-0-of-2")).unwrap();
    std::fs::create_dir_all(dir.join("shard-x-of-y")).unwrap();
    std::fs::create_dir_all(dir.join("shard-0-of-3-backup")).unwrap();
    let found = find_shard_dirs(&dir).unwrap();
    assert_eq!(found.len(), 3, "{found:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_shard_plan_executes_and_merges_too() {
    // The degenerate 1-shard case: shard 0 is the whole campaign and the
    // merge is a plain reassembly.
    let dir = temp_dir("one-shard");
    let plan = CampaignPlan::new(&two_by_two(), 1, ShardStrategy);
    let shard_dirs = run_shards(&plan, &dir);
    let report = merge_shards(&shard_dirs, &dir).unwrap();
    assert_eq!(report.scenario_count, plan.len());
    let merged = std::fs::read_to_string(&report.csv_path).unwrap();
    assert!(merged == include_str!("golden/campaign_smoke.csv"));
    std::fs::remove_dir_all(&dir).ok();
}
