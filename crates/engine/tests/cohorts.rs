//! Scenarios that share a snapshot stream run as one cohort: the
//! registry campaign must write exactly the bytes of one campaign per
//! scenario, at any thread count and across a sharded merge, cohorts
//! must span the machines of a static choice and every scenario that
//! can switch, and resumption must stay per scenario.

use samr_apps::{AppKind, TraceGenConfig};
use samr_engine::{
    build_thread_pool, cohorts, merge_shards, Campaign, CampaignPlan, CampaignSpec,
    PartitionerSpec, PlannedScenario, PolicySpec, ShardExecutor, ShardStrategy, CAMPAIGN_PARETO,
};
use samr_sim::MachineModel;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("samr-cohorts-test-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn machines() -> Vec<MachineModel> {
    ["uniform", "slow-net", "slow-cpu"]
        .map(|m| MachineModel::parse(m).unwrap())
        .to_vec()
}

fn policies() -> [PolicySpec; 2] {
    [
        PolicySpec::Static,
        PolicySpec::parse("adaptive:balance").unwrap(),
    ]
}

/// A small trace configuration both dimensions share.
fn trace_config() -> TraceGenConfig {
    TraceGenConfig {
        steps: 4,
        base_cells: 8,
        ref_resolution: 24,
        ..TraceGenConfig::smoke()
    }
}

/// The whole partitioner registry under the static and an adaptive
/// policy on three machines, in 2-D and 3-D.
fn registry_spec() -> CampaignSpec {
    CampaignSpec::new(trace_config())
        .apps([AppKind::Tp2d, AppKind::Sp3d])
        .partitioners(PartitionerSpec::registry().into_iter().map(|(_, s)| s))
        .policies(policies())
        .nprocs([4])
        .machines(machines())
}

/// The per-scenario CSV and JSON artifacts of a campaign directory: not
/// the completion records (they carry the plan hash) and not the
/// campaign-wide files.
fn scenario_artifacts(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| !n.starts_with("campaign.") && !n.ends_with(".done.json"))
        .collect();
    names.sort();
    names
}

/// Assert that every file `names` lists is byte-identical in `a` and `b`.
fn assert_same_bytes(a: &Path, b: &Path, names: &[String], what: &str) {
    for name in names {
        let x = std::fs::read(a.join(name)).unwrap();
        let y = std::fs::read(b.join(name)).unwrap();
        assert!(x == y, "{name} differs between {what}");
    }
}

#[test]
fn cohort_campaign_writes_the_bytes_of_one_campaign_per_scenario() {
    let spec = registry_spec();
    let together = temp_dir("together");
    let (digests, _) = Campaign::run_to_dir(&spec, &together).unwrap();
    assert_eq!(digests.len(), spec.len());
    let alone = temp_dir("alone");
    for scenario in spec.scenarios() {
        let one = CampaignSpec::new(trace_config())
            .apps([scenario.app])
            .partitioners([scenario.partitioner])
            .policies([scenario.policy])
            .nprocs([scenario.sim.nprocs])
            .machines([scenario.sim.machine]);
        assert_eq!(one.len(), 1);
        Campaign::run_to_dir(&one, &alone).unwrap();
    }
    let names = scenario_artifacts(&together);
    assert_eq!(names.len(), 2 * spec.len());
    assert_eq!(names, scenario_artifacts(&alone));
    assert_same_bytes(
        &together,
        &alone,
        &names,
        "the cohort and one-scenario runs",
    );
    std::fs::remove_dir_all(&together).ok();
    std::fs::remove_dir_all(&alone).ok();
}

#[test]
fn cohort_campaign_is_identical_across_threads_and_a_sharded_merge() {
    let spec = registry_spec();
    let run = |threads: usize| {
        let dir = temp_dir(&format!("threads-{threads}"));
        build_thread_pool(threads)
            .unwrap()
            .install(|| Campaign::run_to_dir(&spec, &dir))
            .unwrap();
        dir
    };
    let one = run(1);
    let mut names = scenario_artifacts(&one);
    names.extend(["campaign.csv".to_string(), CAMPAIGN_PARETO.to_string()]);
    // At 7 threads the shares are short, and a worker whose share is
    // empty starts by taking another's cohorts.
    for threads in [2, 7] {
        let wide = run(threads);
        assert_same_bytes(&one, &wide, &names, &format!("1 and {threads} threads"));
        std::fs::remove_dir_all(&wide).ok();
    }
    // Three shards of whole cohorts merge to the unsharded bytes.
    let sharded = temp_dir("sharded");
    let plan = CampaignPlan::new(&spec, 3, ShardStrategy);
    let shard_dirs: Vec<PathBuf> = (0..plan.nshards)
        .map(|shard| {
            ShardExecutor {
                shard,
                resume: false,
            }
            .run_shard(&plan, &sharded)
            .unwrap()
            .dir
        })
        .collect();
    merge_shards(&shard_dirs, &sharded).unwrap();
    assert_same_bytes(
        &one,
        &sharded,
        &names,
        "the unsharded run and the 3-shard merge",
    );
    for dir in [one, sharded] {
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn cohorts_span_a_static_choice_s_machines_and_everything_that_can_switch() {
    let plan = CampaignPlan::new(&registry_spec(), 1, ShardStrategy);
    let scenarios: Vec<&PlannedScenario> = plan.scenarios.iter().collect();
    let found = cohorts(&scenarios);
    assert_eq!(found.iter().map(Vec::len).sum::<usize>(), plan.len());
    let statics = PartitionerSpec::registry()
        .iter()
        .filter(|(_, s)| !s.stateful())
        .count();
    let registry = PartitionerSpec::registry().len();
    // Per application: one cohort per static choice, spanning the three
    // machines, and one switching cohort with every other scenario — the
    // two selectors under the static policy and the whole registry under
    // the adaptive one, on every machine.
    assert_eq!(found.len(), 2 * (statics + 1));
    for cohort in &found {
        let first = &cohort[0].scenario;
        let expected = match first.static_choice() {
            Some(_) => 3,
            None => 3 * ((registry - statics) + registry),
        };
        assert_eq!(cohort.len(), expected, "cohort at {}", cohort[0].slug);
        assert!(cohort.iter().all(|p| p.scenario.app == first.app));
        assert!(cohort.windows(2).all(|w| w[0].id < w[1].id), "slice order");
    }
    // Over as many shards as machines, every cohort still lands whole
    // on one shard: each shard's cohorts are the plan's.
    let sharded = CampaignPlan::new(&registry_spec(), 3, ShardStrategy);
    for shard in 0..3 {
        let slice = sharded.shard_scenarios(shard);
        for cohort in cohorts(&slice) {
            let whole = found.iter().find(|c| c[0].id == cohort[0].id).unwrap();
            let ids = |c: &[&PlannedScenario]| c.iter().map(|p| p.id).collect::<Vec<_>>();
            assert_eq!(
                ids(&cohort),
                ids(whole),
                "shard {shard} cohort at {}",
                cohort[0].slug
            );
        }
    }
}

#[test]
fn resume_reruns_only_the_deleted_cohort_member() {
    // Static and adaptive, one partitioner: a static cohort and a
    // switching cohort of three members each, and deleting one member's
    // artifacts must re-run that member alone.
    let spec = CampaignSpec::new(trace_config())
        .apps([AppKind::Tp2d])
        .partitioners([PartitionerSpec::parse("hybrid").unwrap()])
        .policies(policies())
        .nprocs([4])
        .machines(machines());
    let dir = temp_dir("resume");
    Campaign::run_to_dir(&spec, &dir).unwrap();
    let golden_csv = std::fs::read(dir.join("campaign.csv")).unwrap();
    let golden_front = std::fs::read(dir.join(CAMPAIGN_PARETO)).unwrap();
    let plan = CampaignPlan::new(&spec, 1, ShardStrategy);
    // The middle member of the switching cohort.
    let victim = &plan.scenarios[4];
    assert_eq!(victim.slug, "tp2d_hybrid_p4_g1_mslow-net_abalance");
    for ext in ["csv", "json", "done.json"] {
        std::fs::remove_file(dir.join(format!("{}.{ext}", victim.slug))).unwrap();
    }
    let run = Campaign::run_to_dir_resume(&spec, &dir, true).unwrap();
    assert_eq!(run.skipped, plan.len() - 1);
    assert_eq!(run.digests.len(), 1);
    assert_eq!(
        run.digests[0].split_whitespace().next(),
        Some(victim.slug.as_str())
    );
    assert_eq!(std::fs::read(dir.join("campaign.csv")).unwrap(), golden_csv);
    assert_eq!(
        std::fs::read(dir.join(CAMPAIGN_PARETO)).unwrap(),
        golden_front
    );
    std::fs::remove_dir_all(&dir).ok();
}
