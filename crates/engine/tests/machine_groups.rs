//! Scenarios that differ only in the machine share one simulation: the
//! grouped campaign must write exactly the bytes of one single-machine
//! campaign per machine, `meta` (the one partitioner that reads the
//! machine) must never be grouped, and resumption must stay per
//! scenario.

use samr_apps::{AppKind, TraceGenConfig};
use samr_engine::{
    cached_trace, simulation_groups, Campaign, CampaignPlan, CampaignSpec, PartitionerSpec,
    PlannedScenario, PolicySpec, ShardStrategy, CAMPAIGN_PARETO,
};
use samr_partition::Partition;
use samr_sim::MachineModel;
use samr_trace::AnyTrace;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("samr-groups-test-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn machines() -> Vec<MachineModel> {
    ["uniform", "slow-net", "slow-cpu"]
        .map(|m| MachineModel::parse(m).unwrap())
        .to_vec()
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
/// policy, in 2-D and 3-D, on `machines`.
fn registry_spec(machines: impl IntoIterator<Item = MachineModel>) -> CampaignSpec {
    CampaignSpec::new(trace_config())
        .apps([AppKind::Tp2d, AppKind::Sp3d])
        .partitioners(PartitionerSpec::registry().into_iter().map(|(_, s)| s))
        .policies([
            PolicySpec::Static,
            PolicySpec::parse("adaptive:balance").unwrap(),
        ])
        .nprocs([4])
        .machines(machines)
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

#[test]
fn grouped_campaign_writes_the_bytes_of_one_campaign_per_machine() {
    let spec = registry_spec(machines());
    let grouped = temp_dir("grouped");
    let (outcomes, _) = Campaign::run_to_dir(&spec, &grouped).unwrap();
    assert_eq!(outcomes.len(), spec.len());
    let single = temp_dir("single");
    for machine in machines() {
        Campaign::run_to_dir(&registry_spec([machine]), &single).unwrap();
    }
    let names = scenario_artifacts(&grouped);
    assert_eq!(names.len(), 2 * spec.len());
    assert_eq!(names, scenario_artifacts(&single));
    for name in &names {
        let a = std::fs::read(grouped.join(name)).unwrap();
        let b = std::fs::read(single.join(name)).unwrap();
        assert!(
            a == b,
            "{name} differs between the grouped and single-machine runs"
        );
    }
    std::fs::remove_dir_all(&grouped).ok();
    std::fs::remove_dir_all(&single).ok();
}

#[test]
fn groups_span_the_machine_axis_except_under_meta() {
    let plan = CampaignPlan::new(&registry_spec(machines()), 1, ShardStrategy::RoundRobin);
    let scenarios: Vec<&PlannedScenario> = plan.scenarios.iter().collect();
    let groups = simulation_groups(&scenarios);
    assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), plan.len());
    let mut meta_groups = 0;
    for group in &groups {
        if group[0].scenario.partitioner.reads_machine() {
            assert_eq!(group.len(), 1, "meta group {}", group[0].slug);
            meta_groups += 1;
        } else {
            assert_eq!(group.len(), 3, "group at {}", group[0].slug);
        }
    }
    // 2 apps x 2 policies x 3 machines of meta scenarios.
    assert_eq!(meta_groups, 12);
    // Round-robin over as many shards as machines hands every member of
    // a group to a different shard: each shard simulates its own.
    let sharded = CampaignPlan::new(&registry_spec(machines()), 3, ShardStrategy::RoundRobin);
    for shard in 0..3 {
        let slice = sharded.shard_scenarios(shard);
        assert!(simulation_groups(&slice).iter().all(|g| g.len() == 1));
    }
}

/// The partitions a freshly built spec gives for every snapshot of a
/// sample trace, in order, at several processor counts.
fn partitions<const D: usize>(
    spec: &PartitionerSpec,
    machine: &MachineModel,
    trace: &samr_trace::HierarchyTrace<D>,
) -> Vec<Partition<D>> {
    let p = spec.build::<D>(machine);
    [4, 16]
        .into_iter()
        .flat_map(|nprocs| {
            trace
                .snapshots
                .iter()
                .map(|s| p.partition(&s.hierarchy, nprocs))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn reads_machine_is_true_exactly_for_the_specs_that_do() {
    let registry = MachineModel::registry();
    let mut meta_differs = false;
    for app in [AppKind::Tp2d, AppKind::Sp3d] {
        let trace = cached_trace(app, &trace_config());
        for (name, spec) in PartitionerSpec::registry() {
            let same_everywhere = match &*trace {
                AnyTrace::D2(t) => {
                    let uniform = partitions(&spec, &MachineModel::default(), t);
                    registry
                        .iter()
                        .all(|(_, m)| partitions(&spec, m, t) == uniform)
                }
                AnyTrace::D3(t) => {
                    let uniform = partitions(&spec, &MachineModel::default(), t);
                    registry
                        .iter()
                        .all(|(_, m)| partitions(&spec, m, t) == uniform)
                }
            };
            if spec.reads_machine() {
                meta_differs |= !same_everywhere;
            } else {
                assert!(
                    same_everywhere,
                    "{name} partitions differently on some machine: reads_machine() is stale"
                );
            }
        }
    }
    assert!(
        meta_differs,
        "meta partitioned identically on every machine: reads_machine() is stale"
    );
}

#[test]
fn resume_reruns_only_the_deleted_group_member() {
    // Static and adaptive, one partitioner that groups: every group has
    // three members, and deleting one member's artifacts must re-run
    // that member alone.
    let spec = CampaignSpec::new(trace_config())
        .apps([AppKind::Tp2d])
        .partitioners([PartitionerSpec::parse("hybrid").unwrap()])
        .policies([
            PolicySpec::Static,
            PolicySpec::parse("adaptive:balance").unwrap(),
        ])
        .nprocs([4])
        .machines(machines());
    let dir = temp_dir("resume");
    Campaign::run_to_dir(&spec, &dir).unwrap();
    let golden_csv = std::fs::read(dir.join("campaign.csv")).unwrap();
    let golden_front = std::fs::read(dir.join(CAMPAIGN_PARETO)).unwrap();
    let plan = CampaignPlan::new(&spec, 1, ShardStrategy::RoundRobin);
    // The middle member of the adaptive group.
    let victim = &plan.scenarios[4];
    assert_eq!(victim.slug, "tp2d_hybrid_p4_g1_mslow-net_abalance");
    for ext in ["csv", "json", "done.json"] {
        std::fs::remove_file(dir.join(format!("{}.{ext}", victim.slug))).unwrap();
    }
    let run = Campaign::run_to_dir_resume(&spec, &dir, true).unwrap();
    assert_eq!(run.skipped, plan.len() - 1);
    assert_eq!(run.outcomes.len(), 1);
    assert_eq!(run.outcomes[0].scenario, victim.scenario);
    assert_eq!(std::fs::read(dir.join("campaign.csv")).unwrap(), golden_csv);
    assert_eq!(
        std::fs::read(dir.join(CAMPAIGN_PARETO)).unwrap(),
        golden_front
    );
    std::fs::remove_dir_all(&dir).ok();
}
