//! One simulation cohort runs static partitioners, adaptive policies
//! and both selectors over one snapshot stream: every member's result
//! must equal its run alone, bit for bit.

use samr_geom::{AABox, Box3, Rect2};
use samr_grid::GridHierarchy;
use samr_meta::{AdaptiveConfig, AdaptivePolicy, MetaPartitioner, OctantMetaPartitioner};
use samr_partition::PartitionerChoice;
use samr_sim::policy::PartitionPolicy;
use samr_sim::{
    default_window, simulate_cohort, simulate_policy_source_stats, CohortMember, MachineModel,
    SimConfig, StaticPolicy, StreamStats,
};
use samr_trace::{HierarchyTrace, MemorySource, Snapshot, TraceMeta};

/// A two-regime trace: a broad shallow refinement that moves for the
/// first half but holds still over steps 2..4, then a deeply nested
/// point singularity that never moves. The singularity's imbalance
/// makes adaptive policies switch, and its plateau forces the switch
/// to repartition an unchanged hierarchy.
fn phase_trace<const D: usize>(
    base: AABox<D>,
    spread: impl Fn(i64) -> AABox<D>,
    corner: AABox<D>,
    steps: u32,
) -> HierarchyTrace<D> {
    let mut t = HierarchyTrace::new(TraceMeta {
        app: "SYN".into(),
        description: "cohort trace".into(),
        base_domain: base,
        ratio: 2,
        max_levels: 4,
        regrid_interval: 1,
        min_block: 2,
        seed: 0,
    });
    for i in 0..steps {
        let levels = if i < steps / 2 {
            let off = if (2..4).contains(&i) { 2 } else { i as i64 };
            vec![vec![], vec![spread(off)], vec![], vec![]]
        } else {
            let l2 = corner.refine(2);
            vec![vec![], vec![corner], vec![l2], vec![l2.refine(2)]]
        };
        t.push(Snapshot {
            step: i,
            time: i as f64,
            hierarchy: GridHierarchy::from_level_rects(base, 2, &levels),
        });
    }
    t
}

fn trace_2d() -> HierarchyTrace<2> {
    phase_trace(
        Rect2::from_extents(32, 32),
        |off| Rect2::from_coords(0, 0, 27 + off % 4, 27),
        Rect2::from_coords(0, 0, 1, 1),
        12,
    )
}

fn trace_3d() -> HierarchyTrace<3> {
    phase_trace(
        Box3::from_extents(12, 12, 12),
        |off| Box3::from_coords(0, 0, 0, 15 + off % 4, 15, 15),
        Box3::from_coords(0, 0, 0, 1, 1, 1),
        12,
    )
}

fn cfg(machine: &str) -> SimConfig {
    SimConfig {
        nprocs: 16,
        machine: MachineModel::parse(machine).unwrap(),
        ..SimConfig::default()
    }
}

type Cohort<const D: usize> = Vec<(Box<dyn PartitionPolicy<D>>, SimConfig)>;

/// Every static family on every registry machine; adaptive policies
/// over domain-SFC (eager) and hybrid (balance) on two machines; one
/// meta-partitioner (which reads its machine) and one octant baseline.
fn cohort<const D: usize>() -> Cohort<D> {
    let mut out: Cohort<D> = Vec::new();
    for choice in [
        PartitionerChoice::domain_sfc(),
        PartitionerChoice::patch(),
        PartitionerChoice::hybrid(),
    ] {
        for (name, _) in MachineModel::registry() {
            out.push((
                Box::new(StaticPolicy::owning(choice.boxed::<D>())),
                cfg(name),
            ));
        }
    }
    for machine in ["uniform", "slow-cpu"] {
        let local = PartitionerChoice::domain_sfc().boxed::<D>();
        let eager = AdaptivePolicy::<D>::new(local, AdaptiveConfig::eager());
        out.push((Box::new(eager), cfg(machine)));
        let local = PartitionerChoice::hybrid().boxed::<D>();
        let balance = AdaptivePolicy::<D>::new(local, AdaptiveConfig::balance());
        out.push((Box::new(balance), cfg(machine)));
    }
    let slow_cpu = cfg("slow-cpu");
    let meta = MetaPartitioner::<D>::for_machine(&slow_cpu.machine);
    out.push((Box::new(StaticPolicy::owning(Box::new(meta))), slow_cpu));
    let octant = OctantMetaPartitioner::<D>::new();
    out.push((
        Box::new(StaticPolicy::owning(Box::new(octant))),
        cfg("uniform"),
    ));
    out
}

/// Run `cohort()` as one cohort at `window`, assert every member equals
/// its run alone, and return the members' statistics.
fn assert_cohort_matches<const D: usize>(
    t: &HierarchyTrace<D>,
    window: usize,
    label: &str,
) -> Vec<StreamStats> {
    let mut policies = cohort::<D>();
    let mut members: Vec<CohortMember<'_, D>> = policies
        .iter_mut()
        .map(|(policy, cfg)| CohortMember {
            policy: policy.as_mut(),
            cfg: *cfg,
        })
        .collect();
    let runs = simulate_cohort(&mut MemorySource::new(t), &mut members, window).unwrap();
    for (k, (res, stats)) in runs.iter().enumerate() {
        let (mut policy, cfg) = cohort::<D>().swap_remove(k);
        let (alone, alone_stats) =
            simulate_policy_source_stats(&mut MemorySource::new(t), policy.as_mut(), &cfg, window)
                .unwrap();
        assert_eq!(*res, alone, "{label}: member {k} ({})", res.partitioner);
        assert_eq!(
            stats.switch_events, alone_stats.switch_events,
            "{label}: member {k}"
        );
    }
    runs.into_iter().map(|(_, stats)| stats).collect()
}

/// `true` when some member switched onto a step whose hierarchy repeats
/// its predecessor's: the switch forced a repartition of a plateau.
fn forced_a_plateau_switch<const D: usize>(t: &HierarchyTrace<D>, stats: &[StreamStats]) -> bool {
    stats.iter().flat_map(|s| &s.switch_events).any(|e| {
        let i = e.step as usize;
        i > 0 && t.snapshots[i].hierarchy == t.snapshots[i - 1].hierarchy
    })
}

#[test]
fn a_cohort_of_statics_adaptives_and_selectors_equals_each_member_alone() {
    let (t2, t3) = (trace_2d(), trace_3d());
    for window in [1, 3, default_window()] {
        let stats = assert_cohort_matches(&t2, window, &format!("2-D window {window}"));
        assert!(forced_a_plateau_switch(&t2, &stats), "2-D window {window}");
        let stats = assert_cohort_matches(&t3, window, &format!("3-D window {window}"));
        assert!(forced_a_plateau_switch(&t3, &stats), "3-D window {window}");
    }
}

#[test]
fn selectors_under_the_static_policy_are_window_invariant() {
    // A selector selects in step order and never on a reused step at
    // any window; only the partitions of its choices run in parallel.
    let t = trace_2d();
    let run = |window: usize, octant: bool| {
        let cfg = cfg("slow-cpu");
        let mut policy = if octant {
            StaticPolicy::owning(Box::new(OctantMetaPartitioner::<2>::new()))
        } else {
            StaticPolicy::owning(Box::new(MetaPartitioner::<2>::for_machine(&cfg.machine)))
        };
        simulate_policy_source_stats(&mut MemorySource::new(&t), &mut policy, &cfg, window)
            .unwrap()
            .0
    };
    for octant in [false, true] {
        let sequential = run(1, octant);
        for window in [2, 3, 5, 64] {
            assert_eq!(
                run(window, octant),
                sequential,
                "window {window} octant {octant}"
            );
        }
    }
}
