//! Property-based tests on the adaptive repartitioning policy layer.

use proptest::prelude::*;
use samr_geom::{Point2, Rect2};
use samr_grid::GridHierarchy;
use samr_meta::{AdaptiveConfig, AdaptivePolicy};
use samr_partition::{DomainSfcPartitioner, Partitioner, PartitionerChoice};
use samr_sim::migration::naive_migration_cells;
use samr_sim::policy::PartitionPolicy;
use samr_sim::{simulate_policy_source_stats, MachineModel, SimConfig, StaticPolicy};
use samr_trace::{HierarchyTrace, MemorySource, Snapshot, TraceMeta};

fn meta() -> TraceMeta<2> {
    TraceMeta {
        app: "SYN".into(),
        description: "property trace".into(),
        base_domain: Rect2::from_extents(32, 32),
        ratio: 2,
        max_levels: 4,
        regrid_interval: 1,
        min_block: 2,
        seed: 0,
    }
}

fn trace_from_levels(levels_per_step: Vec<Vec<Vec<Rect2>>>) -> HierarchyTrace<2> {
    let mut t = HierarchyTrace::new(meta());
    for (i, levels) in levels_per_step.into_iter().enumerate() {
        t.push(Snapshot {
            step: i as u32,
            time: i as f64,
            hierarchy: GridHierarchy::from_level_rects(Rect2::from_extents(32, 32), 2, &levels),
        });
    }
    t
}

/// One snapshot's level rectangles: a moving refined blob, optionally
/// carrying a second nested level.
fn arb_levels() -> impl Strategy<Value = Vec<Vec<Rect2>>> {
    let blob = (2i64..20, 2i64..20, 2i64..10, 2i64..10);
    (blob, any::<bool>()).prop_map(|((x, y, w, h), deep)| {
        let l1 = Rect2::new(
            Point2::new(x, y),
            Point2::new((x + w).min(31), (y + h).min(31)),
        )
        .refine(2);
        let mut levels = vec![vec![], vec![l1]];
        if deep {
            if let Some(inner) = l1.shrink(2) {
                if inner.extent().x >= 2 && inner.extent().y >= 2 {
                    levels.push(vec![inner.refine(2)]);
                }
            }
        }
        levels
    })
}

fn arb_trace() -> impl Strategy<Value = HierarchyTrace<2>> {
    prop::collection::vec(arb_levels(), 2..10).prop_map(trace_from_levels)
}

/// A two-regime trace with a randomized phase boundary and singularity
/// position: spread shallow refinement, then a deeply nested near-point
/// feature that a domain cut cannot split.
fn arb_phase_change() -> impl Strategy<Value = HierarchyTrace<2>> {
    (4u32..16, 0i64..28).prop_map(|(steps, corner)| {
        let mut per_step = Vec::new();
        for i in 0..steps {
            let levels = if i < steps / 2 {
                vec![
                    vec![],
                    vec![Rect2::from_coords(0, 0, 27 + (i as i64 % 4), 27)],
                    vec![],
                    vec![],
                ]
            } else {
                let l1 = Rect2::from_coords(corner, corner, corner + 1, corner + 1);
                let l2 = l1.refine(2);
                let l3 = l2.refine(2);
                vec![vec![], vec![l1], vec![l2], vec![l3]]
            };
            per_step.push(levels);
        }
        trace_from_levels(per_step)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// With thresholds that can never fire, the adaptive policy is
    /// *exactly* the static policy over its local partitioner — same
    /// per-step metrics, same total, no switch events — at every window
    /// size.
    #[test]
    fn never_thresholds_reduce_to_static(
        t in arb_trace(),
        nprocs in 2usize..12,
        window in 1usize..8,
    ) {
        let cfg = SimConfig { nprocs, ..SimConfig::default() };
        let mut policy = AdaptivePolicy::<2>::new(
            Box::new(DomainSfcPartitioner::default()),
            AdaptiveConfig::never(),
        );
        let (adaptive, stats) = simulate_policy_source_stats(
            &mut MemorySource::new(&t), &mut policy, &cfg, window,
        ).unwrap();
        let local = DomainSfcPartitioner::default();
        let (stat, _) = simulate_policy_source_stats(
            &mut MemorySource::new(&t), &mut StaticPolicy::new(&local), &cfg, window,
        ).unwrap();
        prop_assert!(stats.switch_events.is_empty());
        prop_assert_eq!(adaptive.steps, stat.steps);
        prop_assert_eq!(adaptive.total_time, stat.total_time);
    }

    /// Every committed switch charges at least the all-pairs
    /// moved-volume oracle between the old partitioner's distribution of
    /// the previous snapshot and the new partitioner's distribution of
    /// the switch snapshot. (Vacuously true on traces where no switch
    /// fires.)
    #[test]
    fn switch_charges_meet_the_moved_volume_oracle(
        t in arb_phase_change(),
        nprocs in 8usize..24,
    ) {
        let cfg = SimConfig {
            nprocs,
            machine: MachineModel::slow_cpu(),
            ..SimConfig::default()
        };
        let acfg = AdaptiveConfig::eager();
        let mut policy = AdaptivePolicy::<2>::new(
            Box::new(DomainSfcPartitioner::default()),
            acfg,
        );
        let (res, stats) = simulate_policy_source_stats(
            &mut MemorySource::new(&t), &mut policy, &cfg, 1,
        ).unwrap();
        let by_name = |name: &str| -> Box<dyn Partitioner<2> + Sync> {
            if name == Partitioner::<2>::name(&DomainSfcPartitioner::default()) {
                Box::new(DomainSfcPartitioner::default())
            } else {
                assert_eq!(name, acfg.balanced.name());
                acfg.balanced.boxed::<2>()
            }
        };
        for ev in &stats.switch_events {
            prop_assert!(ev.step >= 1, "the first snapshot has no predecessor to switch from");
            let prev = &t.snapshots[ev.step as usize - 1];
            let cur = &t.snapshots[ev.step as usize];
            let prev_part = by_name(&ev.from).partition(&prev.hierarchy, cfg.nprocs);
            let cur_part = by_name(&ev.to).partition(&cur.hierarchy, cfg.nprocs);
            let oracle =
                naive_migration_cells(&prev.hierarchy, &prev_part, &cur.hierarchy, &cur_part);
            prop_assert!(
                ev.migration_cells >= oracle,
                "switch at step {} charged {} < oracle {}",
                ev.step, ev.migration_cells, oracle
            );
            let step = res.steps.iter().find(|s| s.step == ev.step).unwrap();
            prop_assert_eq!(step.migration_cells, ev.migration_cells);
        }
    }

    /// The policy's reported name always names both partitioners, and the
    /// starting mode is the local one.
    #[test]
    fn fresh_policy_starts_local(family in 0usize..3) {
        let choice = [
            PartitionerChoice::domain_sfc(),
            PartitionerChoice::patch(),
            PartitionerChoice::hybrid(),
        ][family];
        let policy = AdaptivePolicy::<2>::new(
            Box::new(DomainSfcPartitioner::default()),
            AdaptiveConfig { balanced: choice, ..AdaptiveConfig::balance() },
        );
        prop_assert_eq!(
            policy.current().name(),
            Partitioner::<2>::name(&DomainSfcPartitioner::default())
        );
        prop_assert!(policy.name().contains(&choice.boxed::<2>().name()));
    }
}
