//! Property-based tests on the simulator's measured quantities.

use proptest::prelude::*;
use samr_geom::{Point2, Rect2};
use samr_grid::GridHierarchy;
use samr_partition::{
    DomainSfcPartitioner, HybridPartitioner, Partition, Partitioner, PatchPartitioner,
};
use samr_sim::comm::{comm_accounting, CommAccounting};
use samr_sim::migration::migration_accounting;
use samr_sim::MetricScratch;

fn arb_hierarchy() -> impl Strategy<Value = GridHierarchy<2>> {
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
        GridHierarchy::from_level_rects(Rect2::from_extents(32, 32), 2, &levels)
    })
}

fn comm(h: &GridHierarchy<2>, part: &Partition<2>, ghost: i64) -> CommAccounting {
    comm_accounting(h, part, ghost, &mut MetricScratch::default())
}

fn migration(
    prev: &GridHierarchy<2>,
    prev_part: &Partition<2>,
    cur: &GridHierarchy<2>,
    cur_part: &Partition<2>,
) -> u64 {
    let scratch = &mut MetricScratch::default();
    migration_accounting(prev, prev_part, cur, cur_part, cur_part.nprocs, scratch)
}

/// Same-level cells that survive and change owner: a base-only current
/// hierarchy refines nothing into existence, so only survivors count.
fn moved(prev_part: &Partition<2>, cur_part: &Partition<2>) -> u64 {
    let base = GridHierarchy::base_only(Rect2::from_extents(32, 32), 2);
    migration(&base, prev_part, &base, cur_part)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn single_processor_is_silent(h in arb_hierarchy()) {
        for part in [
            DomainSfcPartitioner::default().partition(&h, 1),
            PatchPartitioner::default().partition(&h, 1),
            HybridPartitioner::default().partition(&h, 1),
        ] {
            let acc = comm(&h, &part, 1);
            prop_assert_eq!(acc.transfer_volume(), 0);
            prop_assert_eq!(acc.involved_points(), 0);
        }
    }

    #[test]
    fn comm_monotone_in_ghost_width(h in arb_hierarchy(), nprocs in 2usize..12) {
        let part = HybridPartitioner::default().partition(&h, nprocs);
        let [g1, g2, g3] = [1, 2, 3].map(|ghost| comm(&h, &part, ghost));
        prop_assert!(g1.intra <= g2.intra && g2.intra <= g3.intra);
        prop_assert!(g1.intra_involved <= g2.intra_involved);
    }

    #[test]
    fn involvement_never_exceeds_transfers(h in arb_hierarchy(), nprocs in 2usize..12) {
        // Each involved point participates in >= 1 directed transfer.
        for part in [
            DomainSfcPartitioner::default().partition(&h, nprocs),
            PatchPartitioner::default().partition(&h, nprocs),
            HybridPartitioner::default().partition(&h, nprocs),
        ] {
            let acc = comm(&h, &part, 1);
            prop_assert!(acc.intra_involved <= acc.intra);
        }
    }

    #[test]
    fn involvement_bounded_by_workload(h in arb_hierarchy(), nprocs in 2usize..12) {
        // Intra-level: a point is involved at most once per local step.
        let part = DomainSfcPartitioner::default().partition(&h, nprocs);
        prop_assert!(comm(&h, &part, 1).intra_involved <= h.workload());
    }

    #[test]
    fn domain_based_never_pays_interlevel(h in arb_hierarchy(), nprocs in 2usize..12) {
        let part = DomainSfcPartitioner::default().partition(&h, nprocs);
        prop_assert_eq!(comm(&h, &part, 1).inter, 0);
    }

    #[test]
    fn identical_partitions_never_migrate(h in arb_hierarchy(), nprocs in 1usize..12) {
        let part = HybridPartitioner::default().partition(&h, nprocs);
        prop_assert_eq!(migration(&h, &part, &h, &part), 0);
    }

    #[test]
    fn survivor_migration_is_symmetric_in_magnitude(
        a in arb_hierarchy(),
        b in arb_hierarchy(),
        nprocs in 2usize..8,
    ) {
        // Moving data from distribution A to B touches the same surviving
        // cells as B to A (ownership changes are symmetric on the
        // intersection).
        let p = DomainSfcPartitioner::default();
        let pa = p.partition(&a, nprocs);
        let pb = p.partition(&b, nprocs);
        prop_assert_eq!(
            moved(&pa, &pb),
            moved(&pb, &pa)
        );
    }

    #[test]
    fn migration_bounded_by_union_size(
        a in arb_hierarchy(),
        b in arb_hierarchy(),
        nprocs in 2usize..8,
    ) {
        let p = HybridPartitioner::default();
        let pa = p.partition(&a, nprocs);
        let pb = p.partition(&b, nprocs);
        let m = migration(&a, &pa, &b, &pb);
        // Survivors <= |A ∩ B| <= |A|; interpolation transfers <= |B|.
        prop_assert!(m <= a.total_points() + b.total_points());
    }
}
