//! The accounting passes == retained all-pairs `naive_*` oracles.
//!
//! Every accumulated quantity is an order-independent `u64` sum, so the
//! grid-bucket index must reproduce the naive loops *exactly* — these
//! tests drive both paths over random, deliberately overlap-heavy
//! fragment sets (fragments here need not tile any hierarchy; the metric
//! functions only read rects, owners and the refinement ratio) in both
//! two and three dimensions.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use samr_geom::{Box3, Point2, Rect2};
use samr_grid::GridHierarchy;
use samr_partition::{Fragment, LevelPartition, Partition};
use samr_sim::comm::{
    comm_accounting, naive_inter_level_comm, naive_intra_level_comm, naive_intra_level_involved,
    naive_per_proc_comm,
};
use samr_sim::migration::{
    migration_accounting, naive_interpolation_transfers, naive_migration_cells,
    naive_moved_survivors, naive_per_proc_migration,
};
use samr_sim::MetricScratch;

const NPROCS: usize = 4;

/// Random owner-tagged 2-D boxes, free to overlap heavily.
fn arb_frags2(max: usize) -> impl Strategy<Value = Vec<Fragment<2>>> {
    prop::collection::vec(
        (
            (0i64..40, 0i64..40, 1i64..12, 1i64..12),
            0u32..NPROCS as u32,
        ),
        1..max,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|((x, y, w, h), owner)| Fragment {
                rect: Rect2::from_coords(x, y, x + w - 1, y + h - 1),
                owner,
            })
            .collect()
    })
}

/// Random owner-tagged 3-D boxes.
fn arb_frags3(max: usize) -> impl Strategy<Value = Vec<Fragment<3>>> {
    prop::collection::vec(
        (
            (0i64..20, 0i64..20, 0i64..20, 1i64..8, 1i64..8),
            0u32..NPROCS as u32,
        ),
        1..max,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|((x, y, z, w, h), owner)| Fragment {
                rect: Box3::from_coords(x, y, z, x + w - 1, y + h - 1, z + w - 1),
                owner,
            })
            .collect()
    })
}

/// Deal a fragment pool round-robin into `nlevels` level lists.
fn deal<const D: usize>(frags: Vec<Fragment<D>>, nlevels: usize) -> Partition<D> {
    let mut levels: Vec<LevelPartition<D>> = (0..nlevels)
        .map(|_| LevelPartition {
            fragments: Vec::new(),
        })
        .collect();
    for (i, f) in frags.into_iter().enumerate() {
        levels[i % nlevels].fragments.push(f);
    }
    Partition {
        nprocs: NPROCS,
        levels,
    }
}

/// A nested 2-D hierarchy (for the interpolation metrics, which read
/// level rects and the ratio from real hierarchies).
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

/// `comm_accounting` on a fresh and then on the same dirty scratch must
/// both reproduce every comm oracle: intra, inter, involved and the
/// per-processor volumes.
fn comm_matches_oracles<const D: usize>(
    h: &GridHierarchy<D>,
    part: &Partition<D>,
    ghost: i64,
) -> Result<(), TestCaseError> {
    let mut scratch = MetricScratch::default();
    let acc = comm_accounting(h, part, ghost, &mut scratch);
    prop_assert_eq!(acc.intra, naive_intra_level_comm(h, part, ghost));
    prop_assert_eq!(acc.inter, naive_inter_level_comm(h, part));
    prop_assert_eq!(
        acc.intra_involved,
        naive_intra_level_involved(h, part, ghost)
    );
    let naive_vols = naive_per_proc_comm(h, part, ghost);
    prop_assert_eq!(scratch.per_proc_vols(), naive_vols.as_slice());
    let again = comm_accounting(h, part, ghost, &mut scratch);
    prop_assert_eq!(acc, again);
    Ok(())
}

/// With a base-only current hierarchy no level is refined into
/// existence, so `migration_accounting` counts the moved survivors alone
/// — over every level the two partitions share.
fn moved_survivors_match_oracle<const D: usize>(
    base: &GridHierarchy<D>,
    prev_part: &Partition<D>,
    cur_part: &Partition<D>,
) -> Result<(), TestCaseError> {
    let mut scratch = MetricScratch::default();
    let moved = migration_accounting(base, prev_part, base, cur_part, NPROCS, &mut scratch);
    prop_assert_eq!(moved, naive_moved_survivors(prev_part, cur_part));
    let naive_mig = naive_per_proc_migration(base, prev_part, base, cur_part, NPROCS);
    prop_assert_eq!(scratch.per_proc_mig(), naive_mig.as_slice());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn comm_accounting_matches_oracles_2d(
        frags in arb_frags2(40),
        nlevels in 1usize..4,
        ghost in 1i64..3,
    ) {
        let h = GridHierarchy::base_only(Rect2::from_extents(64, 64), 2);
        comm_matches_oracles(&h, &deal(frags, nlevels), ghost)?;
    }

    #[test]
    fn comm_accounting_matches_oracles_3d(
        frags in arb_frags3(30),
        nlevels in 1usize..4,
    ) {
        let h = GridHierarchy::base_only(Box3::from_extents(32, 32, 32), 2);
        comm_matches_oracles(&h, &deal(frags, nlevels), 1)?;
    }

    #[test]
    fn moved_survivors_matches_oracle(
        old_frags in arb_frags2(40),
        new_frags in arb_frags2(40),
        nlevels in 1usize..4,
    ) {
        let base = GridHierarchy::base_only(Rect2::from_extents(64, 64), 2);
        moved_survivors_match_oracle(&base, &deal(old_frags, nlevels), &deal(new_frags, nlevels))?;
    }

    #[test]
    fn moved_survivors_matches_oracle_3d(
        old_frags in arb_frags3(25),
        new_frags in arb_frags3(25),
        nlevels in 1usize..3,
    ) {
        let base = GridHierarchy::base_only(Box3::from_extents(32, 32, 32), 2);
        moved_survivors_match_oracle(&base, &deal(old_frags, nlevels), &deal(new_frags, nlevels))?;
    }

    #[test]
    fn migration_accounting_matches_oracles(
        prev_h in arb_hierarchy(),
        cur_h in arb_hierarchy(),
        old_frags in arb_frags2(30),
        new_frags in arb_frags2(30),
    ) {
        // Partitions sized to their hierarchies; fragments are arbitrary
        // overlap-heavy boxes, which is all the metric paths read.
        let prev_part = deal(old_frags, prev_h.levels.len());
        let cur_part = deal(new_frags, cur_h.levels.len());
        let mut scratch = MetricScratch::default();
        // A previous partition with no levels has no survivors, which
        // isolates the interpolation count.
        let no_survivors = Partition { nprocs: NPROCS, levels: Vec::new() };
        let interpolated = migration_accounting(
            &prev_h, &no_survivors, &cur_h, &cur_part, NPROCS, &mut scratch,
        );
        prop_assert_eq!(
            interpolated,
            naive_interpolation_transfers(&prev_h, &cur_h, &cur_part)
        );
        let total = migration_accounting(
            &prev_h, &prev_part, &cur_h, &cur_part, NPROCS, &mut scratch,
        );
        prop_assert_eq!(
            total,
            naive_migration_cells(&prev_h, &prev_part, &cur_h, &cur_part)
        );
        let naive_mig = naive_per_proc_migration(&prev_h, &prev_part, &cur_h, &cur_part, NPROCS);
        prop_assert_eq!(scratch.per_proc_mig(), naive_mig.as_slice());
    }
}
