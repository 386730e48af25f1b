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
use samr_geom::{AABox, Box3, Point, Rect2};
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

/// A nested hierarchy on a base of side `2 * half` (for the
/// interpolation metrics, which read level rects and the ratio from real
/// hierarchies). Level 1 holds 2–4 disjoint patches, one in each of the
/// first orthants of the base; when `deep`, level 2 nests one patch in
/// each of them. Several disjoint previous patches per level let a
/// fragment straddle some of them, sit inside one, or miss them all.
fn arb_hierarchy<const D: usize>(half: i64) -> impl Strategy<Value = GridHierarchy<D>> {
    let raw = prop::collection::vec(any::<u64>(), 8 * D..8 * D + 1);
    (2usize..5, raw, any::<bool>()).prop_map(move |(n, raw, deep)| {
        let (mut l1, mut l2) = (Vec::new(), Vec::new());
        for k in 0..n {
            // Coarse corner and extent (at least 2 per axis) inside
            // orthant k, whose axis-i half is bit i of k.
            let draw = |i: usize, j: usize| raw[(k * D + i) * 2 + j];
            let orth = |i: usize| ((k >> i) & 1) as i64 * half;
            let lo = Point::<D>::from_fn(|i| orth(i) + (draw(i, 0) % (half as u64 - 2)) as i64);
            let hi = Point::<D>::from_fn(|i| {
                let room = orth(i) + half - 1 - lo[i];
                lo[i] + 1 + (draw(i, 1) % room as u64) as i64
            });
            let patch = AABox::new(lo, hi).refine(2);
            l1.push(patch);
            if let Some(inner) = patch
                .shrink(2)
                .filter(|b| (0..D).all(|i| b.extent()[i] >= 2))
            {
                l2.push(inner.refine(2));
            }
        }
        let mut levels = vec![vec![], l1];
        if deep && !l2.is_empty() {
            levels.push(l2);
        }
        let base = AABox::new(
            Point::<D>::from_fn(|_| 0),
            Point::<D>::from_fn(|_| 2 * half - 1),
        );
        GridHierarchy::from_level_rects(base, 2, &levels)
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

/// `migration_accounting` reproduces the interpolation, total and
/// per-processor oracles. The partitions are sized to their hierarchies;
/// fragments are arbitrary overlap-heavy boxes, which is all the metric
/// paths read, plus two kinds of fragment on the current partition's
/// level: half of a previous patch, which has no new cells, and the
/// bounding box of two consecutive previous patches, which straddles
/// both.
fn migration_matches_oracles<const D: usize>(
    prev_h: &GridHierarchy<D>,
    cur_h: &GridHierarchy<D>,
    old_frags: Vec<Fragment<D>>,
    new_frags: Vec<Fragment<D>>,
) -> Result<(), TestCaseError> {
    let prev_part = deal(old_frags, prev_h.levels.len());
    let mut cur_part = deal(new_frags, cur_h.levels.len());
    for (l, level) in prev_h.levels.iter().enumerate().skip(1) {
        let Some(lp) = cur_part.levels.get_mut(l) else {
            continue;
        };
        for (k, patch) in level.patches.iter().enumerate() {
            let owner = (k % NPROCS) as u32;
            if let Some((half, _)) = patch.rect.bisect() {
                lp.fragments.push(Fragment { rect: half, owner });
            }
            if k > 0 {
                let rect = level.patches[k - 1].rect.bounding_union(&patch.rect);
                lp.fragments.push(Fragment { rect, owner });
            }
        }
    }
    let mut scratch = MetricScratch::default();
    // A previous partition with no levels has no survivors, which
    // isolates the interpolation count.
    let no_survivors = Partition {
        nprocs: NPROCS,
        levels: Vec::new(),
    };
    let interpolated = migration_accounting(
        prev_h,
        &no_survivors,
        cur_h,
        &cur_part,
        NPROCS,
        &mut scratch,
    );
    prop_assert_eq!(
        interpolated,
        naive_interpolation_transfers(prev_h, cur_h, &cur_part)
    );
    let total = migration_accounting(prev_h, &prev_part, cur_h, &cur_part, NPROCS, &mut scratch);
    prop_assert_eq!(
        total,
        naive_migration_cells(prev_h, &prev_part, cur_h, &cur_part)
    );
    let naive_mig = naive_per_proc_migration(prev_h, &prev_part, cur_h, &cur_part, NPROCS);
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
        prev_h in arb_hierarchy::<2>(16),
        cur_h in arb_hierarchy::<2>(16),
        old_frags in arb_frags2(30),
        new_frags in arb_frags2(30),
    ) {
        migration_matches_oracles(&prev_h, &cur_h, old_frags, new_frags)?;
    }

    #[test]
    fn migration_accounting_matches_oracles_3d(
        prev_h in arb_hierarchy::<3>(8),
        cur_h in arb_hierarchy::<3>(8),
        old_frags in arb_frags3(25),
        new_frags in arb_frags3(25),
    ) {
        migration_matches_oracles(&prev_h, &cur_h, old_frags, new_frags)?;
    }
}
