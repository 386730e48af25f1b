//! Property-based tests: every partitioner family must emit valid
//! partitions (disjoint owner-tagged fragments exactly tiling the
//! patches, workload conserved) on randomly shaped, properly nested 2-D
//! and 3-D hierarchies and at arbitrary processor counts, and must not
//! depend on what an instance partitioned before.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use samr_geom::sfc::SfcCurve;
use samr_geom::{AABox, Point};
use samr_grid::GridHierarchy;
use samr_partition::patch_part::PatchAssign;
use samr_partition::{
    validate_partition, DomainSfcParams, HybridParams, PartitionerChoice, PatchParams,
};
use std::ops::Range;

/// A random 1-3 level properly nested hierarchy on a box base whose
/// sides are drawn from `sides`: up to three disjoint blobs placed in
/// base space and refined into level 1, and optionally a level-2 box
/// nested inside the first blob.
fn arb_hierarchy<const D: usize>(sides: Range<i64>) -> impl Strategy<Value = GridHierarchy<D>> {
    let base = prop::collection::vec(sides, D..D + 1);
    let blob = (prop::collection::vec(0.0f64..1.0, D..D + 1), 0.1f64..0.4);
    let blobs = prop::collection::vec(blob, 1..4);
    (base, blobs, any::<bool>()).prop_map(|(base, blobs, deep)| {
        // Place disjoint blobs in base space, then refine. The first
        // blob always fits, so level 1 is never empty.
        let mut placed: Vec<AABox<D>> = Vec::new();
        for (at, fs) in blobs {
            let len: [i64; D] =
                std::array::from_fn(|i| ((base[i] as f64 * fs) as i64).clamp(2, base[i] - 2));
            let lo = Point::<D>::from_fn(|i| ((base[i] - len[i]) as f64 * at[i]) as i64);
            let cand = AABox::new(lo, Point::from_fn(|i| lo[i] + len[i] - 1));
            if placed.iter().all(|p| !p.intersects(&cand)) {
                placed.push(cand);
            }
        }
        let l1: Vec<AABox<D>> = placed.iter().map(|b| b.refine(2)).collect();
        let mut levels = vec![vec![], l1.clone()];
        if deep {
            if let Some(inner) = l1[0].shrink(2) {
                if (0..D).all(|i| inner.extent()[i] >= 2) {
                    levels.push(vec![inner.refine(2)]);
                }
            }
        }
        let domain = AABox::from_extent_array(std::array::from_fn(|i| base[i]));
        GridHierarchy::from_level_rects(domain, 2, &levels)
    })
}

fn arb_2d() -> impl Strategy<Value = GridHierarchy<2>> {
    arb_hierarchy(16..48)
}

fn arb_3d() -> impl Strategy<Value = GridHierarchy<3>> {
    arb_hierarchy(8..24)
}

/// `choice` partitions `a` validly and conserves its workload, and one
/// instance partitioning `a`, `b`, `a` gives both `a` partitions equal
/// to a fresh instance's.
fn check<const D: usize>(
    choice: PartitionerChoice,
    a: &GridHierarchy<D>,
    b: &GridHierarchy<D>,
    nprocs: usize,
) -> Result<(), TestCaseError> {
    prop_assert!(a.validate(2).is_ok() && b.validate(2).is_ok(), "nested");
    let fresh = choice.boxed::<D>().partition(a, nprocs);
    prop_assert_eq!(validate_partition(a, &fresh), Ok(()));
    prop_assert_eq!(fresh.loads(2).iter().sum::<u64>(), a.workload());
    let p = choice.boxed::<D>();
    prop_assert_eq!(p.partition(a, nprocs), fresh, "first call");
    let other = p.partition(b, nprocs);
    prop_assert_eq!(validate_partition(b, &other), Ok(()));
    prop_assert_eq!(p.partition(a, nprocs), fresh, "after partitioning another");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn domain_sfc_all_configs_valid(
        a2 in arb_2d(),
        b2 in arb_2d(),
        a3 in arb_3d(),
        b3 in arb_3d(),
        nprocs in 1usize..20,
        unit in 1i64..5,
        full in any::<bool>(),
        hilbert in any::<bool>(),
    ) {
        let choice = PartitionerChoice::DomainSfc(DomainSfcParams {
            atomic_unit: unit,
            curve: if hilbert { SfcCurve::Hilbert } else { SfcCurve::Morton },
            full_order: full,
        });
        check(choice, &a2, &b2, nprocs)?;
        check(choice, &a3, &b3, nprocs)?;
    }

    #[test]
    fn patch_both_assignments_valid(
        a2 in arb_2d(),
        b2 in arb_2d(),
        a3 in arb_3d(),
        b3 in arb_3d(),
        nprocs in 1usize..20,
        split in 0.5f64..4.0,
        lpt in any::<bool>(),
    ) {
        let choice = PartitionerChoice::Patch(PatchParams {
            split_factor: split,
            min_block: 2,
            assign: if lpt { PatchAssign::Lpt } else { PatchAssign::SfcChunk },
        });
        check(choice, &a2, &b2, nprocs)?;
        check(choice, &a3, &b3, nprocs)?;
    }

    #[test]
    fn hybrid_all_configs_valid(
        a2 in arb_2d(),
        b2 in arb_2d(),
        a3 in arb_3d(),
        b3 in arb_3d(),
        nprocs in 1usize..20,
        bilevel in 1usize..4,
        fractional in any::<bool>(),
        full in any::<bool>(),
    ) {
        let choice = PartitionerChoice::Hybrid(HybridParams {
            atomic_unit: 2,
            curve: SfcCurve::Morton,
            full_order: full,
            bilevel_size: bilevel,
            hue_blocks_per_proc: 2,
            fractional_blocking: fractional,
        });
        check(choice, &a2, &b2, nprocs)?;
        check(choice, &a3, &b3, nprocs)?;
    }

    #[test]
    fn imbalance_no_worse_than_proc_count(h2 in arb_2d(), h3 in arb_3d(), nprocs in 1usize..16) {
        // max/avg can never exceed nprocs (all load on one processor).
        for choice in [
            PartitionerChoice::domain_sfc(),
            PartitionerChoice::patch(),
            PartitionerChoice::hybrid(),
        ] {
            for imb in [
                choice.partition(&h2, nprocs).load_imbalance(2),
                choice.partition(&h3, nprocs).load_imbalance(2),
            ] {
                prop_assert!(imb <= nprocs as f64 + 1e-9);
                prop_assert!(imb >= 1.0 - 1e-9);
            }
        }
    }
}
