//! Property-based tests for the grid substrate: Berger–Rigoutsos output
//! invariants and nesting enforcement on randomly generated flag fields.

use proptest::prelude::*;
use samr_geom::{Point2, Rect2, Region};
use samr_grid::nesting::{clip_to_nesting, shrink_within};
use samr_grid::{cluster_flags, ClusterOptions, FlagField};

/// Random flag fields: unions of blobs, rings and random speckle.
fn arb_flags() -> impl Strategy<Value = FlagField<2>> {
    let blobs = prop::collection::vec((0i64..56, 0i64..56, 1i64..12, 1i64..12), 0..4);
    let speckle = prop::collection::vec((0i64..64, 0i64..64), 0..30);
    (blobs, speckle).prop_map(|(blobs, speckle)| {
        let mut f = FlagField::new(Rect2::from_extents(64, 64));
        for (x, y, w, h) in blobs {
            f.set_rect(&Rect2::new(
                Point2::new(x, y),
                Point2::new((x + w).min(63), (y + h).min(63)),
            ));
        }
        for (x, y) in speckle {
            f.set(Point2::new(x, y));
        }
        f
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn clustering_covers_all_flags_with_disjoint_blocks(flags in arb_flags()) {
        let opts = ClusterOptions::paper_defaults();
        let boxes = cluster_flags(&flags, &opts);
        // Disjoint, min-block sized, inside the domain.
        for (i, b) in boxes.iter().enumerate() {
            prop_assert!(flags.domain().contains_rect(b));
            prop_assert!(b.extent().x >= opts.min_block && b.extent().y >= opts.min_block);
            for c in &boxes[i + 1..] {
                prop_assert!(!b.intersects(c));
            }
        }
        // Coverage: every flag inside some box.
        let covered: u64 = boxes.iter().map(|b| flags.count_in(b)).sum();
        prop_assert_eq!(covered, flags.count());
        // Empty flags => no boxes.
        if flags.is_empty() {
            prop_assert!(boxes.is_empty());
        }
    }

    #[test]
    fn clustering_efficiency_improves_with_threshold(flags in arb_flags()) {
        prop_assume!(flags.count() > 10);
        let lo = cluster_flags(&flags, &ClusterOptions { min_efficiency: 0.3, ..ClusterOptions::paper_defaults() });
        let hi = cluster_flags(&flags, &ClusterOptions { min_efficiency: 0.9, ..ClusterOptions::paper_defaults() });
        let cells = |bs: &[Rect2]| bs.iter().map(Rect2::cells).sum::<u64>().max(1);
        // Higher efficiency threshold never covers more cells.
        prop_assert!(cells(&hi) <= cells(&lo));
        // And generally uses at least as many boxes.
        prop_assert!(hi.len() >= lo.len());
    }

    #[test]
    fn buffered_flags_contain_originals(flags in arb_flags(), buf in 0i64..4) {
        let buffered = flags.buffer(buf);
        for p in flags.domain().iter_cells().step_by(5) {
            if flags.is_set(p) {
                prop_assert!(buffered.is_set(p));
            }
        }
        prop_assert!(buffered.count() >= flags.count());
    }

    #[test]
    fn shrink_within_never_grows(reg_boxes in prop::collection::vec((0i64..28, 0i64..28, 2i64..8, 2i64..8), 1..4), buf in 0i64..4) {
        let domain = Rect2::from_extents(32, 32);
        let rects: Vec<Rect2> = reg_boxes
            .iter()
            .map(|&(x, y, w, h)| {
                Rect2::new(Point2::new(x, y), Point2::new((x + w).min(31), (y + h).min(31)))
            })
            .collect();
        let reg = Region::from_boxes(&rects);
        let shrunk = shrink_within(&reg, &domain, buf);
        prop_assert!(shrunk.cells() <= reg.cells());
        // Shrunk region is a subset.
        prop_assert_eq!(shrunk.overlap_cells(&reg), shrunk.cells());
    }

    #[test]
    fn clip_to_nesting_stays_inside(candidates in prop::collection::vec((0i64..28, 0i64..28, 2i64..10, 2i64..10), 1..5)) {
        let nest = Region::from_boxes(&[
            Rect2::from_coords(0, 0, 19, 31),
            Rect2::from_coords(10, 0, 31, 15),
        ]);
        let rects: Vec<Rect2> = candidates
            .iter()
            .map(|&(x, y, w, h)| {
                Rect2::new(Point2::new(x, y), Point2::new((x + w).min(31), (y + h).min(31)))
            })
            .collect();
        let out = clip_to_nesting(&rects, &nest, 2);
        for (i, b) in out.iter().enumerate() {
            prop_assert!(b.extent().x >= 2 && b.extent().y >= 2);
            prop_assert_eq!(nest.intersect_rect(b).cells(), b.cells());
            for c in &out[i + 1..] {
                prop_assert!(!b.intersects(c));
            }
        }
    }
}
