//! Property-based tests for the geometry substrate.
//!
//! The box algebra underpins every measured quantity in the reproduction
//! (β_m is literally a sum of box intersections), so its invariants are
//! checked against brute-force cell enumeration on randomly generated
//! boxes — in 2-D and 3-D. On top of the axioms, the 2-D instantiation of
//! the dimension-generic code is pinned **bit-identically** to the
//! original hard-coded 2-D implementation (re-implemented here as an
//! oracle), so the `Point<D>`/`AABox<D>` refactor can never silently
//! change a 2-D result.

use proptest::prelude::*;
use samr_geom::boxops;
use samr_geom::sfc::scalar::{hilbert_decode, hilbert_decode_3d, morton_decode, morton_decode_3d};
use samr_geom::sfc::{
    hilbert_key, hilbert_key_3d, morton_key, morton_key_3d, morton_keys, morton_keys_3d,
    morton_keys_3d_with, morton_keys_with, scalar, sfc_key_nd, sfc_keys_nd, BatchIsa, SfcCurve,
    MAX_ORDER, MAX_ORDER_3D,
};
use samr_geom::{Box3, Point2, Point3, Rect2, Region};

/// Strategy: a 2-D box with corners in [-40, 40] and extents in [1, 24].
fn arb_rect() -> impl Strategy<Value = Rect2> {
    (-40i64..40, -40i64..40, 1i64..24, 1i64..24)
        .prop_map(|(x, y, w, h)| Rect2::new(Point2::new(x, y), Point2::new(x + w - 1, y + h - 1)))
}

fn arb_rect_list(max: usize) -> impl Strategy<Value = Vec<Rect2>> {
    prop::collection::vec(arb_rect(), 1..max)
}

/// Strategy: a 3-D box with corners in [-12, 12] and extents in [1, 8].
fn arb_box3() -> impl Strategy<Value = Box3> {
    (
        (-12i64..12, -12i64..12, -12i64..12),
        (1i64..8, 1i64..8, 1i64..8),
    )
        .prop_map(|((x, y, z), (w, h, d))| {
            Box3::new(
                Point3::new(x, y, z),
                Point3::new(x + w - 1, y + h - 1, z + d - 1),
            )
        })
}

fn arb_box3_list(max: usize) -> impl Strategy<Value = Vec<Box3>> {
    prop::collection::vec(arb_box3(), 1..max)
}

/// Brute-force cell count of a union by membership testing over the
/// bounding box.
fn brute_union_cells(boxes: &[Rect2]) -> u64 {
    let bb = boxes
        .iter()
        .skip(1)
        .fold(boxes[0], |acc, b| acc.bounding_union(b));
    bb.iter_cells()
        .filter(|c| boxes.iter().any(|b| b.contains_point(*c)))
        .count() as u64
}

// ---------------------------------------------------------------------
// The legacy 2-D oracle: the original hard-coded implementations of the
// box algebra, kept verbatim so the generic code is provably
// bit-identical on D = 2.
// ---------------------------------------------------------------------

/// The original 2-D slab decomposition of `a \ b`, exactly as the
/// pre-refactor `boxops::subtract_into` computed it (Y slabs first, then
/// the X parts of the middle slab).
fn legacy_subtract(a: &Rect2, b: &Rect2) -> Vec<Rect2> {
    let mut out = Vec::new();
    let Some(ov) = a.intersect(b) else {
        out.push(*a);
        return out;
    };
    if ov == *a {
        return out;
    }
    if a.lo().y < ov.lo().y {
        out.push(Rect2::new(a.lo(), Point2::new(a.hi().x, ov.lo().y - 1)));
    }
    if a.hi().y > ov.hi().y {
        out.push(Rect2::new(Point2::new(a.lo().x, ov.hi().y + 1), a.hi()));
    }
    if a.lo().x < ov.lo().x {
        out.push(Rect2::new(
            Point2::new(a.lo().x, ov.lo().y),
            Point2::new(ov.lo().x - 1, ov.hi().y),
        ));
    }
    if a.hi().x > ov.hi().x {
        out.push(Rect2::new(
            Point2::new(ov.hi().x + 1, ov.lo().y),
            Point2::new(a.hi().x, ov.hi().y),
        ));
    }
    out
}

/// The original 2-D overlap count.
fn legacy_overlap_cells(a: &Rect2, b: &Rect2) -> u64 {
    let w = (a.hi().x.min(b.hi().x) - a.lo().x.max(b.lo().x) + 1).max(0) as u64;
    let h = (a.hi().y.min(b.hi().y) - a.lo().y.max(b.lo().y) + 1).max(0) as u64;
    w * h
}

/// The original 2-D perimeter count.
fn legacy_perimeter_cells(r: &Rect2) -> u64 {
    let e = r.extent();
    if e.x <= 2 || e.y <= 2 {
        r.cells()
    } else {
        r.cells() - ((e.x - 2) as u64) * ((e.y - 2) as u64)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // -----------------------------------------------------------------
    // 2-D axioms (unchanged from the 2-D era).
    // -----------------------------------------------------------------

    #[test]
    fn intersection_is_commutative_and_correct(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.overlap_cells(&b), b.overlap_cells(&a));
        match a.intersect(&b) {
            Some(i) => {
                prop_assert!(a.contains_rect(&i) && b.contains_rect(&i));
                prop_assert_eq!(i.cells(), a.overlap_cells(&b));
            }
            None => prop_assert_eq!(a.overlap_cells(&b), 0),
        }
    }

    #[test]
    fn subtraction_partitions_the_minuend(a in arb_rect(), b in arb_rect()) {
        let pieces = boxops::subtract(&a, &b);
        // Pieces are disjoint from b and from each other, stay inside a,
        // and together with a∩b tile a exactly.
        let mut total = 0u64;
        for (i, p) in pieces.iter().enumerate() {
            prop_assert!(a.contains_rect(p));
            prop_assert!(!p.intersects(&b));
            for q in &pieces[i + 1..] {
                prop_assert!(!p.intersects(q));
            }
            total += p.cells();
        }
        prop_assert_eq!(total + a.overlap_cells(&b), a.cells());
    }

    #[test]
    fn disjointify_preserves_union_cells(boxes in arb_rect_list(8)) {
        let dis = boxops::disjointify(&boxes);
        for (i, p) in dis.iter().enumerate() {
            for q in &dis[i + 1..] {
                prop_assert!(!p.intersects(q), "{:?} vs {:?}", p, q);
            }
        }
        prop_assert_eq!(boxops::total_cells(&dis), brute_union_cells(&boxes));
    }

    #[test]
    fn coalesce_preserves_cells_and_disjointness(boxes in arb_rect_list(8)) {
        let dis = boxops::disjointify(&boxes);
        let merged = boxops::coalesce(&dis);
        prop_assert_eq!(boxops::total_cells(&merged), boxops::total_cells(&dis));
        for (i, p) in merged.iter().enumerate() {
            for q in &merged[i + 1..] {
                prop_assert!(!p.intersects(q));
            }
        }
        prop_assert!(merged.len() <= dis.len());
    }

    #[test]
    fn region_algebra_is_set_algebra(xs in arb_rect_list(6), ys in arb_rect_list(6)) {
        let a = Region::from_boxes(&xs);
        let b = Region::from_boxes(&ys);
        let union = a.union(&b);
        let inter = a.intersect(&b);
        let diff = a.subtract(&b);
        // |A ∪ B| = |A| + |B| - |A ∩ B|
        prop_assert_eq!(union.cells(), a.cells() + b.cells() - inter.cells());
        // A = (A \ B) ⊎ (A ∩ B)
        prop_assert_eq!(diff.cells() + inter.cells(), a.cells());
        prop_assert_eq!(diff.overlap_cells(&b), 0);
        // Membership spot check across the bounding box.
        if let Some(bb) = union.bounding_box() {
            for c in bb.iter_cells().step_by(7) {
                let in_a = a.contains_point(c);
                let in_b = b.contains_point(c);
                prop_assert_eq!(union.contains_point(c), in_a || in_b);
                prop_assert_eq!(inter.contains_point(c), in_a && in_b);
                prop_assert_eq!(diff.contains_point(c), in_a && !in_b);
            }
        }
    }

    #[test]
    fn refine_coarsen_inverse_on_regions(boxes in arb_rect_list(5), r in 2i64..5) {
        let reg = Region::from_boxes(&boxes);
        // refine then coarsen is the identity on the cell set.
        let rt = reg.refine(r).coarsen(r);
        prop_assert!(rt.same_cells(&reg));
    }

    #[test]
    fn refine_scales_area(a in arb_rect(), r in 1i64..6) {
        prop_assert_eq!(a.refine(r).cells(), a.cells() * (r * r) as u64);
    }

    #[test]
    fn pairwise_overlap_is_symmetric(xs in arb_rect_list(6), ys in arb_rect_list(6)) {
        prop_assert_eq!(
            boxops::pairwise_overlap_cells(&xs, &ys),
            boxops::pairwise_overlap_cells(&ys, &xs)
        );
    }

    #[test]
    fn covers_iff_covered_cells_equal(a in arb_rect(), bs in arb_rect_list(6)) {
        let covered = boxops::covered_cells(&a, &bs);
        prop_assert_eq!(boxops::covers(&a, &bs), covered == a.cells());
        prop_assert!(covered <= a.cells());
    }

    #[test]
    fn bisect_halves_tile_the_box(a in arb_rect()) {
        if let Some((l, r)) = a.bisect() {
            prop_assert_eq!(l.cells() + r.cells(), a.cells());
            prop_assert!(!l.intersects(&r));
            prop_assert!(a.contains_rect(&l) && a.contains_rect(&r));
            // Balanced within one slab.
            let axis = a.longest_axis();
            prop_assert!((l.len(axis) - r.len(axis)).abs() <= 1);
        } else {
            prop_assert_eq!(a.cells(), 1);
        }
    }

    // -----------------------------------------------------------------
    // D = 2 is pinned bit-identically to the legacy 2-D implementation.
    // -----------------------------------------------------------------

    #[test]
    fn generic_subtract_is_bit_identical_to_legacy_2d(a in arb_rect(), b in arb_rect()) {
        // Not merely the same cell set: the same pieces in the same order.
        prop_assert_eq!(boxops::subtract(&a, &b), legacy_subtract(&a, &b));
    }

    #[test]
    fn generic_counts_are_bit_identical_to_legacy_2d(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.overlap_cells(&b), legacy_overlap_cells(&a, &b));
        prop_assert_eq!(a.perimeter_cells(), legacy_perimeter_cells(&a));
        prop_assert_eq!(b.perimeter_cells(), legacy_perimeter_cells(&b));
    }

    #[test]
    fn generic_spatial_order_matches_legacy_2d_sort_key(boxes in arb_rect_list(8)) {
        let mut generic = boxes.clone();
        generic.sort_by(|a, b| a.cmp_spatial(b));
        let mut legacy = boxes.clone();
        legacy.sort_by_key(|r| (r.lo().y, r.lo().x, r.hi().y, r.hi().x));
        prop_assert_eq!(generic, legacy);
    }

    // -----------------------------------------------------------------
    // 3-D axioms: the same algebra, one dimension up.
    // -----------------------------------------------------------------

    #[test]
    fn intersection_axioms_hold_in_3d(a in arb_box3(), b in arb_box3()) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.overlap_cells(&b), b.overlap_cells(&a));
        match a.intersect(&b) {
            Some(i) => {
                prop_assert!(a.contains_rect(&i) && b.contains_rect(&i));
                prop_assert_eq!(i.cells(), a.overlap_cells(&b));
            }
            None => prop_assert_eq!(a.overlap_cells(&b), 0),
        }
        // Containment is antisymmetric up to equality.
        if a.contains_rect(&b) && b.contains_rect(&a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn subtraction_partitions_the_minuend_3d(a in arb_box3(), b in arb_box3()) {
        let pieces = boxops::subtract(&a, &b);
        let mut total = 0u64;
        for (i, p) in pieces.iter().enumerate() {
            prop_assert!(a.contains_rect(p));
            prop_assert!(!p.intersects(&b));
            for q in &pieces[i + 1..] {
                prop_assert!(!p.intersects(q));
            }
            total += p.cells();
        }
        prop_assert_eq!(total + a.overlap_cells(&b), a.cells());
        prop_assert!(pieces.len() <= 6, "a 3-D subtraction yields at most 6 slabs");
    }

    #[test]
    fn union_and_disjointify_agree_in_3d(boxes in arb_box3_list(5)) {
        let dis = boxops::disjointify(&boxes);
        for (i, p) in dis.iter().enumerate() {
            for q in &dis[i + 1..] {
                prop_assert!(!p.intersects(q));
            }
        }
        // Inclusion-exclusion against brute-force membership counting.
        let bb = boxes
            .iter()
            .skip(1)
            .fold(boxes[0], |acc, b| acc.bounding_union(b));
        let brute = bb
            .iter_cells()
            .filter(|c| boxes.iter().any(|b| b.contains_point(*c)))
            .count() as u64;
        prop_assert_eq!(boxops::union_cells(&boxes), brute);
        prop_assert_eq!(boxops::total_cells(&dis), brute);
    }

    #[test]
    fn volume_is_additive_under_split_3d(a in arb_box3()) {
        // Volume additivity under split: every axis, every interior cut.
        for axis in samr_geom::Axis::all::<3>() {
            if a.len(axis) < 2 {
                continue;
            }
            let c = a.lo().get(axis) + a.len(axis) / 2 - 1;
            let (l, r) = a.split_at(axis, c);
            prop_assert_eq!(l.cells() + r.cells(), a.cells());
            prop_assert!(!l.intersects(&r));
            prop_assert_eq!(l.bounding_union(&r), a);
        }
        // And under recursive bisection.
        if let Some((l, r)) = a.bisect() {
            prop_assert_eq!(l.cells() + r.cells(), a.cells());
        }
    }

    #[test]
    fn refine_scales_volume_3d(a in arb_box3(), r in 1i64..4) {
        prop_assert_eq!(a.refine(r).cells(), a.cells() * (r * r * r) as u64);
        prop_assert_eq!(a.refine(r).coarsen(r), a);
    }

    #[test]
    fn region_set_algebra_holds_in_3d(xs in arb_box3_list(4), ys in arb_box3_list(4)) {
        let a = Region::from_boxes(&xs);
        let b = Region::from_boxes(&ys);
        let union = a.union(&b);
        let inter = a.intersect(&b);
        let diff = a.subtract(&b);
        prop_assert_eq!(union.cells(), a.cells() + b.cells() - inter.cells());
        prop_assert_eq!(diff.cells() + inter.cells(), a.cells());
        prop_assert_eq!(diff.overlap_cells(&b), 0);
    }

    // -----------------------------------------------------------------
    // Space-filling curves: bijectivity, locality, stable order.
    // -----------------------------------------------------------------

    #[test]
    fn morton_roundtrips(x in 0u64..100_000, y in 0u64..100_000) {
        prop_assert_eq!(morton_decode(morton_key(x, y)), (x, y));
    }

    #[test]
    fn morton_3d_roundtrips(x in 0u64..100_000, y in 0u64..100_000, z in 0u64..100_000) {
        prop_assert_eq!(morton_decode_3d(morton_key_3d(x, y, z)), (x, y, z));
    }

    #[test]
    fn hilbert_roundtrips(order in 1u32..10, xy in (0u64..1024, 0u64..1024)) {
        let n = 1u64 << order;
        let (x, y) = (xy.0 % n, xy.1 % n);
        let d = hilbert_key(order, x, y);
        prop_assert!(d < n * n);
        prop_assert_eq!(hilbert_decode(order, d), (x, y));
    }

    #[test]
    fn hilbert_3d_roundtrips(order in 1u32..7, xyz in (0u64..128, 0u64..128, 0u64..128)) {
        let n = 1u64 << order;
        let (x, y, z) = (xyz.0 % n, xyz.1 % n, xyz.2 % n);
        let d = hilbert_key_3d(order, x, y, z);
        prop_assert!(d < n * n * n);
        prop_assert_eq!(hilbert_decode_3d(order, d), (x, y, z));
    }

    #[test]
    fn hilbert_locality_consecutive_keys_are_adjacent(order in 2u32..6, d in 0u64..4095) {
        // The Hilbert locality guarantee, both dimensions: consecutive
        // curve positions are face-adjacent cells, so cells that are
        // adjacent along the curve differ by exactly 1 in L1 distance.
        let n2 = 1u64 << (2 * order);
        let d2 = d % (n2 - 1);
        let a = hilbert_decode(order, d2);
        let b = hilbert_decode(order, d2 + 1);
        prop_assert_eq!(
            (a.0 as i64 - b.0 as i64).abs() + (a.1 as i64 - b.1 as i64).abs(),
            1
        );
        let n3 = 1u64 << (3 * order);
        let d3 = d % (n3 - 1);
        let a = hilbert_decode_3d(order, d3);
        let b = hilbert_decode_3d(order, d3 + 1);
        prop_assert_eq!(
            (a.0 as i64 - b.0 as i64).abs()
                + (a.1 as i64 - b.1 as i64).abs()
                + (a.2 as i64 - b.2 as i64).abs(),
            1
        );
    }

    #[test]
    fn morton_locality_adjacent_cells_bounded_key_distance(
        order in 2u32..8,
        xy in (0u64..255, 0u64..255),
    ) {
        // Morton's (weaker) locality bound: moving one cell along any
        // axis changes the key by less than the full curve length — and
        // the keys of an n x n block stay within [0, n^2). The same holds
        // one dimension up.
        let n = 1u64 << order;
        let (x, y) = (xy.0 % (n - 1), xy.1 % (n - 1));
        let k = morton_key(x, y);
        prop_assert!(k < n * n);
        prop_assert!(morton_key(x + 1, y).abs_diff(k) < n * n);
        prop_assert!(morton_key(x, y + 1).abs_diff(k) < n * n);
        let k3 = morton_key_3d(x, y, x);
        prop_assert!(k3 < n * n * n);
        prop_assert!(morton_key_3d(x + 1, y, x).abs_diff(k3) < n * n * n);
    }

    #[test]
    fn sfc_keys_are_a_stable_total_order(order in 2u32..6, seed in 0u64..1000) {
        // The keys induce a *total* order on cells: distinct cells always
        // get distinct keys (injectivity, for every curve and dimension),
        // so sorting by key is a stable, run-independent linearization.
        let n = 1u64 << order;
        let cells: Vec<(u64, u64, u64)> = (0..24)
            .map(|i| {
                let v = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                (v % n, (v >> 21) % n, (v >> 42) % n)
            })
            .collect();
        for (i, c) in cells.iter().enumerate() {
            for d in &cells[i + 1..] {
                if (c.0, c.1) != (d.0, d.1) {
                    prop_assert!(morton_key(c.0, c.1) != morton_key(d.0, d.1));
                    prop_assert!(
                        hilbert_key(order, c.0, c.1) != hilbert_key(order, d.0, d.1),
                        "2-D Hilbert collision for {:?} and {:?}", c, d
                    );
                }
                if c != d {
                    prop_assert!(morton_key_3d(c.0, c.1, c.2) != morton_key_3d(d.0, d.1, d.2));
                    prop_assert!(
                        hilbert_key_3d(order, c.0, c.1, c.2)
                            != hilbert_key_3d(order, d.0, d.1, d.2),
                        "3-D Hilbert collision for {:?} and {:?}", c, d
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // -----------------------------------------------------------------
    // The optimized public SFC paths are bit-identical to the retained
    // scalar reference implementations — across random u64 inputs and
    // every supported order, in both dimensions. The optimizations
    // (PDEP Morton, branchless Hilbert rotation, interleave-based
    // transpose packing) are only admissible because of these.
    // -----------------------------------------------------------------

    #[test]
    fn optimized_morton_matches_scalar(x in any::<u64>(), y in any::<u64>()) {
        // 2-D: both paths read exactly the low 32 bits of each axis, so
        // the whole u64 range is in scope.
        let (x2, y2) = (x & 0xffff_ffff, y & 0xffff_ffff);
        prop_assert_eq!(morton_key(x2, y2), scalar::morton_key(x2, y2));
        // 3-D over the documented 21-bit axis domain.
        let m = (1u64 << MAX_ORDER_3D) - 1;
        let (x3, y3, z3) = (x & m, y & m, (x ^ y) & m);
        let key = morton_key_3d(x3, y3, z3);
        prop_assert_eq!(key, scalar::morton_key_3d(x3, y3, z3));
    }

    #[test]
    fn batch_morton_kernels_match_scalar_map(
        tuples in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..64),
    ) {
        // The BMI2 batch kernels are admissible only as an exact map of
        // the scalar references over the slice — same domains as the
        // per-key tests above.
        let m3 = (1u64 << MAX_ORDER_3D) - 1;
        let c2: Vec<[u64; 2]> = tuples
            .iter()
            .map(|&(x, y, _)| [x & 0xffff_ffff, y & 0xffff_ffff])
            .collect();
        let c3: Vec<[u64; 3]> = tuples.iter().map(|&(x, y, z)| [x & m3, y & m3, z & m3]).collect();

        let mut keys = Vec::new();
        morton_keys(&c2, &mut keys);
        let want: Vec<u64> = c2.iter().map(|c| scalar::morton_key(c[0], c[1])).collect();
        prop_assert_eq!(&keys, &want);

        morton_keys_3d(&c3, &mut keys);
        let want: Vec<u64> = c3.iter().map(|c| scalar::morton_key_3d(c[0], c[1], c[2])).collect();
        prop_assert_eq!(&keys, &want);
    }

    #[test]
    fn batch_kernels_bit_identical_on_every_tier(
        tuples in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..64),
    ) {
        // Force every tier this CPU executes — BMI2, AVX2, and the
        // always-available scalar fallback — through the same `*_with`
        // entry points and hold each one to the scalar-map oracle. On a
        // BMI2 machine `detect()` never picks AVX2 or Scalar, so this
        // is the only wall standing between those tiers and silent rot.
        let m3 = (1u64 << MAX_ORDER_3D) - 1;
        let c2: Vec<[u64; 2]> = tuples
            .iter()
            .map(|&(x, y, _)| [x & 0xffff_ffff, y & 0xffff_ffff])
            .collect();
        let c3: Vec<[u64; 3]> = tuples.iter().map(|&(x, y, z)| [x & m3, y & m3, z & m3]).collect();
        let want2: Vec<u64> = c2.iter().map(|c| scalar::morton_key(c[0], c[1])).collect();
        let want3: Vec<u64> = c3.iter().map(|c| scalar::morton_key_3d(c[0], c[1], c[2])).collect();
        for isa in BatchIsa::ALL.into_iter().filter(|i| i.is_available()) {
            let mut keys = Vec::new();
            morton_keys_with(isa, &c2, &mut keys);
            prop_assert_eq!(&keys, &want2, "2-D encode diverged on {:?}", isa);
            morton_keys_3d_with(isa, &c3, &mut keys);
            prop_assert_eq!(&keys, &want3, "3-D encode diverged on {:?}", isa);
        }
    }

    #[test]
    fn sfc_keys_nd_matches_per_key_map(
        tuples in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..48),
        order2 in 1u32..=MAX_ORDER,
        order3 in 1u32..=MAX_ORDER_3D,
    ) {
        // The batch entry the partitioner's unit-ordering pass feeds must
        // be an exact map of the per-key dispatch — both curves, both
        // dimensions, every order (Hilbert's batched transpose+Morton
        // packing included).
        for curve in [SfcCurve::Morton, SfcCurve::Hilbert] {
            let mask2 = (1u64 << order2) - 1;
            let c2: Vec<[u64; 2]> = tuples
                .iter()
                .map(|&(x, y, _)| [x & mask2, y & mask2])
                .collect();
            let mut keys = Vec::new();
            sfc_keys_nd(curve, order2, &c2, &mut keys);
            let want: Vec<u64> = c2.iter().map(|&c| sfc_key_nd(curve, order2, c)).collect();
            prop_assert_eq!(&keys, &want, "2-D {:?} order {}", curve, order2);
            let mask3 = (1u64 << order3) - 1;
            let c3: Vec<[u64; 3]> = tuples
                .iter()
                .map(|&(x, y, z)| [x & mask3, y & mask3, z & mask3])
                .collect();
            sfc_keys_nd(curve, order3, &c3, &mut keys);
            let want: Vec<u64> = c3.iter().map(|&c| sfc_key_nd(curve, order3, c)).collect();
            prop_assert_eq!(&keys, &want, "3-D {:?} order {}", curve, order3);
        }
    }

    #[test]
    fn optimized_hilbert_2d_matches_scalar(
        order in 1u32..=MAX_ORDER,
        x in any::<u64>(),
        y in any::<u64>(),
    ) {
        let mask = (1u64 << order) - 1;
        let (x, y) = (x & mask, y & mask);
        prop_assert_eq!(
            hilbert_key(order, x, y),
            scalar::hilbert_key(order, x, y),
            "encode diverged at order {}", order
        );
    }

    #[test]
    fn optimized_hilbert_3d_matches_scalar(
        order in 1u32..=MAX_ORDER_3D,
        x in any::<u64>(),
        y in any::<u64>(),
        z in any::<u64>(),
    ) {
        let mask = (1u64 << order) - 1;
        let (x, y, z) = (x & mask, y & mask, z & mask);
        prop_assert_eq!(
            hilbert_key_3d(order, x, y, z),
            scalar::hilbert_key_3d(order, x, y, z),
            "encode diverged at order {}", order
        );
    }
}

/// Pinned key values: the 2-D curves must produce the exact historical
/// keys forever (partial-order bucketing and chunk boundaries depend on
/// them), and the 3-D curves are pinned from their first release so any
/// accidental change to the bit manipulation is caught.
#[test]
fn sfc_key_values_are_pinned() {
    assert_eq!(morton_key(3, 5), 0b100111);
    assert_eq!(hilbert_key(3, 5, 2), 55);
    assert_eq!(hilbert_key(4, 10, 10), 136);
    assert_eq!(morton_key_3d(1, 2, 3), 0b110101);
    let h3: Vec<u64> = (0..8)
        .map(|i| hilbert_key_3d(1, i & 1, (i >> 1) & 1, (i >> 2) & 1))
        .collect();
    let mut sorted = h3.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (0..8).collect::<Vec<u64>>(),
        "order-1 curve visits all octants"
    );
    assert_eq!(hilbert_key_3d(1, 0, 0, 0), 0, "curve starts at the origin");
}
