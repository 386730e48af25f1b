//! Proper-nesting enforcement between consecutive levels, generic over
//! the dimension.
//!
//! Berger–Colella SAMR requires every level-`l+1` patch to be contained in
//! the refined interior of level `l` (with a buffer of coarse cells), so
//! that inter-level interpolation stencils never reach outside the parent
//! level. The paper's hierarchies obey this; the trace generators enforce
//! it here after clustering.

use samr_geom::{boxops, AABox, Region};

/// Shrink `region` by `buffer` cells away from its *internal* boundaries:
/// boundaries shared with the physical `domain` wall are left alone.
pub fn shrink_within<const D: usize>(
    region: &Region<D>,
    domain: &AABox<D>,
    buffer: i64,
) -> Region<D> {
    if buffer == 0 || region.is_empty() {
        return region.clone();
    }
    // Complement of the region inside the domain, grown by the buffer;
    // subtracting it shaves `buffer` cells off internal boundaries only,
    // because the complement stops at the physical boundary.
    let complement = Region::from_rect(*domain).subtract(region);
    let grown: Vec<AABox<D>> = complement.boxes().iter().map(|b| b.grow(buffer)).collect();
    region.subtract_boxes(&grown)
}

/// Clip candidate patch boxes to a nesting region, keeping only pieces that
/// satisfy the minimum block dimension.
///
/// Clipping a box against a union of boxes can produce slivers thinner than
/// `min_block`; such slivers are merged back where an exact merge exists
/// and dropped otherwise (dropping loses a few flagged cells at the nesting
/// boundary, which the flag buffer compensates for — the same policy real
/// SAMR grid generators use).
pub fn clip_to_nesting<const D: usize>(
    rects: &[AABox<D>],
    nest: &Region<D>,
    min_block: i64,
) -> Vec<AABox<D>> {
    let mut pieces: Vec<AABox<D>> = Vec::new();
    for r in rects {
        pieces.extend(nest.intersect_rect(r).boxes().iter().copied());
    }
    let mut pieces = boxops::disjointify(&pieces);
    boxops::coalesce_in_place(&mut pieces);
    pieces
        .into_iter()
        .filter(|b| b.extent().coords().iter().all(|&e| e >= min_block))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::GridHierarchy;
    use samr_geom::{Box3, Point2, Point3, Rect2};

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    fn h_two_level() -> GridHierarchy<2> {
        GridHierarchy::from_level_rects(
            Rect2::from_extents(16, 16),
            2,
            &[vec![], vec![r(4, 4, 11, 11)]],
        )
    }

    #[test]
    fn nesting_without_buffer_is_the_refined_region() {
        let h = h_two_level();
        let n = shrink_within(&h.refined_region(1), &h.domain_at_level(2), 0);
        assert!(n.same_cells(&h.refined_region(1)));
        assert_eq!(n.cells(), 16 * 16);
    }

    #[test]
    fn buffer_shrinks_interior_boundaries() {
        let h = h_two_level();
        // Level-1 patch refined: [8..23]^2 in level-2 index space; its
        // boundary is interior (patch does not touch the domain wall), so a
        // buffer of 2 shrinks all four sides.
        let n = shrink_within(&h.refined_region(1), &h.domain_at_level(2), 2);
        assert_eq!(n.cells(), 12 * 12);
        assert!(n.contains_point(Point2::new(10, 10)));
        assert!(!n.contains_point(Point2::new(8, 8)));
    }

    #[test]
    fn buffer_does_not_shrink_physical_boundary() {
        // Level-1 patch touching the domain edge: x in [0..7], y in [4..11]
        // (level-1 domain is [0..31]^2 for a 16x16 base).
        let h = GridHierarchy::from_level_rects(
            Rect2::from_extents(16, 16),
            2,
            &[vec![], vec![r(0, 4, 7, 11)]],
        );
        let n = shrink_within(&h.refined_region(1), &h.domain_at_level(2), 2);
        // Refined: [0..15]x[8..23]. Buffered on the three interior sides
        // only: x keeps 0 (physical wall), loses 2 at x=15; y loses 2 both
        // sides.
        assert!(n.contains_point(Point2::new(0, 12)));
        assert!(!n.contains_point(Point2::new(15, 12)));
        assert!(!n.contains_point(Point2::new(5, 8)));
        assert_eq!(n.cells(), 14 * 12);
    }

    #[test]
    fn clip_keeps_interior_boxes() {
        let nest = Region::from_rect(r(0, 0, 31, 31));
        let out = clip_to_nesting(&[r(4, 4, 9, 9)], &nest, 2);
        assert_eq!(out, vec![r(4, 4, 9, 9)]);
    }

    #[test]
    fn clip_cuts_and_drops_slivers() {
        let nest = Region::from_rect(r(0, 0, 10, 10));
        // The candidate pokes out; the clipped part [9..10]x[0..10] is kept
        // (width 2 >= min_block).
        let out = clip_to_nesting(&[r(9, 0, 20, 10)], &nest, 2);
        assert_eq!(out, vec![r(9, 0, 10, 10)]);
        // With a 1-wide overhang the piece [10..10] is a sliver: dropped.
        let out = clip_to_nesting(&[r(10, 0, 20, 10)], &nest, 2);
        assert!(out.is_empty());
    }

    #[test]
    fn shrink_within_respects_physical_walls() {
        let domain = r(0, 0, 15, 15);
        // Region occupying the left half: its right edge is internal, the
        // other three edges are physical walls.
        let reg = Region::from_rect(r(0, 0, 7, 15));
        let s = shrink_within(&reg, &domain, 2);
        assert_eq!(s.cells(), 6 * 16);
        assert!(s.contains_point(Point2::new(0, 0)));
        assert!(!s.contains_point(Point2::new(7, 8)));
        // Buffer 0 is the identity.
        assert!(shrink_within(&reg, &domain, 0).same_cells(&reg));
        // Empty region stays empty.
        assert!(shrink_within(&Region::empty(), &domain, 2).is_empty());
    }

    #[test]
    fn clip_output_is_disjoint() {
        let nest = Region::from_boxes(&[r(0, 0, 15, 7), r(0, 0, 7, 15)]);
        let out = clip_to_nesting(&[r(0, 0, 15, 15), r(4, 4, 11, 11)], &nest, 2);
        for (i, a) in out.iter().enumerate() {
            for b in &out[i + 1..] {
                assert!(!a.intersects(b));
            }
        }
        // All pieces are inside the nesting region.
        for b in &out {
            assert_eq!(nest.intersect_rect(b).cells(), b.cells());
        }
    }

    #[test]
    fn three_d_nesting_shrinks_interior_faces_only() {
        // Level-1 patch touching the z=0 wall of a 16^3 base.
        let h = GridHierarchy::from_level_rects(
            Box3::from_extents(16, 16, 16),
            2,
            &[vec![], vec![Box3::from_coords(4, 4, 0, 11, 11, 7)]],
        );
        let n = shrink_within(&h.refined_region(1), &h.domain_at_level(2), 2);
        // Refined image: [8..23]x[8..23]x[0..15]; z=0 is a physical wall
        // so only five faces shrink: 12 x 12 x 14 cells remain.
        assert_eq!(n.cells(), 12 * 12 * 14);
        assert!(n.contains_point(Point3::new(10, 10, 0)));
        assert!(!n.contains_point(Point3::new(10, 10, 15)));
        assert!(!n.contains_point(Point3::new(8, 10, 5)));
    }
}
