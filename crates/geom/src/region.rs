//! Regions: canonical disjoint unions of boxes with set algebra, generic
//! over the dimension.

use crate::boxops;
use crate::point::Point;
use crate::rect::AABox;
use std::fmt;

/// A (possibly empty) set of grid cells stored as a list of pairwise
/// disjoint boxes.
///
/// `Region` is the type the execution simulator reasons with: "the part of
/// this ghost shell owned by processor 3", "the cells of level 2 covered by
/// level 3", "the subdomain assigned to this processor group". All
/// operations maintain disjointness, so [`Region::cells`] is a plain sum
/// and never double-counts.
#[derive(Clone, PartialEq, Eq)]
pub struct Region<const D: usize> {
    boxes: Vec<AABox<D>>,
}

/// 2-D region (the historical `Region` of the 2-D code base).
pub type Region2 = Region<2>;

/// 3-D region.
pub type Region3 = Region<3>;

impl<const D: usize> Default for Region<D> {
    fn default() -> Self {
        Self { boxes: Vec::new() }
    }
}

impl<const D: usize> Region<D> {
    /// The empty region.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A region consisting of a single box.
    pub fn from_rect(r: AABox<D>) -> Self {
        Self { boxes: vec![r] }
    }

    /// Build a region from possibly-overlapping boxes (overlaps are
    /// deduplicated).
    pub fn from_boxes(boxes: &[AABox<D>]) -> Self {
        Self {
            boxes: boxops::disjointify(boxes),
        }
    }

    /// The disjoint boxes making up the region.
    pub fn boxes(&self) -> &[AABox<D>] {
        &self.boxes
    }

    /// `true` if the region contains no cells.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Number of boxes in the representation (not cells).
    pub fn box_count(&self) -> usize {
        self.boxes.len()
    }

    /// Exact number of cells in the region.
    pub fn cells(&self) -> u64 {
        self.boxes.iter().map(AABox::cells).sum()
    }

    /// `true` if the cell `p` is in the region.
    pub fn contains_point(&self, p: Point<D>) -> bool {
        self.boxes.iter().any(|b| b.contains_point(p))
    }

    /// Smallest box containing the region, or `None` if empty.
    pub fn bounding_box(&self) -> Option<AABox<D>> {
        let mut it = self.boxes.iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, b| acc.bounding_union(b)))
    }

    /// Set union.
    pub fn union(&self, other: &Region<D>) -> Region<D> {
        if self.is_empty() {
            return other.clone();
        }
        let mut boxes = self.boxes.clone();
        for b in &other.boxes {
            let mut pieces = boxops::subtract_all(b, &self.boxes);
            boxes.append(&mut pieces);
        }
        Region { boxes }
    }

    /// Add a single box to the region.
    pub fn insert(&mut self, r: AABox<D>) {
        let pieces = boxops::subtract_all(&r, &self.boxes);
        self.boxes.extend(pieces);
    }

    /// Set intersection.
    pub fn intersect(&self, other: &Region<D>) -> Region<D> {
        let mut boxes = Vec::new();
        for a in &self.boxes {
            for b in &other.boxes {
                if let Some(i) = a.intersect(b) {
                    boxes.push(i);
                }
            }
        }
        // Inputs are disjoint lists, so the pairwise intersections are
        // disjoint already.
        Region { boxes }
    }

    /// Intersection with a single box.
    pub fn intersect_rect(&self, r: &AABox<D>) -> Region<D> {
        Region {
            boxes: self.boxes.iter().filter_map(|b| b.intersect(r)).collect(),
        }
    }

    /// Set difference `self \ other`.
    pub fn subtract(&self, other: &Region<D>) -> Region<D> {
        self.subtract_boxes(&other.boxes)
    }

    /// Set difference against a raw box list.
    pub fn subtract_boxes(&self, bs: &[AABox<D>]) -> Region<D> {
        let mut boxes = Vec::new();
        for a in &self.boxes {
            boxes.extend(boxops::subtract_all(a, bs));
        }
        Region { boxes }
    }

    /// Number of cells shared with `other` without materializing the
    /// intersection.
    pub fn overlap_cells(&self, other: &Region<D>) -> u64 {
        boxops::pairwise_overlap_cells(&self.boxes, &other.boxes)
    }

    /// Reduce the number of boxes in the representation without changing
    /// the cell set.
    pub fn coalesce(&mut self) {
        boxops::coalesce_in_place(&mut self.boxes);
    }

    /// Refine every box by factor `r` (cells subdivide; the region covers
    /// the same physical volume at the finer index space).
    pub fn refine(&self, r: i64) -> Region<D> {
        Region {
            boxes: self.boxes.iter().map(|b| b.refine(r)).collect(),
        }
    }

    /// Coarsen every box by factor `r`. Coarsening can make boxes
    /// overlap, so the result is re-disjointified.
    pub fn coarsen(&self, r: i64) -> Region<D> {
        let coarse: Vec<AABox<D>> = self.boxes.iter().map(|b| b.coarsen(r)).collect();
        Region {
            boxes: boxops::disjointify(&coarse),
        }
    }

    /// Canonical sorted form for order-independent equality checks in
    /// tests: two regions with the same cells can have different box
    /// decompositions, so [`Region::same_cells`] is the semantic
    /// equality.
    pub fn same_cells(&self, other: &Region<D>) -> bool {
        self.cells() == other.cells() && self.overlap_cells(other) == self.cells()
    }
}

impl<const D: usize> fmt::Debug for Region<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Region[{} boxes, {} cells]",
            self.boxes.len(),
            self.cells()
        )
    }
}

impl<const D: usize> FromIterator<AABox<D>> for Region<D> {
    fn from_iter<T: IntoIterator<Item = AABox<D>>>(iter: T) -> Self {
        let boxes: Vec<AABox<D>> = iter.into_iter().collect();
        Region::from_boxes(&boxes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point2;
    use crate::rect::{Box3, Rect2};

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn empty_region() {
        let e = Region2::empty();
        assert!(e.is_empty());
        assert_eq!(e.cells(), 0);
        assert!(e.bounding_box().is_none());
    }

    #[test]
    fn from_overlapping_boxes_dedups() {
        let reg = Region::from_boxes(&[r(0, 0, 3, 3), r(2, 2, 5, 5)]);
        assert_eq!(reg.cells(), 28);
    }

    #[test]
    fn union_is_idempotent_and_commutative_on_cells() {
        let a = Region::from_rect(r(0, 0, 4, 4));
        let b = Region::from_boxes(&[r(3, 3, 7, 7), r(10, 0, 11, 1)]);
        let u1 = a.union(&b);
        let u2 = b.union(&a);
        assert!(u1.same_cells(&u2));
        assert!(u1.same_cells(&u1.union(&a)));
        assert_eq!(u1.cells(), 25 + 25 - 4 + 4);
    }

    #[test]
    fn intersect_and_subtract_partition_the_set() {
        let a = Region::from_rect(r(0, 0, 9, 9));
        let b = Region::from_boxes(&[r(5, 5, 14, 14), r(-3, -3, 1, 1)]);
        let inter = a.intersect(&b);
        let diff = a.subtract(&b);
        assert_eq!(inter.cells() + diff.cells(), a.cells());
        assert_eq!(inter.overlap_cells(&diff), 0);
    }

    #[test]
    fn insert_accumulates() {
        let mut reg = Region2::empty();
        reg.insert(r(0, 0, 1, 1));
        reg.insert(r(1, 1, 2, 2)); // overlaps one cell
        assert_eq!(reg.cells(), 7);
        assert!(reg.contains_point(Point2::new(2, 2)));
        assert!(!reg.contains_point(Point2::new(3, 3)));
    }

    #[test]
    fn refine_scales_cells_by_r_squared() {
        let reg = Region::from_boxes(&[r(0, 0, 2, 2), r(5, 5, 6, 6)]);
        assert_eq!(reg.refine(2).cells(), reg.cells() * 4);
    }

    #[test]
    fn coarsen_covers_original() {
        let reg = Region::from_boxes(&[r(1, 1, 6, 3), r(4, 2, 9, 8)]);
        let c = reg.coarsen(2);
        // Every original box must be inside the refined coarse region.
        let cov = c.refine(2);
        for b in reg.boxes() {
            assert_eq!(cov.intersect_rect(b).cells(), b.cells());
        }
    }

    #[test]
    fn coarsen_disjointifies() {
        // Two fine boxes that coarsen onto overlapping coarse boxes.
        let reg = Region::from_boxes(&[r(0, 0, 1, 1), r(2, 2, 3, 3)]);
        let c = reg.coarsen(4);
        assert_eq!(c.cells(), 1); // both coarsen into coarse cell (0,0)
    }

    #[test]
    fn intersect_rect_clips() {
        let reg = Region::from_boxes(&[r(0, 0, 9, 9)]);
        assert_eq!(reg.intersect_rect(&r(8, 8, 12, 12)).cells(), 4);
    }

    #[test]
    fn coalesce_preserves_cells() {
        let mut reg = Region::from_boxes(&[r(0, 0, 3, 1), r(0, 2, 3, 3)]);
        let cells = reg.cells();
        reg.coalesce();
        assert_eq!(reg.cells(), cells);
        assert_eq!(reg.box_count(), 1);
    }

    #[test]
    fn from_iterator_collects() {
        let reg: Region2 = vec![r(0, 0, 0, 0), r(1, 0, 1, 0)].into_iter().collect();
        assert_eq!(reg.cells(), 2);
    }

    #[test]
    fn bounding_box_spans_all() {
        let reg = Region::from_boxes(&[r(0, 0, 1, 1), r(9, 9, 10, 10)]);
        assert_eq!(reg.bounding_box(), Some(r(0, 0, 10, 10)));
    }

    #[test]
    fn three_d_set_algebra() {
        let a = Region::from_rect(Box3::from_extents(8, 8, 8));
        let hole = Region::from_rect(Box3::from_coords(2, 2, 2, 5, 5, 5));
        let diff = a.subtract(&hole);
        assert_eq!(diff.cells(), 512 - 64);
        assert_eq!(diff.overlap_cells(&hole), 0);
        let back = diff.union(&hole);
        assert!(back.same_cells(&a));
        assert_eq!(a.refine(2).cells(), 512 * 8);
    }
}
