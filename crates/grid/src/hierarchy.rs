//! Patches, levels and the adaptive grid hierarchy, generic over the
//! dimension.

use samr_geom::{boxops, AABox, Region};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Identifier of a patch within its level (dense index, stable within one
/// hierarchy snapshot; patches are re-created at every regrid, exactly as
/// in Berger–Colella SAMR, so ids are not stable across snapshots — the
/// paper's β_m deliberately works on box geometry, not identity).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PatchId(pub u32);

impl fmt::Debug for PatchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// One uniform logically-rectangular grid patch of a refinement level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Patch<const D: usize> {
    /// Patch id within the level.
    pub id: PatchId,
    /// The cells of the patch, in the level's own index space.
    pub rect: AABox<D>,
}

impl<const D: usize> Patch<D> {
    /// Number of grid points in the patch.
    #[inline]
    pub fn cells(&self) -> u64 {
        self.rect.cells()
    }
}

impl<const D: usize> Serialize for Patch<D> {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("id".to_string(), self.id.serialize()),
            ("rect".to_string(), self.rect.serialize()),
        ])
    }
}

impl<const D: usize> Deserialize for Patch<D> {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            id: serde::field(v, "id")?,
            rect: serde::field(v, "rect")?,
        })
    }
}

/// One refinement level: a set of non-overlapping patches in the level's
/// index space (level `l` index space is the base index space refined by
/// `ratio^l`).
#[derive(Clone, PartialEq, Debug)]
pub struct Level<const D: usize> {
    /// Patches of the level. Invariant (checked by
    /// [`GridHierarchy::validate`]): pairwise disjoint.
    pub patches: Vec<Patch<D>>,
}

impl<const D: usize> Default for Level<D> {
    fn default() -> Self {
        Self {
            patches: Vec::new(),
        }
    }
}

impl<const D: usize> Level<D> {
    /// Build a level from raw boxes, assigning dense patch ids.
    pub fn from_rects(rects: &[AABox<D>]) -> Self {
        Self {
            patches: rects
                .iter()
                .enumerate()
                .map(|(i, &rect)| Patch {
                    id: PatchId(i as u32),
                    rect,
                })
                .collect(),
        }
    }

    /// Number of patches.
    #[inline]
    pub fn patch_count(&self) -> usize {
        self.patches.len()
    }

    /// `true` if the level holds no patches.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.patches.is_empty()
    }

    /// Total grid points on the level.
    pub fn cells(&self) -> u64 {
        self.patches.iter().map(Patch::cells).sum()
    }

    /// Total boundary-ring cells over all patches (worst-case ghost
    /// communication surface).
    pub fn boundary_cells(&self) -> u64 {
        self.patches.iter().map(|p| p.rect.perimeter_cells()).sum()
    }

    /// The boxes of all patches.
    pub fn rects(&self) -> Vec<AABox<D>> {
        self.patches.iter().map(|p| p.rect).collect()
    }

    /// The cell set covered by the level.
    pub fn region(&self) -> Region<D> {
        // Patches are disjoint, so no dedup pass is needed.
        self.patches.iter().map(|p| p.rect).collect()
    }
}

impl<const D: usize> Serialize for Level<D> {
    fn serialize(&self) -> Value {
        Value::Map(vec![("patches".to_string(), self.patches.serialize())])
    }
}

impl<const D: usize> Deserialize for Level<D> {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            patches: serde::field(v, "patches")?,
        })
    }
}

/// Validation failures for a hierarchy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HierarchyError {
    /// Two patches of one level overlap.
    OverlappingPatches {
        /// Level index.
        level: usize,
        /// First offending patch.
        a: PatchId,
        /// Second offending patch.
        b: PatchId,
    },
    /// A patch leaves the problem domain of its level.
    PatchOutsideDomain {
        /// Level index.
        level: usize,
        /// Offending patch.
        patch: PatchId,
    },
    /// A patch of level `l+1` is not covered by the refined region of
    /// level `l` (proper nesting violated).
    NotProperlyNested {
        /// The finer level index (the violating one).
        level: usize,
        /// Offending patch.
        patch: PatchId,
    },
    /// A patch has an extent below the configured minimum block dimension.
    BlockTooSmall {
        /// Level index.
        level: usize,
        /// Offending patch.
        patch: PatchId,
    },
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OverlappingPatches { level, a, b } => {
                write!(f, "level {level}: patches {a:?} and {b:?} overlap")
            }
            Self::PatchOutsideDomain { level, patch } => {
                write!(f, "level {level}: patch {patch:?} outside domain")
            }
            Self::NotProperlyNested { level, patch } => {
                write!(f, "level {level}: patch {patch:?} not properly nested")
            }
            Self::BlockTooSmall { level, patch } => {
                write!(f, "level {level}: patch {patch:?} below minimum block size")
            }
        }
    }
}

impl std::error::Error for HierarchyError {}

/// A structured adaptive grid hierarchy `H_t`: a base grid covering the
/// whole domain plus refined patch levels.
///
/// The configuration matches the paper's §5.1.1: refinement by a constant
/// integer `ratio` (2 in all experiments) in *space and time*, up to
/// `max_levels` levels (5 in all experiments). Level 0 always consists of a
/// single patch covering `base_domain` — SAMR base grids are never adapted,
/// only overlaid.
#[derive(Clone, PartialEq, Debug)]
pub struct GridHierarchy<const D: usize> {
    /// The problem domain in base-level (level 0) index space.
    pub base_domain: AABox<D>,
    /// Space and time refinement factor between consecutive levels.
    pub ratio: i64,
    /// All levels; `levels[0]` covers `base_domain` exactly.
    pub levels: Vec<Level<D>>,
}

impl<const D: usize> Serialize for GridHierarchy<D> {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("base_domain".to_string(), self.base_domain.serialize()),
            ("ratio".to_string(), self.ratio.serialize()),
            ("levels".to_string(), self.levels.serialize()),
        ])
    }
}

impl<const D: usize> Deserialize for GridHierarchy<D> {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            base_domain: serde::field(v, "base_domain")?,
            ratio: serde::field(v, "ratio")?,
            levels: serde::field(v, "levels")?,
        })
    }
}

impl<const D: usize> GridHierarchy<D> {
    /// Create a hierarchy with only the base level.
    pub fn base_only(base_domain: AABox<D>, ratio: i64) -> Self {
        assert!(ratio >= 2, "refinement ratio must be >= 2");
        Self {
            base_domain,
            ratio,
            levels: vec![Level::from_rects(&[base_domain])],
        }
    }

    /// Create a hierarchy from per-level box lists. `level_rects[0]` is
    /// ignored in favour of the base domain if empty; otherwise it is taken
    /// as given (allowing multi-patch base grids).
    pub fn from_level_rects(
        base_domain: AABox<D>,
        ratio: i64,
        level_rects: &[Vec<AABox<D>>],
    ) -> Self {
        let mut h = Self::base_only(base_domain, ratio);
        for (l, rects) in level_rects.iter().enumerate() {
            if l == 0 {
                if !rects.is_empty() {
                    h.levels[0] = Level::from_rects(rects);
                }
                continue;
            }
            if rects.is_empty() {
                break; // no patches at this level => deeper levels impossible
            }
            h.levels.push(Level::from_rects(rects));
        }
        h
    }

    /// Number of levels with at least one patch.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The problem domain expressed in level-`l` index space.
    pub fn domain_at_level(&self, l: usize) -> AABox<D> {
        self.base_domain.refine(self.ratio.pow(l as u32))
    }

    /// Total number of grid points `|H|` over all levels — the denominator
    /// of the paper's β_m and the normalizer of relative data migration.
    pub fn total_points(&self) -> u64 {
        self.levels.iter().map(Level::cells).sum()
    }

    /// The workload `W = Σ_l N_l·ratio^l`: cell updates per coarse time
    /// step under factor-`ratio` time refinement (level `l` performs
    /// `ratio^l` local steps per coarse step). This is the normalizer of
    /// the paper's grid-relative communication metric (§4.1).
    pub fn workload(&self) -> u64 {
        self.levels
            .iter()
            .enumerate()
            .map(|(l, lev)| lev.cells() * (self.ratio as u64).pow(l as u32))
            .sum()
    }

    /// The refined cell set of level `l` expressed in level-`l+1` index
    /// space (the region that properly nested `l+1` patches must stay
    /// inside).
    pub fn refined_region(&self, l: usize) -> Region<D> {
        self.levels[l].region().refine(self.ratio)
    }

    /// Check all structural invariants. `min_block` is the granularity of
    /// the paper's set-up (2); pass 1 to disable the block-size check.
    pub fn validate(&self, min_block: i64) -> Result<(), HierarchyError> {
        for (l, level) in self.levels.iter().enumerate() {
            let domain = self.domain_at_level(l);
            for (i, p) in level.patches.iter().enumerate() {
                if !domain.contains_rect(&p.rect) {
                    return Err(HierarchyError::PatchOutsideDomain {
                        level: l,
                        patch: p.id,
                    });
                }
                let e = p.rect.extent();
                if l > 0 && e.coords().iter().any(|&x| x < min_block) {
                    return Err(HierarchyError::BlockTooSmall {
                        level: l,
                        patch: p.id,
                    });
                }
                for q in &level.patches[i + 1..] {
                    if p.rect.intersects(&q.rect) {
                        return Err(HierarchyError::OverlappingPatches {
                            level: l,
                            a: p.id,
                            b: q.id,
                        });
                    }
                }
            }
            if l > 0 {
                let parent = self.refined_region(l - 1);
                for p in &level.patches {
                    if !boxops::covers(&p.rect, parent.boxes()) {
                        return Err(HierarchyError::NotProperlyNested {
                            level: l,
                            patch: p.id,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::{Box3, Point2, Rect2};

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    fn two_level() -> GridHierarchy<2> {
        // Base 16x16, one refined patch over cells [2..5]x[2..5] => fine
        // box [4..11]^2.
        GridHierarchy::from_level_rects(
            Rect2::from_extents(16, 16),
            2,
            &[vec![], vec![r(4, 4, 11, 11)]],
        )
    }

    #[test]
    fn base_only_has_one_patch() {
        let h = GridHierarchy::base_only(Rect2::from_extents(8, 8), 2);
        assert_eq!(h.depth(), 1);
        assert_eq!(h.total_points(), 64);
        assert_eq!(h.workload(), 64);
        assert!(h.validate(2).is_ok());
    }

    #[test]
    fn total_points_and_workload() {
        let h = two_level();
        assert_eq!(h.total_points(), 256 + 64);
        // level 1 runs ratio^1 = 2 local steps per coarse step.
        assert_eq!(h.workload(), 256 + 64 * 2);
    }

    #[test]
    fn domain_at_level_refines() {
        let h = two_level();
        assert_eq!(h.domain_at_level(0), r(0, 0, 15, 15));
        assert_eq!(h.domain_at_level(1), r(0, 0, 31, 31));
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert_eq!(two_level().validate(2), Ok(()));
    }

    #[test]
    fn validate_rejects_overlap() {
        let h = GridHierarchy::from_level_rects(
            Rect2::from_extents(16, 16),
            2,
            &[vec![], vec![r(4, 4, 11, 11), r(10, 10, 13, 13)]],
        );
        assert!(matches!(
            h.validate(2),
            Err(HierarchyError::OverlappingPatches { level: 1, .. })
        ));
    }

    #[test]
    fn validate_rejects_out_of_domain() {
        let h = GridHierarchy::from_level_rects(
            Rect2::from_extents(16, 16),
            2,
            &[vec![], vec![r(28, 28, 33, 33)]],
        );
        assert!(matches!(
            h.validate(2),
            Err(HierarchyError::PatchOutsideDomain { level: 1, .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_nesting() {
        // Level 2 patch outside the refined level-1 region.
        let h = GridHierarchy::from_level_rects(
            Rect2::from_extents(16, 16),
            2,
            &[vec![], vec![r(4, 4, 11, 11)], vec![r(30, 30, 35, 35)]],
        );
        assert!(matches!(
            h.validate(2),
            Err(HierarchyError::NotProperlyNested { level: 2, .. })
        ));
    }

    #[test]
    fn validate_rejects_small_blocks() {
        let h = GridHierarchy::from_level_rects(
            Rect2::from_extents(16, 16),
            2,
            &[vec![], vec![Rect2::cell(Point2::new(4, 4))]],
        );
        assert!(matches!(
            h.validate(2),
            Err(HierarchyError::BlockTooSmall { level: 1, .. })
        ));
    }

    #[test]
    fn deeper_levels_truncated_after_gap() {
        let h = GridHierarchy::from_level_rects(
            Rect2::from_extents(16, 16),
            2,
            &[vec![], vec![], vec![r(8, 8, 11, 11)]],
        );
        // Empty level 1 terminates the hierarchy.
        assert_eq!(h.depth(), 1);
    }

    #[test]
    fn level_accessors() {
        let lev = Level::from_rects(&[r(0, 0, 3, 3), r(8, 0, 9, 1)]);
        assert_eq!(lev.patch_count(), 2);
        assert_eq!(lev.cells(), 20);
        assert_eq!(lev.boundary_cells(), 12 + 4);
        assert_eq!(lev.region().cells(), 20);
        assert!(!lev.is_empty());
    }

    #[test]
    fn three_d_hierarchy_validates_and_measures() {
        let h = GridHierarchy::from_level_rects(
            Box3::from_extents(16, 16, 16),
            2,
            &[vec![], vec![Box3::from_coords(4, 4, 4, 11, 11, 11)]],
        );
        assert_eq!(h.depth(), 2);
        assert_eq!(h.total_points(), 4096 + 512);
        assert_eq!(h.workload(), 4096 + 512 * 2);
        assert_eq!(h.validate(2), Ok(()));
        // A badly nested level-2 patch is caught in 3-D too.
        let bad = GridHierarchy::from_level_rects(
            Box3::from_extents(16, 16, 16),
            2,
            &[
                vec![],
                vec![Box3::from_coords(4, 4, 4, 11, 11, 11)],
                vec![Box3::from_coords(40, 40, 40, 47, 47, 47)],
            ],
        );
        assert!(matches!(
            bad.validate(2),
            Err(HierarchyError::NotProperlyNested { level: 2, .. })
        ));
    }

    #[test]
    fn serde_roundtrip_both_dims() {
        let h2 = two_level();
        let v = h2.serialize();
        assert_eq!(GridHierarchy::<2>::deserialize(&v).unwrap(), h2);
        let h3 = GridHierarchy::from_level_rects(
            Box3::from_extents(8, 8, 8),
            2,
            &[vec![], vec![Box3::from_coords(2, 2, 2, 7, 7, 7)]],
        );
        let v = h3.serialize();
        assert_eq!(GridHierarchy::<3>::deserialize(&v).unwrap(), h3);
        // A 2-D hierarchy value cannot deserialize as 3-D.
        assert!(GridHierarchy::<3>::deserialize(&h2.serialize()).is_err());
    }
}
