//! Hierarchy statistics and refinement-pattern descriptors, generic over
//! the dimension.
//!
//! The octant-approach baseline classifier (§3) needs per-level surface
//! measures, the *refinement pattern* (localized ↔ scattered) and
//! *activity dynamics* descriptors.

use crate::hierarchy::GridHierarchy;
use samr_geom::{boxops, AABox};
use serde::{Deserialize, Serialize};

/// Per-level and aggregate statistics of one hierarchy snapshot.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// Grid points per level.
    pub cells_per_level: Vec<u64>,
    /// Boundary-ring cells per level (worst-case ghost surface).
    pub boundary_per_level: Vec<u64>,
    /// Localization of the refinement pattern in `[0, 1]`:
    /// 1 = all refinement concentrated in one compact blob, 0 = refinement
    /// spread evenly over the whole domain. Defined as
    /// `1 − (refined bounding-box volume / domain volume)` blended with the
    /// blob compactness (refined cells / refined bounding-box volume).
    pub localization: f64,
}

impl HierarchyStats {
    /// Compute all statistics for a hierarchy.
    pub fn compute<const D: usize>(h: &GridHierarchy<D>) -> Self {
        let cells_per_level: Vec<u64> = h.levels.iter().map(|l| l.cells()).collect();
        let boundary_per_level: Vec<u64> = h.levels.iter().map(|l| l.boundary_cells()).collect();

        let localization = if h.levels.len() < 2 {
            1.0
        } else {
            let rects = h.levels[1].rects();
            let refined_cells = boxops::total_cells(&rects);
            let bbox = rects
                .iter()
                .skip(1)
                .fold(rects[0], |acc, b| acc.bounding_union(b));
            let domain1 = h.domain_at_level(1);
            let spread = bbox.cells() as f64 / domain1.cells() as f64;
            let compact = refined_cells as f64 / bbox.cells() as f64;
            // Compact blob in a small part of the domain → localized (≈1);
            // sparse patches spanning the domain → scattered (≈0).
            ((1.0 - spread) * compact.sqrt() + compact * spread).clamp(0.0, 1.0)
        };

        Self {
            cells_per_level,
            boundary_per_level,
            localization,
        }
    }

    /// Number of levels present.
    pub fn depth(&self) -> usize {
        self.cells_per_level.len()
    }

    /// Surface-to-volume ratio of a level (0 when the level is absent or
    /// empty). The ArMADA framework used exactly this box operation for its
    /// octant classification.
    pub fn surface_to_volume(&self, level: usize) -> f64 {
        match (
            self.boundary_per_level.get(level),
            self.cells_per_level.get(level),
        ) {
            (Some(&b), Some(&c)) if c > 0 => b as f64 / c as f64,
            _ => 0.0,
        }
    }
}

/// `true` if the boxes share a face (overlap, or touch across exactly one
/// axis while overlapping on all others). Corner- and edge-only contact
/// does not connect — the same rule the historical 2-D
/// grow-and-intersect test implemented.
fn face_adjacent<const D: usize>(a: &AABox<D>, b: &AABox<D>) -> bool {
    let mut touch_axes = 0usize;
    for i in 0..D {
        let lo = a.lo()[i].max(b.lo()[i]);
        let hi = a.hi()[i].min(b.hi()[i]);
        if lo <= hi {
            continue; // overlapping interval on this axis
        }
        if lo == hi + 1 {
            touch_axes += 1; // exactly adjacent on this axis
        } else {
            return false; // a gap: not connected
        }
    }
    touch_axes <= 1
}

/// Label each box with its connected component under face adjacency (boxes
/// touching along a face are connected; corner-only contact is not).
/// Labels are dense, deterministic (smallest box index in the component
/// determines ordering) and returned per input box.
pub fn component_labels<const D: usize>(rects: &[AABox<D>]) -> Vec<usize> {
    let n = rects.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if face_adjacent(&rects[i], &rects[j]) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri.max(rj)] = ri.min(rj);
                }
            }
        }
    }
    // Densify root ids into 0..k in first-appearance order.
    let mut next = 0usize;
    let mut map: Vec<(usize, usize)> = Vec::new();
    (0..n)
        .map(|i| {
            let root = find(&mut parent, i);
            match map.iter().find(|(r, _)| *r == root) {
                Some((_, id)) => *id,
                None => {
                    map.push((root, next));
                    next += 1;
                    next - 1
                }
            }
        })
        .collect()
}

/// Activity-dynamics descriptor between two consecutive snapshots (octant
/// dimension "activity dynamics", §3.3): relative change in grid size and
/// in refined structure.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct ActivityDynamics {
    /// `| |H_t| − |H_{t-1}| | / max(|H_t|, |H_{t-1}|)` in `[0, 1]`.
    pub size_change: f64,
    /// Fraction of the union of refined regions (level ≥ 1, projected to
    /// the base grid) that changed between the snapshots, in `[0, 1]`.
    pub structure_change: f64,
}

impl ActivityDynamics {
    /// Compute the descriptor for a consecutive pair.
    pub fn between<const D: usize>(prev: &GridHierarchy<D>, cur: &GridHierarchy<D>) -> Self {
        let (a, b) = (prev.total_points(), cur.total_points());
        let size_change = if a.max(b) == 0 {
            0.0
        } else {
            (a.abs_diff(b)) as f64 / a.max(b) as f64
        };
        let (ra, rb) = (projected_refined(prev), projected_refined(cur));
        let union = ra.union(&rb);
        let structure_change = if union.is_empty() {
            0.0
        } else {
            let inter = ra.intersect(&rb);
            1.0 - inter.cells() as f64 / union.cells() as f64
        };
        Self {
            size_change,
            structure_change,
        }
    }
}

fn projected_refined<const D: usize>(h: &GridHierarchy<D>) -> samr_geom::Region<D> {
    if h.levels.len() < 2 {
        return samr_geom::Region::empty();
    }
    h.levels[1].region().coarsen(h.ratio)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::GridHierarchy;
    use samr_geom::{Box3, Rect2};

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    fn h(levels: &[Vec<Rect2>]) -> GridHierarchy<2> {
        GridHierarchy::from_level_rects(Rect2::from_extents(32, 32), 2, levels)
    }

    #[test]
    fn base_only_stats() {
        let base = h(&[vec![]]);
        let s = HierarchyStats::compute(&base);
        assert_eq!(s.cells_per_level, vec![1024]);
        assert_eq!(base.workload(), 1024);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.localization, 1.0);
    }

    #[test]
    fn workload_weights_levels() {
        let two = h(&[vec![], vec![r(0, 0, 15, 15)]]);
        let s = HierarchyStats::compute(&two);
        assert_eq!(s.cells_per_level, vec![1024, 256]);
        assert_eq!(two.workload(), 1024 + 256 * 2);
    }

    #[test]
    fn localized_beats_scattered() {
        // One compact blob vs four spread-out blobs of the same total area.
        let blob = vec![r(10, 10, 17, 17)];
        let tiles = vec![
            r(0, 0, 3, 3),
            r(56, 0, 59, 3),
            r(0, 56, 3, 59),
            r(56, 56, 59, 59),
        ];
        let local = HierarchyStats::compute(&h(&[vec![], blob.clone()]));
        let scattered = HierarchyStats::compute(&h(&[vec![], tiles.clone()]));
        assert!(local.localization > scattered.localization);
        assert_eq!(component_labels(&blob), [0]);
        assert_eq!(component_labels(&tiles), [0, 1, 2, 3]);
    }

    #[test]
    fn surface_to_volume() {
        let s = HierarchyStats::compute(&h(&[vec![], vec![r(0, 0, 7, 7)]]));
        // 8x8 patch: boundary 28, cells 64.
        assert!((s.surface_to_volume(1) - 28.0 / 64.0).abs() < 1e-12);
        assert_eq!(s.surface_to_volume(7), 0.0);
    }

    #[test]
    fn components_faces_connect_corners_do_not() {
        assert!(component_labels::<2>(&[]).is_empty());
        assert_eq!(component_labels(&[r(0, 0, 1, 1)]), [0]);
        // Face-adjacent.
        assert_eq!(component_labels(&[r(0, 0, 1, 1), r(2, 0, 3, 1)]), [0, 0]);
        // Corner contact only.
        assert_eq!(component_labels(&[r(0, 0, 1, 1), r(2, 2, 3, 3)]), [0, 1]);
        // Separated.
        assert_eq!(component_labels(&[r(0, 0, 1, 1), r(5, 0, 6, 1)]), [0, 1]);
        // Chain a-b-c is one component.
        assert_eq!(
            component_labels(&[r(0, 0, 1, 1), r(2, 0, 3, 1), r(4, 0, 5, 1)]),
            [0, 0, 0]
        );
    }

    #[test]
    fn three_d_components_require_face_contact() {
        let a = Box3::from_coords(0, 0, 0, 1, 1, 1);
        let face = Box3::from_coords(2, 0, 0, 3, 1, 1);
        let edge = Box3::from_coords(2, 2, 0, 3, 3, 1);
        let corner = Box3::from_coords(2, 2, 2, 3, 3, 3);
        assert_eq!(component_labels(&[a, face]), [0, 0]);
        assert_eq!(component_labels(&[a, edge]), [0, 1]); // edge contact only
        assert_eq!(component_labels(&[a, corner]), [0, 1]);
    }

    #[test]
    fn activity_dynamics_zero_for_identical() {
        let a = h(&[vec![], vec![r(4, 4, 11, 11)]]);
        let d = ActivityDynamics::between(&a, &a.clone());
        assert_eq!(d.size_change, 0.0);
        assert_eq!(d.structure_change, 0.0);
    }

    #[test]
    fn activity_dynamics_detects_motion() {
        let a = h(&[vec![], vec![r(4, 4, 11, 11)]]);
        let b = h(&[vec![], vec![r(12, 12, 19, 19)]]);
        let d = ActivityDynamics::between(&a, &b);
        assert_eq!(d.size_change, 0.0); // same size...
        assert!(d.structure_change > 0.9); // ...completely different place
    }

    #[test]
    fn activity_dynamics_detects_growth() {
        let a = h(&[vec![], vec![r(4, 4, 11, 11)]]);
        let b = h(&[vec![], vec![r(4, 4, 19, 19)]]);
        let d = ActivityDynamics::between(&a, &b);
        assert!(d.size_change > 0.0);
        assert!(d.structure_change > 0.0 && d.structure_change < 1.0);
    }
}
