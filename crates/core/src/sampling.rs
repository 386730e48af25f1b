//! Ab-initio sampling of the grid hierarchy.
//!
//! The model's inputs are *samples of application state* taken directly
//! from the unpartitioned hierarchy (§4: "a model for sampling and
//! translating these samples of the given application parameters (such as
//! the grid hierarchy) … into the partitioner-centric classification
//! space"). This module computes the composite-workload distribution over
//! the base domain, which feeds the reconstructed load-imbalance penalty
//! β_l. It deliberately does **not** reuse partitioner code: the model
//! must remain independent of any particular partitioning.

use samr_geom::{AABox, Point};
use samr_grid::GridHierarchy;

/// Composite workload (cell updates per coarse step) of each `unit`-sized
/// block of the base domain, row-major over the block grid. The sum over
/// all units equals `h.workload()`.
pub fn unit_workloads<const D: usize>(h: &GridHierarchy<D>, unit: i64) -> Vec<u64> {
    assert!(unit >= 1);
    let domain = h.base_domain;
    let e = domain.extent();
    let dims: [i64; D] = std::array::from_fn(|i| (e[i] + unit - 1) / unit);
    let index_box = AABox::<D>::from_extent_array(dims);
    let mut weights = vec![0u64; index_box.cells() as usize];
    for (l, level) in h.levels.iter().enumerate() {
        let scale = h.ratio.pow(l as u32);
        let w = (h.ratio as u64).pow(l as u32);
        for patch in &level.patches {
            let base_fp = patch.rect.coarsen(scale);
            let u_lo = (base_fp.lo() - domain.lo()).div_floor(unit);
            let u_hi = (base_fp.hi() - domain.lo()).div_floor(unit);
            let u_hi = Point::<D>::from_fn(|i| u_hi[i].min(dims[i] - 1));
            let Some(span) = AABox::try_new(u_lo, u_hi) else {
                continue;
            };
            for u in span.iter_cells() {
                let lo = Point::<D>::from_fn(|i| domain.lo()[i] + u[i] * unit);
                let unit_box = AABox::new(
                    lo,
                    Point::from_fn(|i| (lo[i] + unit - 1).min(domain.hi()[i])),
                );
                let overlap = patch.rect.overlap_cells(&unit_box.refine(scale));
                weights[index_box.linear_index(u)] += overlap * w;
            }
        }
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;

    use samr_geom::Rect2;

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn unit_workloads_sum_to_workload() {
        let h = GridHierarchy::from_level_rects(
            Rect2::from_extents(16, 16),
            2,
            &[vec![], vec![r(8, 8, 23, 23)], vec![r(24, 24, 39, 39)]],
        );
        for unit in [1, 2, 4] {
            let w = unit_workloads(&h, unit);
            assert_eq!(w.iter().sum::<u64>(), h.workload(), "unit {unit}");
        }
    }
}
