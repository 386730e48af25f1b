//! Composite workload weighting of the base domain, generic over the
//! dimension.
//!
//! Domain-based SAMR partitioners cut the *base domain* and take all
//! overlaid refined cells along with the cut. The unit of currency is an
//! *atomic unit*: a small cubic block of base cells (Nature+Fable exposes
//! the atomic-unit size as a tuning parameter). Each unit's weight is the
//! full composite workload of the column of cells above it:
//! `Σ_l |level_l ∩ refine(unit)| · ratio^l`.

use samr_geom::sfc::{order_for, sfc_keys_nd, SfcCurve};
use samr_geom::{AABox, Point};
use samr_grid::GridHierarchy;

/// The base domain diced into atomic units with composite weights.
#[derive(Clone, Debug)]
pub struct UnitGrid<const D: usize> {
    /// Base cells per unit side.
    pub unit: i64,
    /// Units along each axis.
    pub dims: [i64; D],
    /// Base-domain origin (unit `(0, …, 0)` starts here).
    pub origin: Point<D>,
    /// Row-major composite workload per unit (axis 0 fastest).
    pub weights: Vec<u64>,
}

impl<const D: usize> UnitGrid<D> {
    /// The box of the unit index space (`[0, dims-1]` per axis).
    pub fn index_box(&self) -> AABox<D> {
        AABox::from_extent_array(self.dims)
    }

    /// The base-space box of unit `u` (clipped to the domain for edge
    /// units when the domain is not a multiple of the unit size).
    pub fn unit_rect(&self, domain: &AABox<D>, u: [i64; D]) -> AABox<D> {
        let lo = Point::from_fn(|i| self.origin[i] + u[i] * self.unit);
        let hi = Point::from_fn(|i| lo[i] + self.unit - 1);
        AABox::new(lo, hi)
            .intersect(domain)
            .expect("unit inside domain")
    }

    /// Total weight over all units (equals the hierarchy workload).
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// Weight of unit `u`.
    pub fn weight(&self, u: [i64; D]) -> u64 {
        self.weights[self.index_box().linear_index(Point::from_array(u))]
    }
}

/// Dice the base domain of `h` into `unit`-sized atomic units and compute
/// the composite workload of each.
pub fn composite_unit_weights<const D: usize>(h: &GridHierarchy<D>, unit: i64) -> UnitGrid<D> {
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
            // Footprint of the patch on the base grid, then on units.
            let base_fp = patch.rect.coarsen(scale);
            let u_lo = (base_fp.lo() - domain.lo()).div_floor(unit);
            let u_hi = (base_fp.hi() - domain.lo()).div_floor(unit);
            let u_hi = Point::<D>::from_fn(|i| u_hi[i].min(dims[i] - 1));
            let Some(span) = AABox::try_new(u_lo, u_hi) else {
                continue;
            };
            for u in span.iter_cells() {
                let lo = Point::<D>::from_fn(|i| domain.lo()[i] + u[i] * unit);
                let unit_box = AABox::new(lo, Point::from_fn(|i| lo[i] + unit - 1));
                let fine_unit = unit_box.refine(scale);
                let overlap = patch.rect.overlap_cells(&fine_unit);
                weights[index_box.linear_index(u)] += overlap * w;
            }
        }
    }
    UnitGrid {
        unit,
        dims,
        origin: domain.lo(),
        weights,
    }
}

/// Linearize the units of `grid` along a space-filling curve.
///
/// With `full_order = true` the exact curve ordering is used. With
/// `full_order = false` the *partially ordered* variant the paper
/// attributes to Nature+Fable is used: units are bucketed by the top bits
/// of their SFC key (buckets of `2^(D·partial_level)` curve positions) and
/// kept in row-major order inside each bucket — cheaper to compute
/// incrementally, at some locality cost.
pub fn sfc_order<const D: usize>(
    grid: &UnitGrid<D>,
    curve: SfcCurve,
    full_order: bool,
) -> Vec<[i64; D]> {
    let order = order_for(grid.dims.iter().copied().max().unwrap_or(1) as u64);
    let coords: Vec<[u64; D]> = grid
        .index_box()
        .iter_cells()
        .map(|u| {
            let c = u.coords();
            std::array::from_fn(|i| c[i] as u64)
        })
        .collect();
    // Batch-encode the whole unit grid (one SFC kernel dispatch per
    // snapshot instead of one per cell).
    let mut keys = Vec::new();
    sfc_keys_nd::<D>(curve, order, &coords, &mut keys);
    let mut keyed: Vec<(u64, [i64; D])> = keys
        .iter()
        .zip(&coords)
        .map(|(&key, c)| {
            // Partial ordering: keep only the top 4 levels of the curve
            // (buckets of 2^(D*(order-4)) positions); ties resolved by
            // the row-major push order (sort is stable).
            let eff_key = if full_order || order <= 4 {
                key
            } else {
                key >> (D as u32 * (order - 4))
            };
            (eff_key, std::array::from_fn(|i| c[i] as i64))
        })
        .collect();
    keyed.sort_by_key(|&(k, _)| k);
    keyed.into_iter().map(|(_, u)| u).collect()
}

/// Split an SFC-ordered unit sequence into `nprocs` contiguous chunks of
/// near-equal weight (greedy prefix walk against the ideal running
/// quota). Returns the owner of every unit in sequence order.
pub fn split_contiguous<const D: usize>(
    grid: &UnitGrid<D>,
    order: &[[i64; D]],
    nprocs: usize,
) -> Vec<u32> {
    assert!(nprocs >= 1);
    let total = grid.total_weight() as f64;
    let mut owners = Vec::with_capacity(order.len());
    let mut acc = 0.0f64;
    let mut proc = 0u32;
    for &u in order {
        let w = grid.weight(u) as f64;
        // Advance to the next processor when the running total has passed
        // this processor's quota boundary (midpoint rule so a big unit
        // lands on whichever side it overlaps more).
        while proc + 1 < nprocs as u32 && acc + 0.5 * w > total * (proc + 1) as f64 / nprocs as f64
        {
            proc += 1;
        }
        owners.push(proc);
        acc += w;
    }
    owners
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::{Box3, Rect2};

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    fn hierarchy() -> GridHierarchy<2> {
        GridHierarchy::from_level_rects(
            Rect2::from_extents(16, 16),
            2,
            &[vec![], vec![r(8, 8, 15, 15)], vec![r(20, 20, 27, 27)]],
        )
    }

    #[test]
    fn weights_sum_to_workload() {
        let h = hierarchy();
        for unit in [1, 2, 4, 8] {
            let g = composite_unit_weights(&h, unit);
            assert_eq!(g.total_weight(), h.workload(), "unit={unit}");
        }
    }

    #[test]
    fn refined_units_are_heavier() {
        let h = hierarchy();
        let g = composite_unit_weights(&h, 2);
        // Unit at base cells [4..5]^2 sits under the level-1 patch
        // ([8..15]^2 fine = [4..7]^2 base).
        let heavy = g.weight([2, 2]);
        let light = g.weight([0, 0]);
        assert_eq!(light, 4); // bare base cells
        assert!(heavy > light);
        // Unit under both level 1 and level 2: base cells [5..5]... level 2
        // box [20..27]^2 coarsens to base [5..6]^2.
        let heaviest = g.weight([2, 2]).max(g.weight([3, 3]));
        assert!(heaviest >= 4 + 2 * 16);
    }

    #[test]
    fn unit_rect_clips_at_domain_edge() {
        let h = GridHierarchy::base_only(Rect2::from_extents(10, 10), 2);
        let g = composite_unit_weights(&h, 4);
        assert_eq!(g.dims, [3, 3]);
        assert_eq!(g.unit_rect(&h.base_domain, [2, 2]), r(8, 8, 9, 9));
        assert_eq!(g.total_weight(), 100);
    }

    #[test]
    fn sfc_order_is_a_permutation() {
        let h = hierarchy();
        let g = composite_unit_weights(&h, 2);
        for curve in [SfcCurve::Morton, SfcCurve::Hilbert] {
            for full in [false, true] {
                let ord = sfc_order(&g, curve, full);
                assert_eq!(ord.len(), g.weights.len());
                let mut seen = std::collections::HashSet::new();
                for &u in &ord {
                    assert!(seen.insert(u));
                    assert!(u[0] < g.dims[0] && u[1] < g.dims[1]);
                }
            }
        }
    }

    #[test]
    fn full_hilbert_order_has_unit_steps() {
        let h = GridHierarchy::base_only(Rect2::from_extents(16, 16), 2);
        let g = composite_unit_weights(&h, 2); // 8x8 units
        let ord = sfc_order(&g, SfcCurve::Hilbert, true);
        for w in ord.windows(2) {
            let d = (w[1][0] - w[0][0]).abs() + (w[1][1] - w[0][1]).abs();
            assert_eq!(d, 1);
        }
    }

    #[test]
    fn split_balances_uniform_weights() {
        let h = GridHierarchy::base_only(Rect2::from_extents(16, 16), 2);
        let g = composite_unit_weights(&h, 2);
        let ord = sfc_order(&g, SfcCurve::Morton, true);
        let owners = split_contiguous(&g, &ord, 4);
        let mut loads = [0u64; 4];
        for (i, &u) in ord.iter().enumerate() {
            loads[owners[i] as usize] += g.weight(u);
        }
        let max = *loads.iter().max().unwrap() as f64;
        let avg = loads.iter().sum::<u64>() as f64 / 4.0;
        assert!(max / avg < 1.05, "{loads:?}");
        // Owners are monotone along the curve (contiguous chunks).
        assert!(owners.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn split_single_proc_owns_all() {
        let h = hierarchy();
        let g = composite_unit_weights(&h, 4);
        let ord = sfc_order(&g, SfcCurve::Hilbert, false);
        let owners = split_contiguous(&g, &ord, 1);
        assert!(owners.iter().all(|&o| o == 0));
    }

    #[test]
    fn three_d_weights_sum_and_hilbert_steps() {
        let h = GridHierarchy::from_level_rects(
            Box3::from_extents(16, 16, 16),
            2,
            &[vec![], vec![Box3::from_coords(8, 8, 8, 23, 23, 23)]],
        );
        for unit in [1, 2, 4] {
            let g = composite_unit_weights(&h, unit);
            assert_eq!(g.total_weight(), h.workload(), "unit={unit}");
        }
        let g = composite_unit_weights(&h, 2); // 8x8x8 units
        let ord = sfc_order(&g, SfcCurve::Hilbert, true);
        assert_eq!(ord.len(), 512);
        for w in ord.windows(2) {
            let d = (0..3).map(|i| (w[1][i] - w[0][i]).abs()).sum::<i64>();
            assert_eq!(d, 1, "3-D Hilbert order must step to face neighbours");
        }
        let owners = split_contiguous(&g, &ord, 5);
        assert!(owners.windows(2).all(|w| w[0] <= w[1]));
    }
}
