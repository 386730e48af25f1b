//! Trade-off 3: the data-migration penalty β_m (§4.4).
//!
//! > "By intersecting the boxes in the hierarchy at time-step t−1 with
//! > those at time-step t, we get an indication of how much the grid has
//! > changed during this time-step. […] Then, the data migration penalty
//! >
//! >   β_m(H_{t-1}, H_t) = 1 − (1/|H_t|) Σ_l Σ_i Σ_j |G_{t-1}^{l,i} ∩ G_t^{l,j}|
//! >
//! > where the operator ∩ denotes grid intersection."
//!
//! A large same-level overlap means little change (small penalty); a small
//! overlap means the hierarchy was rebuilt elsewhere and data will have to
//! move. The penalty is **absolute**: each consecutive pair maps onto
//! `[0, 1]` independently of any other step (unlike ArMADA's relative
//! classification), and it is comparable to the grid-relative migration
//! metric of §4.1 by construction.

use samr_grid::GridHierarchy;
use serde::{Deserialize, Serialize};

/// Which hierarchy size normalizes the overlap sum.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum BetaMDenominator {
    /// `|H_t|`, the paper's choice: when the grid grows
    /// (`|H_{t-1}| < |H_t|`) most of the small grid is expected to move,
    /// and dividing by the larger `|H_t|` yields the larger penalty;
    /// when it shrinks, most of the large grid is simply deleted, and
    /// `|H_t|` again gives the right (smaller) scale.
    Current,
    /// `|H_{t-1}|` — the alternative the paper argues against; kept for
    /// the ablation experiment (ABL1 in `examples/ablations.rs`).
    Previous,
}

/// Total same-level box overlap between two hierarchies:
/// `Σ_l Σ_i Σ_j |G_{t-1}^{l,i} ∩ G_t^{l,j}|` in grid points.
pub fn hierarchy_overlap<const D: usize>(prev: &GridHierarchy<D>, cur: &GridHierarchy<D>) -> u64 {
    assert_eq!(
        prev.ratio, cur.ratio,
        "hierarchies must share the refinement factor"
    );
    let mut sum = 0u64;
    for l in 0..prev.levels.len().min(cur.levels.len()) {
        for gp in &prev.levels[l].patches {
            for gc in &cur.levels[l].patches {
                sum += gp.rect.overlap_cells(&gc.rect);
            }
        }
    }
    sum
}

/// The paper's data-migration penalty `β_m(H_{t-1}, H_t) ∈ [0, 1]` with
/// the paper's `|H_t|` denominator.
pub fn beta_m<const D: usize>(prev: &GridHierarchy<D>, cur: &GridHierarchy<D>) -> f64 {
    beta_m_with(prev, cur, BetaMDenominator::Current)
}

/// β_m with an explicit denominator choice (for the ablation).
pub fn beta_m_with<const D: usize>(
    prev: &GridHierarchy<D>,
    cur: &GridHierarchy<D>,
    denom: BetaMDenominator,
) -> f64 {
    let overlap = hierarchy_overlap(prev, cur) as f64;
    let d = match denom {
        BetaMDenominator::Current => cur.total_points(),
        BetaMDenominator::Previous => prev.total_points(),
    }
    .max(1) as f64;
    (1.0 - overlap / d).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::Rect2;

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    fn h(levels: &[Vec<Rect2>]) -> GridHierarchy<2> {
        GridHierarchy::from_level_rects(Rect2::from_extents(16, 16), 2, levels)
    }

    #[test]
    fn identical_hierarchies_zero_penalty() {
        let a = h(&[vec![], vec![r(4, 4, 11, 11)]]);
        assert_eq!(beta_m(&a, &a.clone()), 0.0);
    }

    #[test]
    fn disjoint_refinement_maximal_penalty_on_refined_part() {
        // Same sizes, completely relocated refinement: overlap only on the
        // static base grid.
        let a = h(&[vec![], vec![r(0, 0, 7, 7)]]);
        let b = h(&[vec![], vec![r(24, 24, 31, 31)]]);
        // |H_t| = 256 + 64; overlap = 256 (base only).
        let expected = 1.0 - 256.0 / 320.0;
        assert!((beta_m(&a, &b) - expected).abs() < 1e-12);
    }

    #[test]
    fn growth_uses_larger_denominator() {
        // Small grid grows: paper says expect most of the small grid to
        // move => penalty should be large. With |H_t| in the denominator
        // the non-overlapped new mass raises the penalty.
        let small = h(&[vec![], vec![r(0, 0, 7, 7)]]);
        let large = h(&[vec![], vec![r(0, 0, 23, 23)]]);
        let grow = beta_m(&small, &large);
        let grow_prev_denom = beta_m_with(&small, &large, BetaMDenominator::Previous);
        assert!(grow > 0.0);
        // The ablation denominator underestimates growth-induced movement.
        assert!(grow > grow_prev_denom - 1e-12);
    }

    #[test]
    fn shrink_uses_smaller_denominator() {
        // Large grid shrinks onto a sub-box: the surviving grid fully
        // overlaps the old one => little must move. |H_t| (small) in the
        // denominator keeps the penalty at 0; |H_{t-1}| would overstate.
        let large = h(&[vec![], vec![r(0, 0, 23, 23)]]);
        let small = h(&[vec![], vec![r(0, 0, 7, 7)]]);
        let shrink = beta_m(&large, &small);
        assert_eq!(shrink, 0.0);
        let shrink_prev = beta_m_with(&large, &small, BetaMDenominator::Previous);
        assert!(shrink_prev > shrink);
    }

    #[test]
    fn partial_move_is_between_extremes() {
        let a = h(&[vec![], vec![r(0, 0, 15, 15)]]);
        let b = h(&[vec![], vec![r(8, 0, 23, 15)]]);
        let v = beta_m(&a, &b);
        // Overlap: base 256 + refined overlap 8x16=128 of 256.
        let expected = 1.0 - (256.0 + 128.0) / (256.0 + 256.0);
        assert!((v - expected).abs() < 1e-12);
        assert!(v > 0.0 && v < 1.0);
    }

    #[test]
    fn deep_levels_participate() {
        let a = h(&[vec![], vec![r(0, 0, 15, 15)], vec![r(0, 0, 15, 15)]]);
        let b = h(&[vec![], vec![r(0, 0, 15, 15)], vec![r(16, 16, 31, 31)]]);
        // Level 2 moved entirely; levels 0,1 static.
        let overlap = 256.0 + 256.0;
        let total = 256.0 + 256.0 + 256.0;
        assert!((beta_m(&a, &b) - (1.0 - overlap / total)).abs() < 1e-12);
    }

    #[test]
    fn penalty_is_clamped() {
        // Penalty can never leave [0,1] even for pathological inputs.
        let a = h(&[vec![]]);
        let b = h(&[vec![], vec![r(0, 0, 31, 31)]]);
        let v = beta_m(&a, &b);
        assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn overlap_is_symmetric() {
        let a = h(&[vec![], vec![r(0, 0, 15, 15)]]);
        let b = h(&[vec![], vec![r(8, 8, 23, 23)]]);
        assert_eq!(hierarchy_overlap(&a, &b), hierarchy_overlap(&b, &a));
    }

    #[test]
    #[should_panic(expected = "refinement factor")]
    fn mismatched_ratio_panics() {
        let a = GridHierarchy::base_only(Rect2::from_extents(8, 8), 2);
        let b = GridHierarchy::base_only(Rect2::from_extents(8, 8), 4);
        let _ = hierarchy_overlap(&a, &b);
    }
}
