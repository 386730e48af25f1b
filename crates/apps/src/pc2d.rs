//! PC2D: a synthetic two-regime "phase change" workload.
//!
//! The paper's four kernels adapt gradually, so a partitioner chosen up
//! front stays adequate for the whole run. PC2D is the adversarial
//! complement built for the adaptive repartitioning policy
//! (`samr_meta::AdaptivePolicy`): the character of the workload flips
//! mid-run.
//!
//! - **Spread regime** (first half): a broad plateau covering most of
//!   the domain refines exactly one level. The load is spatially smooth,
//!   so a domain-based SFC cut balances it with minimal communication —
//!   the regime where local partitioners win.
//! - **Singular regime** (second half): the plateau collapses into a
//!   point feature in the domain corner whose indicator exceeds every
//!   level threshold, producing a deeply nested subtree over a couple of
//!   base cells. Any domain-based cut must hand that whole subtree to
//!   one processor (a single coarse cell's column cannot be split), so
//!   load imbalance jumps; only per-level (patch-based) balancing can
//!   spread the fine levels.
//!
//! The flip makes every *static* assignment wrong for half the run:
//! domain-based loses the second half, patch-based pays communication
//! and migration for the first. A policy that switches partitioners when
//! the observed imbalance crosses its hysteresis thresholds beats both —
//! which is exactly what the facade's `meta_integration` test asserts,
//! and what the `adaptive` workload of the end-to-end benchmark times.
//!
//! The kernel is analytic (no reference PDE): the indicator is a pure
//! function of the step counter, evaluated exactly at every sample point
//! so the regime boundary never blurs through bilinear resampling.

use crate::kernel::{geometric_threshold, Kernel, Sampler};
use crate::numerics;
use samr_geom::Grid2;

/// Indicator value on the spread-regime plateau: above the level-0
/// threshold, below every deeper one — one level of refinement.
const SPREAD_VALUE: f64 = 0.4;
/// Indicator value inside the singularity: above every level threshold,
/// so the corner refines to the configured depth.
const SINGULAR_VALUE: f64 = 0.96;
/// Half-width of the corner singularity in unit coordinates (two base
/// cells of a 32-cell grid).
const SINGULAR_SIDE: f64 = 0.0625;
/// Smallest spread-plateau side length in unit coordinates.
const SPREAD_SIDE: f64 = 0.75;
/// Per-step wobble of the plateau side, so the spread regime carries a
/// migration signal instead of freezing the hierarchy.
const SPREAD_WOBBLE: f64 = 0.03;

/// Two-regime phase-change kernel (see module docs).
pub struct Pc2d {
    indicator: Grid2<f64>,
    n: i64,
    steps: u32,
    step: u32,
    /// Seed-derived phase offset of the spread-regime wobble.
    phase: u32,
}

impl Pc2d {
    /// Create the kernel on an `n x n` reference grid for a `steps`-step
    /// run; `seed` shifts the phase of the spread-regime wobble.
    pub fn new(n: i64, steps: u32, seed: u64) -> Self {
        assert!(n >= 8 && steps >= 1);
        let mut k = Self {
            indicator: numerics::zeros(n, n),
            n,
            steps,
            step: 0,
            phase: (seed % 4) as u32,
        };
        k.refresh_indicator();
        k
    }

    /// The step at which the workload flips from spread to singular.
    fn flip_step(&self) -> u32 {
        self.steps / 2
    }

    fn refresh_indicator(&mut self) {
        let (step, flip, phase) = (self.step, self.flip_step(), self.phase);
        let dx = 1.0 / self.n as f64;
        self.indicator = Grid2::from_fn(self.indicator.domain(), |p| {
            indicator_for(
                step,
                flip,
                phase,
                (p.x as f64 + 0.5) * dx,
                (p.y as f64 + 0.5) * dx,
            )
        });
    }
}

/// The indicator as a pure function of the step counter: a wobbling
/// plateau before the flip, a saturated corner square after it.
fn indicator_for(step: u32, flip: u32, phase: u32, u: f64, v: f64) -> f64 {
    if step < flip {
        let side = SPREAD_SIDE + SPREAD_WOBBLE * f64::from((step + phase) % 4);
        if u < side && v < side {
            SPREAD_VALUE
        } else {
            0.0
        }
    } else if u < SINGULAR_SIDE && v < SINGULAR_SIDE {
        SINGULAR_VALUE
    } else {
        0.0
    }
}

impl Kernel for Pc2d {
    fn name(&self) -> &'static str {
        "PC2D"
    }

    fn description(&self) -> String {
        format!(
            "synthetic phase change: spread plateau collapsing to a corner point singularity at step {}, {}x{} reference grid",
            self.flip_step(),
            self.n,
            self.n
        )
    }

    fn advance_coarse_step(&mut self) {
        self.step += 1;
        self.refresh_indicator();
    }

    fn time(&self) -> f64 {
        f64::from(self.step)
    }

    fn indicator_field(&self) -> &Grid2<f64> {
        &self.indicator
    }

    fn sampler(&self) -> Sampler<2> {
        // Exact analytic sampling: a bilinear blend across the regime
        // edge would smear the singularity over neighbouring cells.
        let (step, flip, phase) = (self.step, self.flip_step(), self.phase);
        Box::new(move |[u, v]| indicator_for(step, flip, phase, u, v))
    }

    fn threshold(&self, level: usize) -> f64 {
        geometric_threshold(0.3, 1.6, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regimes_flip_at_half_run() {
        let mut k = Pc2d::new(48, 10, 0);
        // Spread: plateau on, corner at plateau value only.
        let spread = k.sampler();
        assert_eq!(spread([0.3, 0.3]), SPREAD_VALUE);
        assert_eq!(spread([0.01, 0.01]), SPREAD_VALUE);
        assert_eq!(spread([0.95, 0.95]), 0.0);
        for _ in 0..5 {
            k.advance_coarse_step();
        }
        // Singular: plateau gone, corner saturated. The earlier sampler
        // still reads its own step.
        let singular = k.sampler();
        assert_eq!(singular([0.3, 0.3]), 0.0);
        assert_eq!(singular([0.01, 0.01]), SINGULAR_VALUE);
        assert_eq!(spread([0.3, 0.3]), SPREAD_VALUE);
    }

    #[test]
    fn singularity_crosses_every_threshold_the_plateau_does_not() {
        let k = Pc2d::new(48, 4, 0);
        for level in 0..5 {
            assert!(SINGULAR_VALUE > k.threshold(level), "level {level}");
            if level >= 1 {
                assert!(SPREAD_VALUE < k.threshold(level), "level {level}");
            }
        }
        assert!(SPREAD_VALUE > k.threshold(0));
    }

    #[test]
    fn field_matches_the_analytic_indicator_at_cell_centers() {
        let k = Pc2d::new(48, 10, 3);
        let indicator = k.sampler();
        let dx = 1.0 / 48.0;
        for (x, y) in [(0i64, 0i64), (10, 10), (40, 40), (2, 45)] {
            let u = (x as f64 + 0.5) * dx;
            let v = (y as f64 + 0.5) * dx;
            assert_eq!(
                *k.indicator_field().get(samr_geom::Point2::new(x, y)),
                indicator([u, v])
            );
        }
    }
}
