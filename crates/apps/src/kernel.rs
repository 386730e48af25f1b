//! The application-kernel interface consumed by the trace generator.

use samr_geom::Grid2;

use crate::numerics;

/// A reference PDE solver driving SAMR adaptation.
///
/// A kernel advances its own uniform reference solution (at a resolution
/// chosen at construction) and exposes a *normalized feature indicator*
/// over the unit square: the trace generator samples the indicator at each
/// refinement level's cell centers and flags cells where it exceeds the
/// level's threshold. This mirrors the paper's trace methodology: the
/// hierarchy sequence depends on the application physics only, never on
/// the partitioning.
pub trait Kernel {
    /// Short kernel name as used in the paper ("TP2D", "BL2D", …).
    fn name(&self) -> &'static str;

    /// One-line description of the scenario.
    fn description(&self) -> String;

    /// Advance the reference solution by one coarse time step and refresh
    /// the indicator field.
    fn advance_coarse_step(&mut self);

    /// Current physical time.
    fn time(&self) -> f64;

    /// The indicator field over the reference grid, normalized to `[0,1]`.
    fn indicator_field(&self) -> &Grid2<f64>;

    /// Feature indicator at unit-square coordinates (bilinear sample of
    /// [`Kernel::indicator_field`]).
    fn indicator(&self, u: f64, v: f64) -> f64 {
        numerics::sample_unit(self.indicator_field(), u, v)
    }

    /// Flagging threshold for refinement level `level` (flag a level-
    /// `level` cell when the indicator at its center exceeds this).
    /// Thresholds must be non-decreasing in `level` so that deeper levels
    /// refine progressively narrower bands around the strongest features.
    fn threshold(&self, level: usize) -> f64;

    /// Aspect ratio hint `(wx, wy)`: relative extents of the physical
    /// domain. The trace generator uses it to pick a base grid of matching
    /// shape (RM2D runs in a 2:1 shock tube; the others are square).
    fn aspect(&self) -> (i64, i64) {
        (1, 1)
    }
}

/// Exponentially tightening per-level thresholds: `base * ratio^level`,
/// clamped to 0.95. The common choice for all four kernels; each picks its
/// own `base` and `ratio`.
pub fn geometric_threshold(base: f64, growth: f64, level: usize) -> f64 {
    (base * growth.powi(level as i32)).min(0.95)
}

/// Bit-identity oracles for the reference kernels' face-flux sweeps.
///
/// Each 2-D kernel keeps the per-cell stencil its sweep replaced as a
/// test-only reference step. The sweep must reproduce it bit for bit:
/// same operands, same evaluation order, every field after every step.
#[cfg(test)]
pub(crate) mod oracle {
    use super::Kernel;
    use samr_geom::Grid2;

    /// A kernel with a per-cell reference step to check its sweep against.
    pub(crate) trait Oracle: Kernel + Sized {
        /// The kernel's constructor (`n` along the shorter axis).
        fn build(n: i64, steps: u32, seed: u64) -> Self;
        /// One coarse step through the per-cell stencil.
        fn reference_step(&mut self);
        /// Every field the step evolves, the indicator last.
        fn fields(&self) -> Vec<&Grid2<f64>>;
    }

    /// Run two copies of `K` in lock step, one through its sweep and
    /// one through its reference, and assert that every field and the
    /// clock agree bit for bit after each coarse step.
    pub(crate) fn assert_matches_reference<K: Oracle>(n: i64, steps: u32, seed: u64) {
        let what = format!("n={n} seed={seed}");
        assert_lockstep(
            K::build(n, steps, seed),
            K::build(n, steps, seed),
            steps,
            &what,
        );
    }

    /// [`assert_matches_reference`] from two equal kernels built by the
    /// caller, e.g. with a scrambled starting field.
    pub(crate) fn assert_lockstep<K: Oracle>(
        mut sweep: K,
        mut reference: K,
        steps: u32,
        what: &str,
    ) {
        let bits = |g: &Grid2<f64>| -> Vec<u64> { g.data().iter().map(|v| v.to_bits()).collect() };
        for step in 1..=steps {
            sweep.advance_coarse_step();
            reference.reference_step();
            let name = sweep.name();
            assert_eq!(sweep.time().to_bits(), reference.time().to_bits());
            for (field, (a, b)) in sweep
                .fields()
                .into_iter()
                .zip(reference.fields())
                .enumerate()
            {
                assert!(
                    bits(a) == bits(b),
                    "{name} {what}: field {field} differs after step {step}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::assert_matches_reference;
    use super::*;
    use crate::{bl2d::Bl2d, rm2d::Rm2d, sc2d::Sc2d, tp2d::Tp2d};

    #[test]
    #[ignore = "bench scale, seconds in release: cargo test --release -p samr-apps -- --ignored"]
    fn every_sweep_matches_its_reference_at_bench_scale() {
        // The `paper` benchmark's kernels: 74 cells along the shorter
        // axis (RM2D 148x74), 6 coarse steps.
        for seed in [2004, 911] {
            assert_matches_reference::<Rm2d>(74, 6, seed);
            assert_matches_reference::<Tp2d>(74, 6, seed);
            assert_matches_reference::<Bl2d>(74, 6, seed);
            assert_matches_reference::<Sc2d>(74, 6, seed);
        }
    }

    #[test]
    fn geometric_threshold_grows_and_clamps() {
        let t0 = geometric_threshold(0.1, 1.8, 0);
        let t1 = geometric_threshold(0.1, 1.8, 1);
        let t5 = geometric_threshold(0.1, 1.8, 5);
        assert!((t0 - 0.1).abs() < 1e-12);
        assert!(t1 > t0);
        assert!(t5 <= 0.95);
        assert_eq!(geometric_threshold(0.9, 3.0, 4), 0.95);
    }
}
