//! The application-kernel interface consumed by the trace generator.

use samr_geom::Grid2;

use crate::numerics;

/// A feature indicator over unit coordinates that borrows nothing from
/// the application it came from: the trace generator regrids a step from
/// it on any pool worker while the application has moved on.
pub type Sampler<const D: usize> = Box<dyn Fn([f64; D]) -> f64 + Send + Sync>;

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

    /// The current step's feature indicator at unit-square coordinates
    /// `[u, v]`, owned: by default a bilinear sample of a copy of
    /// [`Kernel::indicator_field`].
    fn sampler(&self) -> Sampler<2> {
        let field = self.indicator_field().clone();
        Box::new(move |[u, v]| numerics::sample_unit(&field, u, v))
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
    use super::oracle::{assert_matches_reference, Oracle};
    use super::*;
    use crate::rm2d::tests::{on_tier, tiers};
    use crate::{bl2d::Bl2d, rm2d::Rm2d, sc2d::Sc2d, tp2d::Tp2d};
    use std::hint::black_box;
    use std::sync::{Mutex, PoisonError};
    use std::time::Instant;

    /// Held by each bench-scale test, so the speed ratios are timed
    /// with the other bench-scale test's kernels off the CPUs.
    static BENCH_SCALE: Mutex<()> = Mutex::new(());

    #[test]
    #[ignore = "bench scale, seconds in release: cargo test --release -p samr-apps -- --ignored"]
    fn every_sweep_matches_its_reference_at_bench_scale() {
        let _alone = BENCH_SCALE.lock().unwrap_or_else(PoisonError::into_inner);
        // The `paper` benchmark's kernels: 74 cells along the shorter
        // axis (RM2D 148x74), 6 coarse steps.
        for seed in [2004, 911] {
            crate::rm2d::tests::assert_every_tier_matches_reference(74, 6, seed);
            assert_matches_reference::<Tp2d>(74, 6, seed);
            assert_matches_reference::<Bl2d>(74, 6, seed);
            assert_matches_reference::<Sc2d>(74, 6, seed);
        }
    }

    /// The `p`-quantile of sorted `xs`, interpolated between neighbours.
    fn quantile(xs: &[f64], p: f64) -> f64 {
        let at = (xs.len() - 1) as f64 * p;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        xs[lo] + (xs[hi] - xs[lo]) * (at - lo as f64)
    }

    /// Seconds `step` takes on `k`.
    fn timed<K>(k: &mut K, step: fn(&mut K)) -> f64 {
        let start = Instant::now();
        step(black_box(k));
        start.elapsed().as_secs_f64()
    }

    /// Coarse steps of one bench-scale kernel.
    const STEPS: u32 = 6;
    /// Timed rounds per pair: three fresh kernel pairs of [`STEPS`]
    /// steps, at least the 15 rounds `tests/speedups.rs` times.
    const ROUNDS: usize = 18;

    /// Time `fast` against `slow` over [`ROUNDS`] rounds: each pair of
    /// freshly built bench-scale kernels (74 cells along the shorter
    /// axis, [`STEPS`] coarse steps) runs its steps in lock step, each
    /// round timing one coarse step of each, alternating which goes
    /// first, and yielding one `slow / fast` time ratio. Prints the
    /// median ratio with its quartiles; returns a failure when the
    /// median is below `floor`.
    fn speedup<K: Oracle>(
        pair: &str,
        floor: f64,
        (fast, fast_step): (impl Fn() -> K, fn(&mut K)),
        (slow, slow_step): (impl Fn() -> K, fn(&mut K)),
    ) -> Option<String> {
        let mut ratios: Vec<f64> = Vec::with_capacity(ROUNDS);
        while ratios.len() < ROUNDS {
            let (mut fast, mut slow) = (fast(), slow());
            for _ in 0..STEPS {
                ratios.push(if ratios.len().is_multiple_of(2) {
                    let f = timed(&mut fast, fast_step);
                    timed(&mut slow, slow_step) / f
                } else {
                    let s = timed(&mut slow, slow_step);
                    s / timed(&mut fast, fast_step)
                });
            }
            black_box((fast.fields(), slow.fields()));
        }
        ratios.sort_by(f64::total_cmp);
        let (q1, median, q3) = (
            quantile(&ratios, 0.25),
            quantile(&ratios, 0.5),
            quantile(&ratios, 0.75),
        );
        println!("{pair}: {median:.2} [{q1:.2}, {q3:.2}], floor {floor:.2}");
        (median < floor)
            .then(|| format!("{pair}: median {median:.2}x is below its floor {floor:.2}x"))
    }

    /// Each sweep against the per-cell stencil it replaced, and RM2D's
    /// AVX2 entry against its baseline entry, at the `paper`
    /// benchmark's size. A floor keeps half of the gain measured when
    /// it was set, `1 + (median - 1) / 2`, as the repository's
    /// `tests/speedups.rs` does; README.md has the measured medians.
    #[test]
    #[ignore = "times code: cargo test --release -p samr-apps -- --ignored --nocapture"]
    fn sweeps_beat_their_per_cell_references() {
        if cfg!(debug_assertions) {
            panic!("a speed ratio of unoptimized code means nothing; run it with --release");
        }
        let _alone = BENCH_SCALE.lock().unwrap_or_else(PoisonError::into_inner);
        fn pair<K: Oracle>(floor: f64) -> Option<String> {
            let build = || K::build(74, STEPS, 2004);
            let name = format!("{} sweep / per-cell reference", build().name());
            let (sweep, reference) = (K::advance_coarse_step, K::reference_step);
            speedup(&name, floor, (build, sweep), (build, reference))
        }
        let mut failures = vec![
            pair::<Tp2d>(2.83),
            pair::<Bl2d>(3.54),
            pair::<Sc2d>(4.08),
            pair::<Rm2d>(6.67),
        ];
        if tiers().contains(&true) {
            let entry = |avx2| {
                (
                    move || on_tier(Rm2d::build(74, STEPS, 2004), avx2),
                    Rm2d::advance_coarse_step as fn(&mut Rm2d),
                )
            };
            failures.push(speedup(
                "RM2D sweep AVX2 / baseline entry",
                1.14,
                entry(true),
                entry(false),
            ));
        }
        let failures: Vec<String> = failures.into_iter().flatten().collect();
        assert!(failures.is_empty(), "{}", failures.join("; "));
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
