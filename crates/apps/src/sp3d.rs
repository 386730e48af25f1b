//! SP3D — advecting-sphere 3-D workload (the 3-D analogue of the 2-D
//! transport kernels).
//!
//! The paper's four applications are 2-D, but its model is
//! dimension-agnostic; SP3D opens the 3-D axis of the campaign space with
//! the canonical 3-D SAMR benchmark feature: a thin spherical shell
//! (an advected front) orbiting the unit cube on a closed Lissajous path.
//! The indicator is analytic — no reference PDE solve is needed to
//! exercise the 3-D clustering, nesting, partitioning and simulation
//! paths — yet it produces exactly the trace phenomenology the model
//! cares about: a moving, curvature-rich refined region whose volume
//! oscillates as the shell approaches and leaves the domain walls.

/// The advecting-sphere scenario parameters (all in unit-cube
/// coordinates). Fully determined by `(steps, seed)`, so the trace
/// configuration alone reproduces the scenario — the struct itself never
/// needs to ride in artifacts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sp3d {
    /// Shell radius.
    pub radius: f64,
    /// Shell half-thickness (Gaussian width of the indicator).
    pub width: f64,
    /// Orbit angular frequencies per axis (Lissajous path).
    pub freq: [f64; 3],
    /// Orbit phase offsets per axis (seed-derived).
    pub phase: [f64; 3],
    /// Orbit amplitude (kept < 0.5 - radius so the shell stays inside).
    pub amplitude: f64,
    /// Time advanced per coarse step.
    pub dt: f64,
    /// Current physical time.
    pub time: f64,
}

impl Sp3d {
    /// Build the scenario; `steps` fixes `dt` so one full orbit fits the
    /// run, `seed` perturbs the path phases for distinct-but-reproducible
    /// scenarios.
    pub fn new(steps: u32, seed: u64) -> Self {
        // SplitMix64 over the seed: three phases in [0, 2π).
        let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            let mut z = state;
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        };
        let tau = std::f64::consts::TAU;
        Self {
            radius: 0.22,
            width: 0.035,
            freq: [1.0, 2.0, 3.0],
            phase: [tau * next(), tau * next(), tau * next()],
            amplitude: 0.2,
            dt: 1.0 / steps.max(1) as f64,
            time: 0.0,
        }
    }

    /// One-line description of the scenario.
    pub fn description(&self) -> String {
        format!(
            "advecting spherical shell (r={:.2}, w={:.3}) on a Lissajous orbit in the unit cube",
            self.radius, self.width
        )
    }

    /// Center of the sphere at the current time.
    pub fn center(&self) -> [f64; 3] {
        let tau = std::f64::consts::TAU;
        std::array::from_fn(|i| {
            0.5 + self.amplitude * (tau * self.freq[i] * self.time + self.phase[i]).sin()
        })
    }

    /// Normalized feature indicator at unit-cube coordinates: 1 on the
    /// shell surface, decaying as a Gaussian of the signed distance to
    /// it.
    pub fn indicator(&self, p: [f64; 3]) -> f64 {
        self.indicator_around(self.center(), p)
    }

    /// [`Sp3d::indicator`] for a shell at `c`, the [`Sp3d::center`] of
    /// the current time: a regrid samples many cells at one time, so it
    /// computes the center once.
    pub(crate) fn indicator_around(&self, c: [f64; 3], p: [f64; 3]) -> f64 {
        let d2: f64 = (0..3).map(|i| (p[i] - c[i]) * (p[i] - c[i])).sum();
        let signed = d2.sqrt() - self.radius;
        (-(signed / self.width) * (signed / self.width)).exp()
    }

    /// Flagging threshold for refinement level `level`: deeper levels
    /// refine a progressively narrower band around the shell.
    pub fn threshold(&self, level: usize) -> f64 {
        crate::kernel::geometric_threshold(0.12, 1.9, level)
    }

    /// Advance one coarse time step.
    pub fn advance_coarse_step(&mut self) {
        self.time += self.dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indicator_peaks_on_the_shell() {
        let s = Sp3d::new(10, 7);
        let c = s.center();
        let on_shell = [c[0] + s.radius, c[1], c[2]];
        let far = [0.02, 0.02, 0.02];
        assert!(s.indicator(on_shell) > 0.99);
        assert!(s.indicator(far) < s.indicator(on_shell));
        assert!(s.indicator(c) < 1e-6, "center is far from the shell");
    }

    #[test]
    fn orbit_stays_inside_the_unit_cube() {
        let mut s = Sp3d::new(50, 123);
        for _ in 0..50 {
            let c = s.center();
            for i in 0..3 {
                assert!(c[i] - s.radius > 0.0 && c[i] + s.radius < 1.0, "{c:?}");
            }
            s.advance_coarse_step();
        }
    }

    #[test]
    fn seeds_change_the_path_deterministically() {
        let a = Sp3d::new(10, 1);
        let b = Sp3d::new(10, 2);
        let a2 = Sp3d::new(10, 1);
        assert_ne!(a.phase, b.phase);
        assert_eq!(a.phase, a2.phase);
    }

    #[test]
    fn thresholds_tighten_with_depth() {
        let s = Sp3d::new(10, 0);
        assert!(s.threshold(1) > s.threshold(0));
        assert!(s.threshold(4) <= 0.95);
    }
}
