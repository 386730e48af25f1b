//! TP2D: the 2-D transport benchmark kernel.
//!
//! The paper's TP2D is "a simple benchmark kernel that solves the
//! transport equation in 2D and is part of the GrACE distribution". We
//! solve `u_t + a·∇u = 0` on the unit square with a *differentially*
//! rotating velocity field `a = ω(r)(−(y−½), (x−½))`,
//! `ω(r) = ω₀/(r₀ + r)`: two Gaussian tracers seeded at different radii
//! revolve at different angular rates and shear into spiral filaments, so
//! the refinement pattern never repeats — reproducing the "seemingly
//! random data migration and communication dynamics" the paper reports
//! for TP2D (§5.2, Figure 7).
//!
//! Discretization: first-order upwind (donor cell) on the advective form,
//! which obeys a discrete maximum principle under the CFL condition used
//! here.

use crate::kernel::{geometric_threshold, Kernel};
use crate::numerics;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use samr_geom::{Grid2, Rect2};

/// Differentially-rotating transport kernel (see module docs).
pub struct Tp2d {
    u: Grid2<f64>,
    u_next: Grid2<f64>,
    vx: Grid2<f64>,
    vy: Grid2<f64>,
    indicator: Grid2<f64>,
    scratch: Grid2<f64>,
    n: i64,
    dt: f64,
    substeps: u32,
    time: f64,
}

/// Angular-velocity scale ω₀ (also the maximum linear speed bound).
const OMEGA0: f64 = 1.0;
/// Softening radius of the differential rotation profile.
const R0: f64 = 0.15;
/// Total simulated time when run for `steps` coarse steps.
const T_FINAL: f64 = 8.0;
/// CFL number of the upwind scheme (`|vx|+|vy|` bound keeps it < 1).
const CFL: f64 = 0.4;

impl Tp2d {
    /// Create the kernel on an `n x n` reference grid, sized for `steps`
    /// coarse steps. `seed` randomizes the initial tracer phases.
    pub fn new(n: i64, steps: u32, seed: u64) -> Self {
        assert!(n >= 8 && steps >= 1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7097_2d00);
        let phase1: f64 = rng.random_range(0.0..std::f64::consts::TAU);
        let phase2: f64 = rng.random_range(0.0..std::f64::consts::TAU);
        let dx = 1.0 / n as f64;

        // Two tracers at different radii of the differential rotation.
        let blob = |u: f64, v: f64, cx: f64, cy: f64, sigma: f64| -> f64 {
            let d2 = (u - cx).powi(2) + (v - cy).powi(2);
            (-d2 / (sigma * sigma)).exp()
        };
        let (r1, r2) = (0.18, 0.33);
        let c1 = (0.5 + r1 * phase1.cos(), 0.5 + r1 * phase1.sin());
        let c2 = (0.5 + r2 * phase2.cos(), 0.5 + r2 * phase2.sin());

        let domain = Rect2::from_extents(n, n);
        let u_field = Grid2::from_fn(domain, |p| {
            let ux = (p.x as f64 + 0.5) * dx;
            let uy = (p.y as f64 + 0.5) * dx;
            blob(ux, uy, c1.0, c1.1, 0.045) + 0.8 * blob(ux, uy, c2.0, c2.1, 0.05)
        });

        // Velocity field, cell-centered, precomputed (time-independent).
        let vx = Grid2::from_fn(domain, |p| {
            let (ux, uy) = ((p.x as f64 + 0.5) * dx - 0.5, (p.y as f64 + 0.5) * dx - 0.5);
            let r = (ux * ux + uy * uy).sqrt();
            -OMEGA0 / (R0 + r) * uy
        });
        let vy = Grid2::from_fn(domain, |p| {
            let (ux, uy) = ((p.x as f64 + 0.5) * dx - 0.5, (p.y as f64 + 0.5) * dx - 0.5);
            let r = (ux * ux + uy * uy).sqrt();
            OMEGA0 / (R0 + r) * ux
        });

        // |v| <= OMEGA0 * r/(R0+r) < OMEGA0, so a fixed dt is CFL-safe.
        let coarse_dt = T_FINAL / steps as f64;
        let dt_max = CFL * dx / (2.0 * OMEGA0);
        let substeps = (coarse_dt / dt_max).ceil().max(1.0) as u32;
        let dt = coarse_dt / substeps as f64;

        let mut k = Self {
            u_next: u_field.clone(),
            scratch: u_field.clone(),
            indicator: numerics::zeros(n, n),
            u: u_field,
            vx,
            vy,
            n,
            dt,
            substeps,
            time: 0.0,
        };
        k.refresh_indicator();
        k
    }

    fn refresh_indicator(&mut self) {
        numerics::gradient_magnitude(&self.u, &mut self.scratch);
        std::mem::swap(&mut self.indicator, &mut self.scratch);
        numerics::normalize_max(&mut self.indicator);
    }

    /// Solution field (for tests and demos).
    pub fn solution(&self) -> &Grid2<f64> {
        &self.u
    }

    /// Substeps taken per coarse step.
    pub fn substeps(&self) -> u32 {
        self.substeps
    }
}

/// One donor-cell substep from `u` into `out` with `lam = dt/dx`, one
/// row at a time: each cell reads its upwind neighbour along x and y
/// from the row slices, with edge cells clamped to themselves
/// (zero-gradient outflow).
fn upwind_substep(
    u: &Grid2<f64>,
    vx: &Grid2<f64>,
    vy: &Grid2<f64>,
    out: &mut Grid2<f64>,
    lam: f64,
) {
    let d = u.domain();
    let nx = d.extent().x as usize;
    for y in d.lo().y..=d.hi().y {
        let row = u.row(y);
        let down = u.row((y - 1).max(d.lo().y));
        let up = u.row((y + 1).min(d.hi().y));
        let (a_row, b_row) = (vx.row(y), vy.row(y));
        let row_out = out.row_mut(y);
        for i in 0..nx {
            let uc = row[i];
            let a = a_row[i];
            let b = b_row[i];
            let dudx = if a >= 0.0 {
                uc - row[i.saturating_sub(1)]
            } else {
                row[(i + 1).min(nx - 1)] - uc
            };
            let dudy = if b >= 0.0 { uc - down[i] } else { up[i] - uc };
            row_out[i] = uc - lam * (a * dudx + b * dudy);
        }
    }
}

impl Kernel for Tp2d {
    fn name(&self) -> &'static str {
        "TP2D"
    }

    fn description(&self) -> String {
        format!(
            "2-D transport benchmark: two tracers in a differentially rotating flow, {}x{} reference grid",
            self.n, self.n
        )
    }

    fn advance_coarse_step(&mut self) {
        let dx = 1.0 / self.n as f64;
        let lam = self.dt / dx;
        for _ in 0..self.substeps {
            upwind_substep(&self.u, &self.vx, &self.vy, &mut self.u_next, lam);
            std::mem::swap(&mut self.u, &mut self.u_next);
            self.time += self.dt;
        }
        self.refresh_indicator();
    }

    fn time(&self) -> f64 {
        self.time
    }

    fn indicator_field(&self) -> &Grid2<f64> {
        &self.indicator
    }

    fn threshold(&self, level: usize) -> f64 {
        geometric_threshold(0.12, 1.7, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::oracle::{assert_matches_reference, Oracle};
    use crate::numerics::clamped;
    use samr_geom::Point2;

    fn kernel() -> Tp2d {
        Tp2d::new(48, 20, 7)
    }

    /// The per-cell stencil the row sweep replaced: every neighbour read
    /// through a clamped point lookup.
    impl Oracle for Tp2d {
        fn build(n: i64, steps: u32, seed: u64) -> Self {
            Tp2d::new(n, steps, seed)
        }

        fn reference_step(&mut self) {
            let dx = 1.0 / self.n as f64;
            let lam = self.dt / dx;
            for _ in 0..self.substeps {
                let (u, vx, vy) = (&self.u, &self.vx, &self.vy);
                self.u_next = Grid2::from_fn(u.domain(), |p| {
                    let (x, y) = (p.x, p.y);
                    let uc = clamped(u, x, y);
                    let a = clamped(vx, x, y);
                    let b = clamped(vy, x, y);
                    let dudx = if a >= 0.0 {
                        uc - clamped(u, x - 1, y)
                    } else {
                        clamped(u, x + 1, y) - uc
                    };
                    let dudy = if b >= 0.0 {
                        uc - clamped(u, x, y - 1)
                    } else {
                        clamped(u, x, y + 1) - uc
                    };
                    uc - lam * (a * dudx + b * dudy)
                });
                std::mem::swap(&mut self.u, &mut self.u_next);
                self.time += self.dt;
            }
            self.refresh_indicator();
        }

        fn fields(&self) -> Vec<&Grid2<f64>> {
            vec![&self.u, &self.indicator]
        }
    }

    #[test]
    fn sweep_matches_the_per_cell_stencil_bit_for_bit() {
        // Few coarse steps cover the whole rotation, so the tracers
        // cross the clamped edges. 8 is the smallest grid, 13 odd.
        for (n, steps, seed) in [(8, 3, 2004), (13, 4, 9923), (13, 2, 7)] {
            assert_matches_reference::<Tp2d>(n, steps, seed);
        }
    }

    #[test]
    fn maximum_principle_holds() {
        let mut k = kernel();
        let (min0, max0) = (
            k.u.data().iter().cloned().fold(f64::MAX, f64::min),
            k.u.data().iter().cloned().fold(f64::MIN, f64::max),
        );
        for _ in 0..3 {
            k.advance_coarse_step();
        }
        for &v in k.u.data() {
            assert!(v >= min0 - 1e-12 && v <= max0 + 1e-12, "value {v} escapes");
        }
    }

    #[test]
    fn tracer_moves() {
        let mut k = kernel();
        let before = k.u.clone();
        for _ in 0..2 {
            k.advance_coarse_step();
        }
        // Center of mass must have rotated: fields differ substantially.
        let diff: f64 = before
            .data()
            .iter()
            .zip(k.u.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1.0, "solution barely changed: {diff}");
    }

    #[test]
    fn indicator_normalized_and_nonempty() {
        let mut k = kernel();
        k.advance_coarse_step();
        let ind = k.indicator_field();
        assert!(ind.max_abs() <= 1.0 + 1e-12);
        assert!(ind.max_abs() > 0.99); // normalized to exactly 1 somewhere
        assert!(k.sampler()([0.5, 0.5]) >= 0.0);
    }

    #[test]
    fn time_advances_by_coarse_dt() {
        let mut k = Tp2d::new(48, 20, 3);
        k.advance_coarse_step();
        assert!((k.time() - T_FINAL / 20.0).abs() < 1e-9);
    }

    #[test]
    fn velocity_is_rotational() {
        let k = kernel();
        // v·r = 0: velocity is perpendicular to the radius vector.
        let p = Point2::new(10, 30);
        let dx = 1.0 / 48.0;
        let (ux, uy) = ((10.0 + 0.5) * dx - 0.5, (30.0 + 0.5) * dx - 0.5);
        let dot = k.vx.get(p) * ux + k.vy.get(p) * uy;
        assert!(dot.abs() < 1e-12);
    }

    #[test]
    fn seeds_change_initial_condition() {
        let a = Tp2d::new(48, 20, 1);
        let b = Tp2d::new(48, 20, 2);
        assert_ne!(a.u.data(), b.u.data());
        // Same seed reproduces exactly.
        let c = Tp2d::new(48, 20, 1);
        assert_eq!(a.u.data(), c.u.data());
    }

    #[test]
    fn thresholds_tighten_with_level() {
        let k = kernel();
        assert!(k.threshold(1) > k.threshold(0));
        assert!(k.threshold(4) <= 0.95);
    }
}
