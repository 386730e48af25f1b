//! SC2D: the scalar-wave / numerical-relativity kernel.
//!
//! The paper's Scalarwave (SC2D) kernel evolves the hyperbolic part of a
//! coupled numerical-relativity system and is part of the Cactus toolkit.
//! We solve the scalar wave equation `u_tt = c²Δu` on the unit square with
//! homogeneous Dirichlet walls using the standard leapfrog scheme. A
//! Gaussian pulse splits into an expanding ring that reflects off the
//! walls and periodically refocuses near the center — the refined region
//! expands and contracts with the ring, giving the strongly oscillatory
//! load-imbalance and communication dynamics the paper reports for SC2D
//! (Figure 6).

use crate::kernel::{geometric_threshold, Kernel};
use crate::numerics::{self, clamped};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use samr_geom::{Grid2, Point2, Rect2};

/// Leapfrog scalar-wave kernel (see module docs).
pub struct Sc2d {
    u: Grid2<f64>,
    u_prev: Grid2<f64>,
    u_next: Grid2<f64>,
    indicator: Grid2<f64>,
    scratch: Grid2<f64>,
    n: i64,
    dt: f64,
    substeps: u32,
    time: f64,
}

/// Wave speed.
const C: f64 = 1.0;
/// Total simulated time over a full run (several reflection cycles).
const T_FINAL: f64 = 4.0;
/// Courant number `c·dt/dx` (2-D leapfrog is stable below `1/√2`).
const COURANT: f64 = 0.45;

impl Sc2d {
    /// Create the kernel on an `n x n` reference grid sized for `steps`
    /// coarse steps; `seed` jitters the initial pulse position slightly.
    pub fn new(n: i64, steps: u32, seed: u64) -> Self {
        assert!(n >= 8 && steps >= 1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5c2d_0000);
        let cx: f64 = 0.5 + rng.random_range(-0.05..0.05);
        let cy: f64 = 0.5 + rng.random_range(-0.05..0.05);
        let dx = 1.0 / n as f64;

        let u = Grid2::from_fn(Rect2::from_extents(n, n), |p| {
            let (ux, uy) = ((p.x as f64 + 0.5) * dx, (p.y as f64 + 0.5) * dx);
            let d2 = (ux - cx).powi(2) + (uy - cy).powi(2);
            (-d2 / (0.05f64 * 0.05)).exp()
        });

        let coarse_dt = T_FINAL / steps as f64;
        let dt_max = COURANT * dx / C;
        let substeps = (coarse_dt / dt_max).ceil().max(1.0) as u32;
        let dt = coarse_dt / substeps as f64;

        let mut k = Self {
            u_prev: u.clone(), // zero initial velocity
            u_next: u.clone(),
            scratch: u.clone(),
            indicator: numerics::zeros(n, n),
            u,
            n,
            dt,
            substeps,
            time: 0.0,
        };
        k.refresh_indicator();
        k
    }

    fn refresh_indicator(&mut self) {
        // Energy-density indicator: |∇u|² + (u_t/c)², so both the moving
        // ring (kinetic) and the standing structure (gradient) flag. The
        // gradient is a central difference per cell width, not per unit
        // length, so its term carries a factor dx² against (u_t/c)².
        let inv_cdt = 1.0 / (C * self.dt);
        let (u, u_prev) = (&self.u, &self.u_prev);
        let d = u.domain();
        let nx = d.extent().x as usize;
        for y in d.lo().y..=d.hi().y {
            let (row, prev) = (u.row(y), u_prev.row(y));
            let down = u.row((y - 1).max(d.lo().y));
            let up = u.row((y + 1).min(d.hi().y));
            let out = self.scratch.row_mut(y);
            for i in 0..nx {
                let gx = 0.5 * (row[(i + 1).min(nx - 1)] - row[i.saturating_sub(1)]);
                let gy = 0.5 * (up[i] - down[i]);
                let ut = (row[i] - prev[i]) * inv_cdt;
                out[i] = (gx * gx + gy * gy + ut * ut).sqrt();
            }
        }
        std::mem::swap(&mut self.indicator, &mut self.scratch);
        numerics::normalize_max(&mut self.indicator);
    }

    /// Discrete wave energy `Σ (u_t² + c²|∇u|²)/2 · dx²` — conserved by
    /// leapfrog up to O(dt²) oscillation; used by tests.
    pub fn energy(&self) -> f64 {
        let d = self.u.domain();
        let dx = 1.0 / self.n as f64;
        let mut e = 0.0;
        for y in d.lo().y..=d.hi().y {
            for x in d.lo().x..=d.hi().x {
                let ut = (clamped(&self.u, x, y) - clamped(&self.u_prev, x, y)) / self.dt;
                let gx = 0.5 * (clamped(&self.u, x + 1, y) - clamped(&self.u, x - 1, y)) / dx;
                let gy = 0.5 * (clamped(&self.u, x, y + 1) - clamped(&self.u, x, y - 1)) / dx;
                e += 0.5 * (ut * ut + C * C * (gx * gx + gy * gy));
            }
        }
        e * dx * dx
    }

    /// RMS radius of the energy distribution — tracks the ring's
    /// expansion/contraction cycle (for tests).
    pub fn energy_radius(&self) -> f64 {
        let d = self.u.domain();
        let dx = 1.0 / self.n as f64;
        let (mut w_sum, mut r_sum) = (0.0, 0.0);
        for y in d.lo().y..=d.hi().y {
            for x in d.lo().x..=d.hi().x {
                let v = *self.indicator.get(Point2::new(x, y));
                let w = v * v;
                let (ux, uy) = ((x as f64 + 0.5) * dx - 0.5, (y as f64 + 0.5) * dx - 0.5);
                w_sum += w;
                r_sum += w * (ux * ux + uy * uy).sqrt();
            }
        }
        if w_sum > 0.0 {
            r_sum / w_sum
        } else {
            0.0
        }
    }
}

/// One leapfrog substep `out = 2u - u_prev + r2·Δu`, one row at a
/// time. Homogeneous Dirichlet walls: a neighbour outside the domain
/// reads 0.
fn leapfrog_substep(u: &Grid2<f64>, u_prev: &Grid2<f64>, out: &mut Grid2<f64>, r2: f64) {
    let d = u.domain();
    let nx = d.extent().x as usize;
    for y in d.lo().y..=d.hi().y {
        let (row, prev) = (u.row(y), u_prev.row(y));
        let down = (y > d.lo().y).then(|| u.row(y - 1));
        let up = (y < d.hi().y).then(|| u.row(y + 1));
        let row_out = out.row_mut(y);
        for i in 0..nx {
            let c = row[i];
            let e = if i + 1 < nx { row[i + 1] } else { 0.0 };
            let w = if i > 0 { row[i - 1] } else { 0.0 };
            let n = up.map_or(0.0, |r| r[i]);
            let s = down.map_or(0.0, |r| r[i]);
            let lap = e + w + n + s - 4.0 * c;
            row_out[i] = 2.0 * c - prev[i] + r2 * lap;
        }
    }
}

impl Kernel for Sc2d {
    fn name(&self) -> &'static str {
        "SC2D"
    }

    fn description(&self) -> String {
        format!(
            "scalar wave equation (Cactus-style hyperbolic kernel), reflecting ring pulse, {}x{} reference grid",
            self.n, self.n
        )
    }

    fn advance_coarse_step(&mut self) {
        let r2 = (C * self.dt * self.n as f64).powi(2); // (c·dt/dx)²
        for _ in 0..self.substeps {
            leapfrog_substep(&self.u, &self.u_prev, &mut self.u_next, r2);
            // Rotate: prev <- u <- next.
            std::mem::swap(&mut self.u_prev, &mut self.u);
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
        geometric_threshold(0.14, 1.7, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::oracle::{assert_matches_reference, Oracle};

    fn kernel() -> Sc2d {
        Sc2d::new(48, 20, 3)
    }

    /// The per-cell stencils the row sweeps replaced: Dirichlet
    /// neighbours through a `contains_point` test, the indicator through
    /// clamped point lookups.
    impl Oracle for Sc2d {
        fn build(n: i64, steps: u32, seed: u64) -> Self {
            Sc2d::new(n, steps, seed)
        }

        fn reference_step(&mut self) {
            let r2 = (C * self.dt * self.n as f64).powi(2); // (c·dt/dx)²
            for _ in 0..self.substeps {
                let (u, u_prev) = (&self.u, &self.u_prev);
                let d = u.domain();
                self.u_next = Grid2::from_fn(d, |p| {
                    let (x, y) = (p.x, p.y);
                    // Dirichlet walls: treat outside as 0.
                    let at = |i: i64, j: i64| -> f64 {
                        if d.contains_point(Point2::new(i, j)) {
                            *u.get(Point2::new(i, j))
                        } else {
                            0.0
                        }
                    };
                    let lap =
                        at(x + 1, y) + at(x - 1, y) + at(x, y + 1) + at(x, y - 1) - 4.0 * at(x, y);
                    2.0 * at(x, y) - clamped(u_prev, x, y) + r2 * lap
                });
                // Rotate: prev <- u <- next.
                std::mem::swap(&mut self.u_prev, &mut self.u);
                std::mem::swap(&mut self.u, &mut self.u_next);
                self.time += self.dt;
            }
            let inv_cdt = 1.0 / (C * self.dt);
            let (u, u_prev) = (&self.u, &self.u_prev);
            self.indicator = Grid2::from_fn(u.domain(), |p| {
                let (x, y) = (p.x, p.y);
                let gx = 0.5 * (clamped(u, x + 1, y) - clamped(u, x - 1, y));
                let gy = 0.5 * (clamped(u, x, y + 1) - clamped(u, x, y - 1));
                let ut = (clamped(u, x, y) - clamped(u_prev, x, y)) * inv_cdt;
                let n_inv = 1.0;
                (gx * gx * n_inv + gy * gy * n_inv + ut * ut).sqrt()
            });
            numerics::normalize_max(&mut self.indicator);
        }

        fn fields(&self) -> Vec<&Grid2<f64>> {
            vec![&self.u, &self.u_prev, &self.indicator]
        }
    }

    #[test]
    fn sweep_matches_the_per_cell_stencil_bit_for_bit() {
        // A few coarse steps span several wall reflections, so every
        // Dirichlet edge carries the wave. 8 is the smallest grid, 13 odd.
        for (n, steps, seed) in [(8, 3, 2004), (13, 4, 9923), (13, 2, 7)] {
            assert_matches_reference::<Sc2d>(n, steps, seed);
        }
    }

    #[test]
    fn energy_approximately_conserved() {
        let mut k = kernel();
        // Let the pulse separate from the initial condition first.
        k.advance_coarse_step();
        let e0 = k.energy();
        for _ in 0..6 {
            k.advance_coarse_step();
        }
        let e1 = k.energy();
        let rel = (e1 - e0).abs() / e0;
        assert!(rel < 0.05, "energy drifted by {rel}");
    }

    #[test]
    fn ring_expands_initially() {
        let mut k = kernel();
        let r0 = k.energy_radius();
        for _ in 0..4 {
            k.advance_coarse_step();
        }
        let r1 = k.energy_radius();
        assert!(r1 > r0 + 0.02, "ring did not expand: {r0} -> {r1}");
    }

    #[test]
    fn ring_oscillates_over_reflection_cycle() {
        // Over T=4 with c=1 the ring expands and refocuses; the energy
        // radius must be non-monotone.
        let mut k = Sc2d::new(48, 40, 3);
        let mut radii = Vec::new();
        for _ in 0..40 {
            k.advance_coarse_step();
            radii.push(k.energy_radius());
        }
        let up = radii.windows(2).filter(|w| w[1] > w[0]).count();
        let down = radii.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(up > 5 && down > 5, "no oscillation: up={up} down={down}");
    }

    #[test]
    fn dirichlet_walls_reflect() {
        let mut k = kernel();
        for _ in 0..20 {
            k.advance_coarse_step();
        }
        // Solution remains bounded (stability) and nonzero (reflection,
        // not absorption).
        assert!(k.u.max_abs() < 10.0);
        assert!(k.u.max_abs() > 1e-4);
    }

    #[test]
    fn indicator_is_normalized() {
        let mut k = kernel();
        k.advance_coarse_step();
        assert!(k.indicator_field().max_abs() <= 1.0 + 1e-12);
        assert!(k.indicator_field().max_abs() > 0.99);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Sc2d::new(32, 10, 9);
        let mut b = Sc2d::new(32, 10, 9);
        a.advance_coarse_step();
        b.advance_coarse_step();
        assert_eq!(a.u.data(), b.u.data());
    }
}
