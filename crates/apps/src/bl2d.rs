//! BL2D: the Buckley–Leverett oil–water flow kernel.
//!
//! The paper's BL2D comes from IPARS and models oil–water mixture flow in
//! confined aquifers with discharge/recharge cycles. We solve the
//! Buckley–Leverett saturation equation `s_t + ∇·(v f(s)) = 0` with the
//! classic fractional-flow function `f(s) = s²/(s² + M(1−s)²)` on a
//! quarter five-spot: water is injected at the (0,0) corner well and
//! produced at the (1,1) corner well, with the injection rate *pulsed*
//! periodically (the paper's "discharge/recharge" dynamics). The
//! saturation shock front expands from the injector; the pulsing makes the
//! front alternately steepen and relax, which is what gives BL2D its
//! strongly oscillatory refinement behaviour (Figures 1 and 5).
//!
//! Discretization: conservative dimension-split upwinding. `f` is monotone
//! increasing on `[0,1]`, so upwinding on the sign of the face velocity is
//! the exact Godunov flux.

use crate::kernel::{geometric_threshold, Kernel};
use crate::numerics::{self, clamped};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use samr_geom::{Grid2, Rect2};

/// Pulsed quarter-five-spot Buckley–Leverett kernel (see module docs).
pub struct Bl2d {
    s: Grid2<f64>,
    s_next: Grid2<f64>,
    /// x-face velocities `0.5·(vx_{i-1} + vx_i)`: row `y` holds the
    /// `n + 1` faces of cell row `y`, the two wall faces averaging an
    /// edge cell with itself. Time-independent.
    vx_faces: Grid2<f64>,
    /// y-face velocities: face row `j` lies between cell rows `j - 1`
    /// and `j`, clamped like the x faces.
    vy_faces: Grid2<f64>,
    sweep: Sweep,
    indicator: Grid2<f64>,
    scratch: Grid2<f64>,
    n: i64,
    dt: f64,
    substeps: u32,
    time: f64,
    steps: u32,
    pulse_phase: f64,
}

/// Water/oil mobility ratio in the fractional-flow function.
const MOBILITY: f64 = 0.5;
/// Base injection strength (velocity scale).
const Q0: f64 = 0.16;
/// Relative amplitude of the injection pulsing.
const PULSE_AMP: f64 = 0.6;
/// Pulse period, measured in *coarse steps* (≈10-step oscillation, the
/// cadence visible in the paper's BL2D figures).
const PULSE_PERIOD_STEPS: f64 = 10.0;
/// Total simulated time for a full run of `steps` coarse steps.
const T_FINAL: f64 = 1.1;
/// Radius of the forced-saturation injector region.
const WELL_RADIUS: f64 = 0.07;
/// Velocity cap (regularizes the 1/r well singularity).
const V_CAP: f64 = 1.1;
/// CFL number; the wave speed is `|v|·max f'`.
const CFL: f64 = 0.35;

/// The Buckley–Leverett fractional-flow function.
#[inline]
pub fn fractional_flow(s: f64) -> f64 {
    let s = s.clamp(0.0, 1.0);
    let a = s * s;
    let b = MOBILITY * (1.0 - s) * (1.0 - s);
    a / (a + b)
}

/// Upper bound of `f'(s)` on [0,1] for the CFL estimate (numerically
/// scanned once; conservative).
fn max_flux_derivative() -> f64 {
    let mut m: f64 = 0.0;
    for i in 0..512 {
        let s = i as f64 / 511.0;
        let h = 1e-5;
        let d = (fractional_flow(s + h) - fractional_flow(s - h)) / (2.0 * h);
        m = m.max(d.abs());
    }
    m
}

/// Cell-centred quarter-five-spot velocities `(vx, vy)` on an `n x n`
/// grid: source at (0,0), sink at (1,1), with image symmetry ignored
/// (the near-well radial field dominates the front dynamics).
/// Velocities are capped near the wells.
fn cell_velocities(n: i64) -> (Grid2<f64>, Grid2<f64>) {
    let dx = 1.0 / n as f64;
    let well = |ux: f64, uy: f64, wx: f64, wy: f64, sign: f64| -> (f64, f64) {
        let (rx, ry) = (ux - wx, uy - wy);
        let r2 = (rx * rx + ry * ry).max(1e-9);
        let mag = (1.0 / (2.0 * std::f64::consts::PI * r2.sqrt())).min(V_CAP / Q0);
        (sign * mag * rx / r2.sqrt(), sign * mag * ry / r2.sqrt())
    };
    let domain = Rect2::from_extents(n, n);
    let vx = Grid2::from_fn(domain, |p| {
        let (ux, uy) = ((p.x as f64 + 0.5) * dx, (p.y as f64 + 0.5) * dx);
        let (sx, _) = well(ux, uy, 0.0, 0.0, 1.0);
        let (kx, _) = well(ux, uy, 1.0, 1.0, -1.0);
        Q0 * (sx + kx)
    });
    let vy = Grid2::from_fn(domain, |p| {
        let (ux, uy) = ((p.x as f64 + 0.5) * dx, (p.y as f64 + 0.5) * dx);
        let (_, sy) = well(ux, uy, 0.0, 0.0, 1.0);
        let (_, ky) = well(ux, uy, 1.0, 1.0, -1.0);
        Q0 * (sy + ky)
    });
    (vx, vy)
}

/// Godunov upwind flux `v·f(s_upwind)` across a face with velocity `v`
/// between cells whose fractional flows are `fl` (low side) and `fr`.
#[inline]
fn upwind(v: f64, fl: f64, fr: f64) -> f64 {
    if v >= 0.0 {
        v * fl
    } else {
        v * fr
    }
}

/// Row buffers of the face-flux sweep, kept across substeps so a
/// substep allocates nothing.
struct Sweep {
    /// `fractional_flow` of the row being updated and of the row above.
    flow: Vec<f64>,
    flow_above: Vec<f64>,
    /// y-face fluxes below and above the row being updated.
    down: Vec<f64>,
    up: Vec<f64>,
}

impl Sweep {
    fn new(nx: usize) -> Self {
        Self {
            flow: vec![0.0; nx],
            flow_above: vec![0.0; nx],
            down: vec![0.0; nx],
            up: vec![0.0; nx],
        }
    }

    /// One conservative upwind substep from `s` into `out` with
    /// `lam = pulse·dt/dx`: rows bottom to top, `fractional_flow` once
    /// per cell and each face flux once, applied to the two cells it
    /// separates. The wall faces carry an edge cell's own flux
    /// (clamped, zero-gradient).
    fn substep(
        &mut self,
        s: &Grid2<f64>,
        vx_faces: &Grid2<f64>,
        vy_faces: &Grid2<f64>,
        out: &mut Grid2<f64>,
        lam: f64,
    ) {
        let (nx, ny) = (s.domain().extent().x as usize, s.domain().extent().y);
        let fill_flow = |y: i64, flow: &mut [f64]| {
            for (f, &v) in flow.iter_mut().zip(s.row(y)) {
                *f = fractional_flow(v);
            }
        };
        fill_flow(0, &mut self.flow);
        for ((g, &v), &f) in self.down.iter_mut().zip(vy_faces.row(0)).zip(&self.flow) {
            *g = upwind(v, f, f);
        }
        for y in 0..ny {
            let above = if y + 1 < ny {
                fill_flow(y + 1, &mut self.flow_above);
                &self.flow_above
            } else {
                &self.flow
            };
            let faces = self.up.iter_mut().zip(vy_faces.row(y + 1));
            for (((g, &v), &fl), &fr) in faces.zip(&self.flow).zip(above) {
                *g = upwind(v, fl, fr);
            }
            let (row, flow, vx) = (s.row(y), &self.flow, vx_faces.row(y));
            let row_out = out.row_mut(y);
            let mut fw = upwind(vx[0], flow[0], flow[0]);
            for i in 0..nx {
                let fe = upwind(vx[i + 1], flow[i], flow[(i + 1).min(nx - 1)]);
                let div = (fe - fw) + (self.up[i] - self.down[i]);
                row_out[i] = (row[i] - lam * div).clamp(0.0, 1.0);
                fw = fe;
            }
            std::mem::swap(&mut self.flow, &mut self.flow_above);
            std::mem::swap(&mut self.down, &mut self.up);
        }
    }
}

impl Bl2d {
    /// Create the kernel on an `n x n` reference grid sized for `steps`
    /// coarse steps; `seed` perturbs the pulse phase.
    pub fn new(n: i64, steps: u32, seed: u64) -> Self {
        assert!(n >= 8 && steps >= 1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb12d_0000);
        let pulse_phase: f64 = rng.random_range(0.0..std::f64::consts::TAU);
        let dx = 1.0 / n as f64;

        let (vx, vy) = cell_velocities(n);
        let vx_faces = Grid2::from_fn(Rect2::from_extents(n + 1, n), |p| {
            0.5 * (clamped(&vx, p.x - 1, p.y) + clamped(&vx, p.x, p.y))
        });
        let vy_faces = Grid2::from_fn(Rect2::from_extents(n, n + 1), |p| {
            0.5 * (clamped(&vy, p.x, p.y - 1) + clamped(&vy, p.x, p.y))
        });

        let coarse_dt = T_FINAL / steps as f64;
        let vmax = V_CAP * (1.0 + PULSE_AMP);
        let dt_max = CFL * dx / (vmax * max_flux_derivative());
        let substeps = (coarse_dt / dt_max).ceil().max(1.0) as u32;
        let dt = coarse_dt / substeps as f64;

        let s = numerics::zeros(n, n);
        let mut k = Self {
            s_next: s.clone(),
            scratch: s.clone(),
            indicator: numerics::zeros(n, n),
            s,
            vx_faces,
            vy_faces,
            sweep: Sweep::new(n as usize),
            n,
            dt,
            substeps,
            time: 0.0,
            steps,
            pulse_phase,
        };
        k.force_injector();
        k.refresh_indicator();
        k
    }

    /// Injection pulse factor at the current time.
    fn pulse(&self) -> f64 {
        let coarse_dt = T_FINAL / self.steps as f64;
        let period = PULSE_PERIOD_STEPS * coarse_dt;
        1.0 + PULSE_AMP * (std::f64::consts::TAU * self.time / period + self.pulse_phase).sin()
    }

    /// Force s = 1 inside the injector well.
    fn force_injector(&mut self) {
        let dx = 1.0 / self.n as f64;
        let d = self.s.domain();
        let rad_cells = (WELL_RADIUS / dx).ceil() as i64;
        for y in d.lo().y..=(d.lo().y + rad_cells).min(d.hi().y) {
            for x in d.lo().x..=(d.lo().x + rad_cells).min(d.hi().x) {
                let (ux, uy) = ((x as f64 + 0.5) * dx, (y as f64 + 0.5) * dx);
                if ux * ux + uy * uy <= WELL_RADIUS * WELL_RADIUS {
                    self.s.set(samr_geom::Point2::new(x, y), 1.0);
                }
            }
        }
    }

    fn refresh_indicator(&mut self) {
        numerics::gradient_magnitude(&self.s, &mut self.scratch);
        std::mem::swap(&mut self.indicator, &mut self.scratch);
        numerics::normalize_max(&mut self.indicator);
    }

    /// Saturation field (for tests and demos).
    pub fn saturation(&self) -> &Grid2<f64> {
        &self.s
    }
}

impl Kernel for Bl2d {
    fn name(&self) -> &'static str {
        "BL2D"
    }

    fn description(&self) -> String {
        format!(
            "Buckley-Leverett oil-water flow, pulsed quarter five-spot, {}x{} reference grid",
            self.n, self.n
        )
    }

    fn advance_coarse_step(&mut self) {
        let dx = 1.0 / self.n as f64;
        for _ in 0..self.substeps {
            let lam = self.dt / dx * self.pulse();
            self.sweep.substep(
                &self.s,
                &self.vx_faces,
                &self.vy_faces,
                &mut self.s_next,
                lam,
            );
            std::mem::swap(&mut self.s, &mut self.s_next);
            self.force_injector();
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
        geometric_threshold(0.10, 1.8, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::oracle::{assert_lockstep, assert_matches_reference, Oracle};

    fn kernel() -> Bl2d {
        Bl2d::new(48, 20, 11)
    }

    /// The per-cell stencil the face-flux sweep replaced: four face
    /// fluxes per cell, each averaging its velocity and calling
    /// `fractional_flow` through clamped point lookups.
    impl Oracle for Bl2d {
        fn build(n: i64, steps: u32, seed: u64) -> Self {
            Bl2d::new(n, steps, seed)
        }

        fn reference_step(&mut self) {
            let dx = 1.0 / self.n as f64;
            let (vx, vy) = cell_velocities(self.n);
            for _ in 0..self.substeps {
                let lam = self.dt / dx * self.pulse();
                let (s, vx, vy) = (&self.s, &vx, &vy);
                self.s_next = Grid2::from_fn(s.domain(), |p| {
                    let (x, y) = (p.x, p.y);
                    // Face velocities (averaged), Godunov upwind on sign.
                    let flux_x = |i: i64| -> f64 {
                        let v = 0.5 * (clamped(vx, i, y) + clamped(vx, i + 1, y));
                        if v >= 0.0 {
                            v * fractional_flow(clamped(s, i, y))
                        } else {
                            v * fractional_flow(clamped(s, i + 1, y))
                        }
                    };
                    let flux_y = |j: i64| -> f64 {
                        let v = 0.5 * (clamped(vy, x, j) + clamped(vy, x, j + 1));
                        if v >= 0.0 {
                            v * fractional_flow(clamped(s, x, j))
                        } else {
                            v * fractional_flow(clamped(s, x, j + 1))
                        }
                    };
                    let div = (flux_x(x) - flux_x(x - 1)) + (flux_y(y) - flux_y(y - 1));
                    (clamped(s, x, y) - lam * div).clamp(0.0, 1.0)
                });
                std::mem::swap(&mut self.s, &mut self.s_next);
                self.force_injector();
                self.time += self.dt;
            }
            self.refresh_indicator();
        }

        fn fields(&self) -> Vec<&Grid2<f64>> {
            vec![&self.s, &self.indicator]
        }
    }

    #[test]
    fn sweep_matches_the_per_cell_stencil_bit_for_bit() {
        // A few coarse steps span the whole run: the front runs from the
        // forced injector disk along the clamped x = 0 and y = 0 edges
        // while the pulse scales every substep. 8 is the smallest grid,
        // 13 odd.
        for (n, steps, seed) in [(8, 3, 2004), (13, 4, 9923), (13, 2, 7)] {
            assert_matches_reference::<Bl2d>(n, steps, seed);
        }
        // The front never reaches the far edges in one run, so also start
        // from seeded noise: every face, walls included, then carries a
        // nontrivial flux.
        for (n, seed) in [(8, 5), (13, 2004)] {
            let scrambled = || {
                let mut k = Bl2d::new(n, 3, seed);
                let mut rng = StdRng::seed_from_u64(seed);
                for v in k.s.data_mut() {
                    *v = rng.random_range(0.0..1.0);
                }
                k
            };
            let what = format!("n={n} seed={seed} scrambled");
            assert_lockstep(scrambled(), scrambled(), 3, &what);
        }
    }

    #[test]
    fn fractional_flow_is_monotone_s_shaped() {
        assert_eq!(fractional_flow(0.0), 0.0);
        assert_eq!(fractional_flow(1.0), 1.0);
        let mut prev = 0.0;
        for i in 1..=100 {
            let v = fractional_flow(i as f64 / 100.0);
            assert!(v >= prev, "f must be monotone");
            prev = v;
        }
        // Convex-concave: f(0.5) computed directly.
        let expected = 0.25 / (0.25 + MOBILITY * 0.25);
        assert!((fractional_flow(0.5) - expected).abs() < 1e-12);
    }

    #[test]
    fn saturation_stays_in_unit_interval() {
        let mut k = kernel();
        for _ in 0..4 {
            k.advance_coarse_step();
        }
        for &v in k.s.data() {
            assert!((0.0..=1.0).contains(&v), "saturation {v} out of range");
        }
    }

    #[test]
    fn front_expands_from_injector() {
        let mut k = kernel();
        let mass0 = k.s.sum();
        let wet0 = k.s.data().iter().filter(|&&v| v > 0.01).count();
        for _ in 0..5 {
            k.advance_coarse_step();
        }
        let mass1 = k.s.sum();
        let wet1 = k.s.data().iter().filter(|&&v| v > 0.01).count();
        assert!(
            mass1 > mass0 * 1.2,
            "injected water must spread: {mass0} -> {mass1}"
        );
        // The wetted area (cells reached by water) must grow well beyond
        // the forced injector disk.
        assert!(wet1 > wet0 * 2, "front did not expand: {wet0} -> {wet1}");
    }

    #[test]
    fn pulse_oscillates_around_unity() {
        let mut k = kernel();
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for _ in 0..20 {
            lo = lo.min(k.pulse());
            hi = hi.max(k.pulse());
            k.advance_coarse_step();
        }
        assert!(hi > 1.2 && lo < 0.8, "pulse range [{lo}, {hi}] too flat");
    }

    #[test]
    fn indicator_tracks_the_front() {
        let mut k = kernel();
        for _ in 0..4 {
            k.advance_coarse_step();
        }
        // The strongest gradient must lie outside the well (on the front).
        let ind = k.indicator_field();
        assert!(ind.max_abs() > 0.99);
        // Indicator at the far corner (undisturbed oil) is ~0.
        assert!(k.sampler()([0.95, 0.95]) < 0.05);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Bl2d::new(32, 10, 5);
        let mut b = Bl2d::new(32, 10, 5);
        a.advance_coarse_step();
        b.advance_coarse_step();
        assert_eq!(a.s.data(), b.s.data());
    }
}
