//! RM2D: the Richtmyer–Meshkov compressible-turbulence kernel.
//!
//! The paper's RM2D comes from the Caltech VTF and solves the
//! Richtmyer–Meshkov instability: "a fingering instability which occurs at
//! a material interface accelerated by a shock wave". We solve the 2-D
//! compressible Euler equations with a first-order Rusanov (local
//! Lax–Friedrichs) finite-volume scheme in a 2:1 shock tube: a Mach-1.5
//! shock travels through light fluid into a sinusoidally perturbed
//! interface with a 3× heavier fluid, deposits vorticity (the RM
//! mechanism), reflects off the right wall and *reshocks* the interface.
//! The growing fingers and the reshock produce irregular, random-looking
//! refinement dynamics — the behaviour the paper reports for RM2D
//! (Figure 4).

use crate::kernel::{geometric_threshold, Kernel};
use crate::numerics;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use samr_geom::{Grid2, Point2};

/// Ratio of specific heats.
const GAMMA: f64 = 1.4;
/// Incident shock Mach number.
const MACH: f64 = 1.5;
/// Heavy/light density ratio across the interface.
const DENSITY_RATIO: f64 = 3.0;
/// Initial shock position.
const X_SHOCK: f64 = 0.4;
/// Mean initial interface position.
const X_INTERFACE: f64 = 0.9;
/// Physical domain: `[0, 2] x [0, 1]`.
const LX: f64 = 2.0;
/// Total simulated time (incident shock + reshock + mixing).
const T_FINAL: f64 = 2.0;
/// Assumed bound on `|u| + c` for the fixed time step.
const SMAX_BOUND: f64 = 4.0;
/// CFL number.
const CFL: f64 = 0.4;
/// Density floor.
const RHO_FLOOR: f64 = 1e-6;
/// Pressure floor.
const P_FLOOR: f64 = 1e-8;

/// Conserved state vector: `(ρ, ρu, ρv, E)`.
type State = [f64; 4];

#[inline]
fn pressure(s: &State) -> f64 {
    let [rho, mx, my, e] = *s;
    ((GAMMA - 1.0) * (e - 0.5 * (mx * mx + my * my) / rho)).max(P_FLOOR)
}

/// Everything the faces of one cell need, computed once per cell per
/// substep: its state, its physical fluxes along x and y, and its
/// Rusanov wave speeds `|u| + c` and `|v| + c`.
#[derive(Clone, Copy, Default)]
struct Cell {
    s: State,
    fx: State,
    fy: State,
    ax: f64,
    ay: f64,
}

impl Cell {
    #[inline]
    fn new(s: State) -> Self {
        let [rho, mx, my, e] = s;
        let p = pressure(&s);
        let u = mx / rho;
        let v = my / rho;
        let c = (GAMMA * p / rho).sqrt();
        Self {
            s,
            fx: [mx, mx * u + p, my * u, (e + p) * u],
            fy: [my, mx * v, my * v + p, (e + p) * v],
            ax: u.abs() + c,
            ay: v.abs() + c,
        }
    }

    /// The reflective-x ghost of this cell: the same state with the
    /// x momentum flipped.
    #[inline]
    fn mirrored(&self) -> Self {
        let [rho, mx, my, e] = self.s;
        Self::new([rho, -mx, my, e])
    }
}

/// Rusanov numerical flux across the face from `l` to `r`, given both
/// sides' physical fluxes `fl`/`fr` and wave speeds `al`/`ar` along the
/// face normal.
#[inline]
fn rusanov(l: &State, r: &State, fl: &State, fr: &State, al: f64, ar: f64) -> State {
    let smax = al.max(ar);
    [
        0.5 * (fl[0] + fr[0]) - 0.5 * smax * (r[0] - l[0]),
        0.5 * (fl[1] + fr[1]) - 0.5 * smax * (r[1] - l[1]),
        0.5 * (fl[2] + fr[2]) - 0.5 * smax * (r[2] - l[2]),
        0.5 * (fl[3] + fr[3]) - 0.5 * smax * (r[3] - l[3]),
    ]
}

/// Rusanov flux across the x face from `l` to `r`.
#[inline]
fn x_face(l: &Cell, r: &Cell) -> State {
    rusanov(&l.s, &r.s, &l.fx, &r.fx, l.ax, r.ax)
}

/// Rusanov flux across the y face from `l` (below) to `r` (above).
#[inline]
fn y_face(l: &Cell, r: &Cell) -> State {
    rusanov(&l.s, &r.s, &l.fy, &r.fy, l.ay, r.ay)
}

/// The four conserved fields of one time level.
struct Conserved {
    rho: Grid2<f64>,
    mx: Grid2<f64>,
    my: Grid2<f64>,
    en: Grid2<f64>,
}

impl Conserved {
    fn zeros(nx: i64, ny: i64) -> Self {
        Self {
            rho: numerics::zeros(nx, ny),
            mx: numerics::zeros(nx, ny),
            my: numerics::zeros(nx, ny),
            en: numerics::zeros(nx, ny),
        }
    }

    /// Cell quantities of row `y`, written into `out`.
    fn cells(&self, y: i64, out: &mut [Cell]) {
        let (rho, mx) = (self.rho.row(y), self.mx.row(y));
        let (my, en) = (self.my.row(y), self.en.row(y));
        for (i, c) in out.iter_mut().enumerate() {
            *c = Cell::new([rho[i], mx[i], my[i], en[i]]);
        }
    }
}

/// Row buffers of the face-flux sweep, kept across substeps so a
/// substep allocates nothing.
struct Sweep {
    /// Cell quantities of the row being updated and the row above it.
    row: Vec<Cell>,
    above: Vec<Cell>,
    /// Cell quantities of the top row, computed first for the periodic
    /// wrap face and reused when the sweep reaches that row.
    top: Vec<Cell>,
    /// y-face fluxes below and above the row being updated.
    down: Vec<State>,
    up: Vec<State>,
    /// Flux across the periodic wrap face (top row to row 0).
    wrap: Vec<State>,
}

impl Sweep {
    fn new(nx: usize) -> Self {
        Self {
            row: vec![Cell::default(); nx],
            above: vec![Cell::default(); nx],
            top: vec![Cell::default(); nx],
            down: vec![[0.0; 4]; nx],
            up: vec![[0.0; 4]; nx],
            wrap: vec![[0.0; 4]; nx],
        }
    }

    /// One Rusanov substep from `cur` into `next` with `lam = dt/dx`:
    /// rows bottom to top, each face flux computed once and applied to
    /// the two cells it separates. Ghosts are reflective in x and
    /// periodic in y.
    fn substep(&mut self, cur: &Conserved, next: &mut Conserved, lam: f64) {
        let d = cur.rho.domain();
        let ny = d.extent().y;
        let nx = d.extent().x as usize;
        cur.cells(ny - 1, &mut self.top);
        cur.cells(0, &mut self.row);
        for ((w, t), b) in self.wrap.iter_mut().zip(&self.top).zip(&self.row) {
            *w = y_face(t, b);
        }
        self.down.copy_from_slice(&self.wrap);
        for y in 0..ny {
            if y + 1 < ny {
                if y + 1 == ny - 1 {
                    self.above.copy_from_slice(&self.top);
                } else {
                    cur.cells(y + 1, &mut self.above);
                }
                for ((f, b), t) in self.up.iter_mut().zip(&self.row).zip(&self.above) {
                    *f = y_face(b, t);
                }
            } else {
                self.up.copy_from_slice(&self.wrap);
            }
            let row = &self.row;
            let (rho, mx) = (next.rho.row_mut(y), next.mx.row_mut(y));
            let (my, en) = (next.my.row_mut(y), next.en.row_mut(y));
            let mut fxm = x_face(&row[0].mirrored(), &row[0]);
            for i in 0..nx {
                let c = &row[i];
                let fxp = match row.get(i + 1) {
                    Some(e) => x_face(c, e),
                    None => x_face(c, &c.mirrored()),
                };
                let (fyp, fym) = (&self.up[i], &self.down[i]);
                let mut out = [0.0; 4];
                for k in 0..4 {
                    out[k] = c.s[k] - lam * (fxp[k] - fxm[k] + fyp[k] - fym[k]);
                }
                [rho[i], mx[i], my[i], en[i]] = floored(out);
                fxm = fxp;
            }
            std::mem::swap(&mut self.down, &mut self.up);
            std::mem::swap(&mut self.row, &mut self.above);
        }
    }
}

/// Positivity floors on an updated state: density, then pressure
/// through the energy.
#[inline]
fn floored(mut out: State) -> State {
    out[0] = out[0].max(RHO_FLOOR);
    let ke = 0.5 * (out[1] * out[1] + out[2] * out[2]) / out[0];
    let p = (GAMMA - 1.0) * (out[3] - ke);
    if p < P_FLOOR {
        out[3] = ke + P_FLOOR / (GAMMA - 1.0);
    }
    out
}

/// Shock-tube Euler kernel with a perturbed heavy-fluid interface
/// (see module docs).
pub struct Rm2d {
    cur: Conserved,
    next: Conserved,
    sweep: Sweep,
    indicator: Grid2<f64>,
    scratch: Grid2<f64>,
    nx: i64,
    ny: i64,
    dt: f64,
    substeps: u32,
    time: f64,
}

impl Rm2d {
    /// Create the kernel on a `2n x n` reference grid sized for `steps`
    /// coarse steps; `seed` randomizes the interface perturbation phases.
    pub fn new(ny: i64, steps: u32, seed: u64) -> Self {
        assert!(ny >= 8 && steps >= 1);
        let nx = 2 * ny;
        let dx = LX / nx as f64;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2d2d_0000);
        let phi1: f64 = rng.random_range(0.0..std::f64::consts::TAU);
        let phi2: f64 = rng.random_range(0.0..std::f64::consts::TAU);

        // Rankine-Hugoniot post-shock state for a Mach-`MACH` shock in the
        // light fluid (rho=1, p=1, u=0).
        let m2 = MACH * MACH;
        let p_post = (2.0 * GAMMA * m2 - (GAMMA - 1.0)) / (GAMMA + 1.0);
        let rho_post = (GAMMA + 1.0) * m2 / ((GAMMA - 1.0) * m2 + 2.0);
        let shock_speed = MACH * GAMMA.sqrt(); // c1 = sqrt(γ·p1/ρ1) = sqrt(γ)
        let u_post = shock_speed * (1.0 - 1.0 / rho_post);

        let interface = move |y: f64| -> f64 {
            X_INTERFACE
                + 0.035 * (std::f64::consts::TAU * 2.0 * y + phi1).sin()
                + 0.018 * (std::f64::consts::TAU * 5.0 * y + phi2).sin()
        };

        let prim_init = move |ux: f64, uy: f64| -> (f64, f64, f64) {
            // (rho, u, p)
            if ux < X_SHOCK {
                (rho_post, u_post, p_post)
            } else {
                // Smooth heavy/light transition over ~1.5 cells.
                let t = 0.5 * (1.0 + ((ux - interface(uy)) / (1.5 * dx)).tanh());
                (1.0 + (DENSITY_RATIO - 1.0) * t, 0.0, 1.0)
            }
        };

        let mut cur = Conserved::zeros(nx, ny);
        for y in 0..ny {
            for x in 0..nx {
                let ux = (x as f64 + 0.5) * dx;
                let uy = (y as f64 + 0.5) * dx;
                let (r, u, p) = prim_init(ux, uy);
                let at = Point2::new(x, y);
                cur.rho.set(at, r);
                cur.mx.set(at, r * u);
                cur.my.set(at, 0.0);
                cur.en.set(at, p / (GAMMA - 1.0) + 0.5 * r * u * u);
            }
        }

        let coarse_dt = T_FINAL / steps as f64;
        let dt_max = CFL * dx / SMAX_BOUND;
        let substeps = (coarse_dt / dt_max).ceil().max(1.0) as u32;
        let dt = coarse_dt / substeps as f64;

        let mut k = Self {
            next: Conserved::zeros(nx, ny),
            sweep: Sweep::new(nx as usize),
            indicator: numerics::zeros(nx, ny),
            scratch: numerics::zeros(nx, ny),
            cur,
            nx,
            ny,
            dt,
            substeps,
            time: 0.0,
        };
        k.refresh_indicator();
        k
    }

    fn refresh_indicator(&mut self) {
        numerics::gradient_magnitude(&self.cur.rho, &mut self.scratch);
        std::mem::swap(&mut self.indicator, &mut self.scratch);
        numerics::normalize_max(&mut self.indicator);
    }

    /// Total mass (for conservation tests).
    pub fn total_mass(&self) -> f64 {
        self.cur.rho.sum()
    }

    /// Total energy (for conservation tests).
    pub fn total_energy(&self) -> f64 {
        self.cur.en.sum()
    }

    /// Density field (for tests and demos).
    pub fn density(&self) -> &Grid2<f64> {
        &self.cur.rho
    }

    /// Absolute transverse momentum (vorticity-deposition proxy, tests).
    pub fn transverse_momentum(&self) -> f64 {
        self.cur.my.data().iter().map(|v| v.abs()).sum()
    }

    /// Minimum density and pressure over the grid (positivity checks).
    pub fn min_rho_p(&self) -> (f64, f64) {
        let d = self.cur.rho.domain();
        let mut mr = f64::MAX;
        let mut mp = f64::MAX;
        for y in d.lo().y..=d.hi().y {
            let (rho, mx) = (self.cur.rho.row(y), self.cur.mx.row(y));
            let (my, en) = (self.cur.my.row(y), self.cur.en.row(y));
            for i in 0..rho.len() {
                mr = mr.min(rho[i]);
                mp = mp.min(pressure(&[rho[i], mx[i], my[i], en[i]]));
            }
        }
        (mr, mp)
    }
}

impl Kernel for Rm2d {
    fn name(&self) -> &'static str {
        "RM2D"
    }

    fn description(&self) -> String {
        format!(
            "Richtmyer-Meshkov instability: Mach-{MACH} shock over a perturbed interface, {}x{} reference grid",
            self.nx, self.ny
        )
    }

    fn advance_coarse_step(&mut self) {
        let lam = self.dt / (LX / self.nx as f64);
        for _ in 0..self.substeps {
            self.sweep.substep(&self.cur, &mut self.next, lam);
            std::mem::swap(&mut self.cur, &mut self.next);
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
        geometric_threshold(0.09, 1.8, level)
    }

    fn aspect(&self) -> (i64, i64) {
        (2, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::oracle::{assert_matches_reference, Oracle};

    fn kernel() -> Rm2d {
        Rm2d::new(24, 20, 5)
    }

    /// Physical flux along axis 0 (x) or 1 (y).
    fn flux(s: &State, axis: usize) -> State {
        let [rho, mx, my, e] = *s;
        let p = pressure(s);
        match axis {
            0 => {
                let u = mx / rho;
                [mx, mx * u + p, my * u, (e + p) * u]
            }
            _ => {
                let v = my / rho;
                [my, mx * v, my * v + p, (e + p) * v]
            }
        }
    }

    fn sound_speed(s: &State) -> f64 {
        (GAMMA * pressure(s) / s[0]).sqrt()
    }

    /// Rusanov numerical flux between `l` and `r` along `axis`.
    fn rusanov_axis(l: &State, r: &State, axis: usize) -> State {
        let fl = flux(l, axis);
        let fr = flux(r, axis);
        let vl = (l[1 + axis] / l[0]).abs() + sound_speed(l);
        let vr = (r[1 + axis] / r[0]).abs() + sound_speed(r);
        let smax = vl.max(vr);
        [
            0.5 * (fl[0] + fr[0]) - 0.5 * smax * (r[0] - l[0]),
            0.5 * (fl[1] + fr[1]) - 0.5 * smax * (r[1] - l[1]),
            0.5 * (fl[2] + fr[2]) - 0.5 * smax * (r[2] - l[2]),
            0.5 * (fl[3] + fr[3]) - 0.5 * smax * (r[3] - l[3]),
        ]
    }

    /// Conserved state at `(x, y)` with reflective-x / periodic-y ghost
    /// handling.
    fn state(c: &Conserved, x: i64, y: i64) -> State {
        let e = c.rho.domain().extent();
        let (nx, ny) = (e.x, e.y);
        let yy = y.rem_euclid(ny);
        let (xx, flip) = if x < 0 {
            (-1 - x, true)
        } else if x >= nx {
            (2 * nx - 1 - x, true)
        } else {
            (x, false)
        };
        let p = Point2::new(xx, yy);
        let mut s = [*c.rho.get(p), *c.mx.get(p), *c.my.get(p), *c.en.get(p)];
        if flip {
            s[1] = -s[1];
        }
        s
    }

    /// The per-cell stencil the face-flux sweep replaced: five ghosted
    /// state reads and four Rusanov fluxes per cell.
    impl Oracle for Rm2d {
        fn build(n: i64, steps: u32, seed: u64) -> Self {
            Rm2d::new(n, steps, seed)
        }

        fn reference_step(&mut self) {
            let dx = LX / self.nx as f64;
            let lam = self.dt / dx;
            for _ in 0..self.substeps {
                let (cur, next) = (&self.cur, &mut self.next);
                for y in 0..self.ny {
                    for x in 0..self.nx {
                        let c = state(cur, x, y);
                        let w = state(cur, x - 1, y);
                        let e = state(cur, x + 1, y);
                        let s = state(cur, x, y - 1);
                        let n = state(cur, x, y + 1);
                        let fxp = rusanov_axis(&c, &e, 0);
                        let fxm = rusanov_axis(&w, &c, 0);
                        let fyp = rusanov_axis(&c, &n, 1);
                        let fym = rusanov_axis(&s, &c, 1);
                        let mut out = [0.0; 4];
                        for k in 0..4 {
                            out[k] = c[k] - lam * (fxp[k] - fxm[k] + fyp[k] - fym[k]);
                        }
                        // Positivity floors.
                        out[0] = out[0].max(RHO_FLOOR);
                        let ke = 0.5 * (out[1] * out[1] + out[2] * out[2]) / out[0];
                        let p = (GAMMA - 1.0) * (out[3] - ke);
                        if p < P_FLOOR {
                            out[3] = ke + P_FLOOR / (GAMMA - 1.0);
                        }
                        let at = Point2::new(x, y);
                        next.rho.set(at, out[0]);
                        next.mx.set(at, out[1]);
                        next.my.set(at, out[2]);
                        next.en.set(at, out[3]);
                    }
                }
                std::mem::swap(&mut self.cur, &mut self.next);
                self.time += self.dt;
            }
            self.refresh_indicator();
        }

        fn fields(&self) -> Vec<&Grid2<f64>> {
            let c = &self.cur;
            vec![&c.rho, &c.mx, &c.my, &c.en, &self.indicator]
        }
    }

    #[test]
    fn sweep_matches_the_per_cell_stencil_bit_for_bit() {
        // The whole run (shock, reflection off the right wall, reshock)
        // in a few coarse steps: every x ghost face and the periodic y
        // wrap carry flow. 16x8 is the smallest grid, 22x11 an odd one.
        for (n, steps, seed) in [(8, 4, 2004), (8, 3, 7), (11, 3, 9923)] {
            assert_matches_reference::<Rm2d>(n, steps, seed);
        }
    }

    #[test]
    fn rankine_hugoniot_state_is_supersonic_push() {
        // Sanity of the closed-form post-shock state used in `new`.
        let m2 = MACH * MACH;
        let p_post = (2.0 * GAMMA * m2 - (GAMMA - 1.0)) / (GAMMA + 1.0);
        let rho_post = (GAMMA + 1.0) * m2 / ((GAMMA - 1.0) * m2 + 2.0);
        assert!(p_post > 2.0 && p_post < 3.0);
        assert!(rho_post > 1.5 && rho_post < 2.5);
    }

    #[test]
    fn mass_is_conserved_exactly() {
        let mut k = kernel();
        let m0 = k.total_mass();
        for _ in 0..3 {
            k.advance_coarse_step();
        }
        let m1 = k.total_mass();
        assert!(((m1 - m0) / m0).abs() < 1e-10, "mass drifted: {m0} -> {m1}");
    }

    #[test]
    fn energy_is_conserved_exactly() {
        let mut k = kernel();
        let e0 = k.total_energy();
        for _ in 0..3 {
            k.advance_coarse_step();
        }
        let e1 = k.total_energy();
        assert!(
            ((e1 - e0) / e0).abs() < 1e-10,
            "energy drifted: {e0} -> {e1}"
        );
    }

    #[test]
    fn positivity_is_maintained() {
        let mut k = kernel();
        for _ in 0..5 {
            k.advance_coarse_step();
        }
        let (mr, mp) = k.min_rho_p();
        assert!(mr > 0.0 && mp > 0.0, "rho={mr} p={mp}");
    }

    #[test]
    fn shock_propagates_right() {
        let mut k = kernel();
        let before = k.density().clone();
        for _ in 0..2 {
            k.advance_coarse_step();
        }
        assert!(k.cur.mx.sum() > 0.0);
        let diff: f64 = before
            .data()
            .iter()
            .zip(k.density().data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1.0, "density field frozen: {diff}");
    }

    #[test]
    fn interface_fingers_grow_transverse_motion() {
        let mut k = kernel();
        // Before the shock reaches the interface there is no transverse
        // momentum; after passage, baroclinic deposition creates it.
        let my0 = k.transverse_momentum();
        for _ in 0..8 {
            k.advance_coarse_step();
        }
        let my1 = k.transverse_momentum();
        assert!(my0 < 1e-12);
        assert!(my1 > 1e-3, "no vorticity deposited: {my1}");
    }

    #[test]
    fn reflective_and_periodic_ghosts() {
        let mut k = kernel();
        k.advance_coarse_step();
        // Reflective x: the ghost mirrors the edge cell with flipped u,
        // in the reference's ghost reads and in the sweep's ghost cells.
        let c = &k.cur;
        let inside = state(c, 0, 3);
        let ghost = state(c, -1, 3);
        assert_eq!(inside[0], ghost[0]);
        assert_eq!(inside[1], -ghost[1]);
        assert_ne!(inside[1], 0.0);
        let edge = Cell::new(inside);
        assert_eq!(edge.mirrored().s, ghost);
        assert_eq!(
            state(c, k.nx, 3),
            Cell::new(state(c, k.nx - 1, 3)).mirrored().s
        );
        // Periodic y.
        assert_eq!(state(c, 5, -1), state(c, 5, k.ny - 1));
        assert_eq!(state(c, 5, k.ny), state(c, 5, 0));
    }

    #[test]
    fn indicator_tracks_density_gradients() {
        let mut k = kernel();
        k.advance_coarse_step();
        assert!(k.indicator_field().max_abs() > 0.99);
        // After one step (t = 0.1) the incident shock is near x ≈ 0.58 and
        // nothing has disturbed the far-right heavy fluid yet: the
        // indicator must be quiescent there.
        assert!(k.indicator(0.95, 0.5) < 0.05);
    }

    #[test]
    fn aspect_is_two_to_one() {
        assert_eq!(kernel().aspect(), (2, 1));
    }
}
