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

/// One component of the Rusanov numerical flux across a face, given
/// both sides' physical fluxes `fl`/`fr` and states `l`/`r`, and the
/// larger of their wave speeds along the face normal.
#[inline(always)]
fn rusanov(fl: f64, fr: f64, l: f64, r: f64, smax: f64) -> f64 {
    0.5 * (fl + fr) - 0.5 * smax * (r - l)
}

/// The four conserved fields of one time level, and the kinetic
/// energy `0.5 (mx² + my²) / rho` of its cells.
///
/// The update's positivity floor computes each cell's kinetic energy
/// from the state it stores, and the next substep's pressure is the
/// same expression of the same operands: carrying it saves a division
/// per cell and keeps the bits.
struct Conserved {
    rho: Grid2<f64>,
    mx: Grid2<f64>,
    my: Grid2<f64>,
    en: Grid2<f64>,
    ke: Grid2<f64>,
}

impl Conserved {
    fn zeros(nx: i64, ny: i64) -> Self {
        Self {
            rho: numerics::zeros(nx, ny),
            mx: numerics::zeros(nx, ny),
            my: numerics::zeros(nx, ny),
            en: numerics::zeros(nx, ny),
            ke: numerics::zeros(nx, ny),
        }
    }

    /// The states `(rho, mx, my, en)` of row `y`, one slice each.
    #[inline(always)]
    fn rows(&self, y: i64) -> [&[f64]; 4] {
        [
            self.rho.row(y),
            self.mx.row(y),
            self.my.row(y),
            self.en.row(y),
        ]
    }

    /// Row `y` of every field, the kinetic energy last, for writing.
    #[inline(always)]
    fn rows_mut(&mut self, y: i64) -> [&mut [f64]; 5] {
        [
            self.rho.row_mut(y),
            self.mx.row_mut(y),
            self.my.row_mut(y),
            self.en.row_mut(y),
            self.ke.row_mut(y),
        ]
    }
}

/// What the faces of one row need from its cells, computed once per
/// cell and substep, one array per quantity: the physical flux
/// components 1–3 along x and y (component 0 is the state's `mx` or
/// `my`) and the Rusanov wave speeds `|u| + c` and `|v| + c`.
struct Derived {
    fx: [Vec<f64>; 3],
    fy: [Vec<f64>; 3],
    ax: Vec<f64>,
    ay: Vec<f64>,
}

impl Derived {
    fn new(nx: usize) -> Self {
        Self {
            fx: std::array::from_fn(|_| vec![0.0; nx]),
            fy: std::array::from_fn(|_| vec![0.0; nx]),
            ax: vec![0.0; nx],
            ay: vec![0.0; nx],
        }
    }

    /// Fill the arrays from row `y` of `cur`.
    #[inline(always)]
    fn fill(&mut self, cur: &Conserved, y: i64) {
        let n = self.ax.len();
        let [rho, mx, my, en] = cur.rows(y).map(|s| &s[..n]);
        let ke = &cur.ke.row(y)[..n];
        let [fx1, fx2, fx3] = self.fx.each_mut().map(|f| &mut f[..n]);
        let [fy1, fy2, fy3] = self.fy.each_mut().map(|f| &mut f[..n]);
        let (ax, ay) = (&mut self.ax[..n], &mut self.ay[..n]);
        for i in 0..n {
            let p = ((GAMMA - 1.0) * (en[i] - ke[i])).max(P_FLOOR);
            let u = mx[i] / rho[i];
            let v = my[i] / rho[i];
            let c = (GAMMA * p / rho[i]).sqrt();
            fx1[i] = mx[i] * u + p;
            fx2[i] = my[i] * u;
            fx3[i] = (en[i] + p) * u;
            fy1[i] = mx[i] * v;
            fy2[i] = my[i] * v + p;
            fy3[i] = (en[i] + p) * v;
            ax[i] = u.abs() + c;
            ay[i] = v.abs() + c;
        }
    }
}

/// The four flux components across a run of faces, one array each.
type Faces = [Vec<f64>; 4];

fn faces(n: usize) -> Faces {
    std::array::from_fn(|_| vec![0.0; n])
}

/// Rusanov fluxes across the y faces from the row with states `sl` and
/// quantities `dl` (below) to the row with `sr` and `dr` (above).
#[inline(always)]
fn y_faces(sl: [&[f64]; 4], dl: &Derived, sr: [&[f64]; 4], dr: &Derived, out: &mut Faces) {
    let n = dl.ay.len();
    let [rl, ml, nl, el] = sl.map(|s| &s[..n]);
    let [rr, mr, nr, er] = sr.map(|s| &s[..n]);
    let [fl1, fl2, fl3] = dl.fy.each_ref().map(|f| &f[..n]);
    let [fr1, fr2, fr3] = dr.fy.each_ref().map(|f| &f[..n]);
    let (al, ar) = (&dl.ay[..n], &dr.ay[..n]);
    let [o0, o1, o2, o3] = out.each_mut().map(|o| &mut o[..n]);
    for i in 0..n {
        let smax = al[i].max(ar[i]);
        o0[i] = rusanov(nl[i], nr[i], rl[i], rr[i], smax);
        o1[i] = rusanov(fl1[i], fr1[i], ml[i], mr[i], smax);
        o2[i] = rusanov(fl2[i], fr2[i], nl[i], nr[i], smax);
        o3[i] = rusanov(fl3[i], fr3[i], el[i], er[i], smax);
    }
}

/// Rusanov fluxes across the `nx + 1` x faces of the row with states
/// `s` and quantities `d`: face `i` lies between cells `i - 1` and `i`,
/// and faces 0 and `nx` are the reflective walls.
#[inline(always)]
fn x_faces(s: [&[f64]; 4], d: &Derived, out: &mut Faces) {
    let n = d.ax.len();
    let [rho, mx, my, en] = s.map(|s| &s[..n]);
    let [f1, f2, f3] = d.fx.each_ref().map(|f| &f[..n]);
    let a = &d.ax[..n];
    let [o0, o1, o2, o3] = out.each_mut().map(|o| &mut o[..n + 1]);
    for i in 1..n {
        let smax = a[i - 1].max(a[i]);
        o0[i] = rusanov(mx[i - 1], mx[i], rho[i - 1], rho[i], smax);
        o1[i] = rusanov(f1[i - 1], f1[i], mx[i - 1], mx[i], smax);
        o2[i] = rusanov(f2[i - 1], f2[i], my[i - 1], my[i], smax);
        o3[i] = rusanov(f3[i - 1], f3[i], en[i - 1], en[i], smax);
    }
    // A wall face separates an edge cell from its mirror image, the
    // same state with `mx` negated. Negating `mx` negates `u` exactly
    // and IEEE products and quotients are sign-symmetric, so the
    // mirror's x flux is the cell's with components 0, 2 and 3 negated
    // and its wave speed is the cell's: the bits an evaluation of the
    // mirrored state gives.
    o0[0] = rusanov(-mx[0], mx[0], rho[0], rho[0], a[0]);
    o1[0] = rusanov(f1[0], f1[0], -mx[0], mx[0], a[0]);
    o2[0] = rusanov(-f2[0], f2[0], my[0], my[0], a[0]);
    o3[0] = rusanov(-f3[0], f3[0], en[0], en[0], a[0]);
    let e = n - 1;
    o0[n] = rusanov(mx[e], -mx[e], rho[e], rho[e], a[e]);
    o1[n] = rusanov(f1[e], f1[e], mx[e], -mx[e], a[e]);
    o2[n] = rusanov(f2[e], -f2[e], my[e], my[e], a[e]);
    o3[n] = rusanov(f3[e], -f3[e], en[e], en[e], a[e]);
}

/// Update a row from its states `s`, its x faces `xf` and the y faces
/// below (`down`) and above (`up`) into `out`, the next level's row of
/// every field, with the positivity floors: density, then pressure
/// through the energy.
#[inline(always)]
fn update(s: [&[f64]; 4], xf: &Faces, down: &Faces, up: &Faces, lam: f64, out: [&mut [f64]; 5]) {
    let n = s[0].len();
    let [rho, mx, my, en] = s.map(|s| &s[..n]);
    let [x0, x1, x2, x3] = xf.each_ref().map(|f| &f[..n + 1]);
    let [d0, d1, d2, d3] = down.each_ref().map(|f| &f[..n]);
    let [u0, u1, u2, u3] = up.each_ref().map(|f| &f[..n]);
    let [nrho, nmx, nmy, nen, nke] = out.map(|o| &mut o[..n]);
    for i in 0..n {
        let r = (rho[i] - lam * (x0[i + 1] - x0[i] + u0[i] - d0[i])).max(RHO_FLOOR);
        let m = mx[i] - lam * (x1[i + 1] - x1[i] + u1[i] - d1[i]);
        let w = my[i] - lam * (x2[i + 1] - x2[i] + u2[i] - d2[i]);
        let e = en[i] - lam * (x3[i + 1] - x3[i] + u3[i] - d3[i]);
        let ke = 0.5 * (m * m + w * w) / r;
        let p = (GAMMA - 1.0) * (e - ke);
        nrho[i] = r;
        nmx[i] = m;
        nmy[i] = w;
        nen[i] = if p < P_FLOOR {
            ke + P_FLOOR / (GAMMA - 1.0)
        } else {
            e
        };
        nke[i] = ke;
    }
}

/// Row buffers of the face-flux sweep, kept across substeps so a
/// substep allocates nothing.
struct Sweep {
    /// Quantities of the row being updated and of the row above it.
    row: Derived,
    above: Derived,
    /// Quantities of the top row, computed first for the periodic wrap
    /// face and moved into `above` when the sweep reaches that row.
    top: Derived,
    /// x-face fluxes of the row being updated.
    xf: Faces,
    /// y-face fluxes below and above the row being updated.
    down: Faces,
    up: Faces,
    /// Flux across the periodic wrap face (top row to row 0).
    wrap: Faces,
    /// Substeps run the AVX2 entry. Set once, from CPUID: the entry is
    /// sound only where the CPU has AVX2.
    avx2: bool,
}

impl Sweep {
    fn new(nx: usize) -> Self {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Self {
            row: Derived::new(nx),
            above: Derived::new(nx),
            top: Derived::new(nx),
            xf: faces(nx + 1),
            down: faces(nx),
            up: faces(nx),
            wrap: faces(nx),
            avx2,
        }
    }

    /// One Rusanov substep from `cur` into `next` with `lam = dt/dx`,
    /// through the entry chosen at construction.
    fn substep(&mut self, cur: &Conserved, next: &mut Conserved, lam: f64) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `avx2` is set only where the CPU reports AVX2
            // (`Sweep::new`).
            return unsafe { self.substep_avx2(cur, next, lam) };
        }
        self.sweep(cur, next, lam);
    }

    /// [`Sweep::sweep`] compiled for AVX2: four cells per instruction
    /// in every slice loop.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn substep_avx2(&mut self, cur: &Conserved, next: &mut Conserved, lam: f64) {
        self.sweep(cur, next, lam);
    }

    /// The substep's body: rows bottom to top, each face flux computed
    /// once and applied to the two cells it separates. Ghosts are
    /// reflective in x and periodic in y. Every loop runs over slices
    /// with no carried dependency, so the compiler vectorizes it for
    /// whichever entry inlines it.
    #[inline(always)]
    fn sweep(&mut self, cur: &Conserved, next: &mut Conserved, lam: f64) {
        let ny = cur.rho.domain().extent().y;
        self.top.fill(cur, ny - 1);
        self.row.fill(cur, 0);
        y_faces(
            cur.rows(ny - 1),
            &self.top,
            cur.rows(0),
            &self.row,
            &mut self.wrap,
        );
        for (d, w) in self.down.iter_mut().zip(&self.wrap) {
            d.copy_from_slice(w);
        }
        for y in 0..ny {
            if y + 1 < ny {
                if y + 1 == ny - 1 {
                    std::mem::swap(&mut self.above, &mut self.top);
                } else {
                    self.above.fill(cur, y + 1);
                }
                y_faces(
                    cur.rows(y),
                    &self.row,
                    cur.rows(y + 1),
                    &self.above,
                    &mut self.up,
                );
            } else {
                for (u, w) in self.up.iter_mut().zip(&self.wrap) {
                    u.copy_from_slice(w);
                }
            }
            x_faces(cur.rows(y), &self.row, &mut self.xf);
            update(
                cur.rows(y),
                &self.xf,
                &self.down,
                &self.up,
                lam,
                next.rows_mut(y),
            );
            std::mem::swap(&mut self.down, &mut self.up);
            std::mem::swap(&mut self.row, &mut self.above);
        }
    }
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
                let (mx, my) = (r * u, 0.0);
                cur.rho.set(at, r);
                cur.mx.set(at, mx);
                cur.my.set(at, my);
                cur.en.set(at, p / (GAMMA - 1.0) + 0.5 * r * u * u);
                cur.ke.set(at, 0.5 * (mx * mx + my * my) / r);
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
pub(crate) mod tests {
    use super::*;
    use crate::kernel::oracle::{assert_lockstep, Oracle};

    fn kernel() -> Rm2d {
        Rm2d::new(24, 20, 5)
    }

    /// The sweep's entries this CPU runs: the baseline (`avx2` forced
    /// off), and the AVX2 entry when CPUID chose it.
    pub(crate) fn tiers() -> Vec<bool> {
        if Sweep::new(1).avx2 {
            vec![false, true]
        } else {
            vec![false]
        }
    }

    /// A kernel whose sweep runs the entry `avx2` names; it must be one
    /// of [`tiers`].
    pub(crate) fn on_tier(mut k: Rm2d, avx2: bool) -> Rm2d {
        assert!(tiers().contains(&avx2), "the AVX2 entry needs AVX2");
        k.sweep.avx2 = avx2;
        k
    }

    /// The sweep on every entry of [`tiers`] against the per-cell
    /// stencil, bit for bit.
    pub(crate) fn assert_every_tier_matches_reference(n: i64, steps: u32, seed: u64) {
        for avx2 in tiers() {
            let sweep = on_tier(Rm2d::new(n, steps, seed), avx2);
            let what = format!("n={n} seed={seed} avx2={avx2}");
            assert_lockstep(sweep, Rm2d::new(n, steps, seed), steps, &what);
        }
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
            assert_every_tier_matches_reference(n, steps, seed);
        }
    }

    #[test]
    fn carried_kinetic_energy_is_the_states() {
        for avx2 in tiers() {
            let mut k = on_tier(Rm2d::new(8, 4, 2004), avx2);
            k.advance_coarse_step();
            k.advance_coarse_step();
            let c = &k.cur;
            let recomputed: Vec<u64> = (c.rho.data().iter().zip(c.mx.data()).zip(c.my.data()))
                .map(|((rho, mx), my)| (0.5 * (mx * mx + my * my) / rho).to_bits())
                .collect();
            let carried: Vec<u64> = c.ke.data().iter().map(|v| v.to_bits()).collect();
            assert!(carried == recomputed, "avx2={avx2}");
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
        // Reflective x: the ghost mirrors the edge cell with flipped u
        // in the reference's ghost reads, and the sweep's wall faces
        // carry the flux against that mirror image.
        let c = &k.cur;
        let inside = state(c, 0, 3);
        let ghost = state(c, -1, 3);
        assert_eq!(inside[0], ghost[0]);
        assert_eq!(inside[1], -ghost[1]);
        assert_ne!(inside[1], 0.0);
        let mut d = Derived::new(k.nx as usize);
        d.fill(c, 3);
        let mut xf = faces(k.nx as usize + 1);
        x_faces(c.rows(3), &d, &mut xf);
        let bits = |f: State| f.map(f64::to_bits);
        let face = |i: usize| bits(xf.each_ref().map(|f| f[i]));
        assert_eq!(face(0), bits(rusanov_axis(&ghost, &inside, 0)));
        let (edge, mirror) = (state(c, k.nx - 1, 3), state(c, k.nx, 3));
        assert_eq!(face(k.nx as usize), bits(rusanov_axis(&edge, &mirror, 0)));
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
        assert!(k.sampler()([0.95, 0.5]) < 0.05);
    }

    #[test]
    fn aspect_is_two_to_one() {
        assert_eq!(kernel().aspect(), (2, 1));
    }
}
