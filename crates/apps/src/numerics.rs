//! Shared numerics for the reference solvers: clamped stencil access,
//! gradient indicators and bilinear sampling. The solvers' substeps are
//! serial row sweeps; a kernel starts no threads of its own, so trace
//! generation runs on whichever pool thread drives it.

use samr_geom::{Grid2, Point2, Rect2};

/// Read a cell with coordinates clamped to the domain (zero-gradient /
/// outflow extrapolation at walls).
#[inline]
pub fn clamped(g: &Grid2<f64>, x: i64, y: i64) -> f64 {
    let d = g.domain();
    let cx = x.clamp(d.lo().x, d.hi().x);
    let cy = y.clamp(d.lo().y, d.hi().y);
    *g.get(Point2::new(cx, cy))
}

/// Central-difference gradient magnitude of `g`, written into `out`
/// (both over the same domain). Units: per cell width.
///
/// One row-slice pass: the three stencil rows (y-1, y, y+1, clamped)
/// are fetched once per row and every cell is a handful of slice reads
/// instead of four `clamped` point lookups — same cells, same
/// operations, bit-identical results.
pub fn gradient_magnitude(g: &Grid2<f64>, out: &mut Grid2<f64>) {
    let d = g.domain();
    assert_eq!(d, out.domain());
    let nx = d.extent().x as usize;
    for y in d.lo().y..=d.hi().y {
        let cur = g.row(y);
        let up = g.row((y + 1).min(d.hi().y));
        let down = g.row((y - 1).max(d.lo().y));
        let row_out = out.row_mut(y);
        for i in 0..nx {
            let gx = 0.5 * (cur[(i + 1).min(nx - 1)] - cur[i.saturating_sub(1)]);
            let gy = 0.5 * (up[i] - down[i]);
            row_out[i] = (gx * gx + gy * gy).sqrt();
        }
    }
}

/// Normalize `g` in place to `[0, 1]` by its maximum absolute value; an
/// all-zero field stays zero. Returns the maximum used.
pub fn normalize_max(g: &mut Grid2<f64>) -> f64 {
    let m = g.max_abs();
    if m > 0.0 {
        let inv = 1.0 / m;
        for v in g.data_mut() {
            *v *= inv;
        }
    }
    m
}

/// Bilinear sample of a cell-centered grid at *unit-square* coordinates
/// `(u, v) ∈ [0,1]²` mapped over the grid's domain. Values outside are
/// clamped.
pub fn sample_unit(g: &Grid2<f64>, u: f64, v: f64) -> f64 {
    let d = g.domain();
    let nx = d.extent().x as f64;
    let ny = d.extent().y as f64;
    // Cell centers sit at (i + 0.5) / n in unit coordinates.
    let fx = (u * nx - 0.5).clamp(0.0, nx - 1.0);
    let fy = (v * ny - 0.5).clamp(0.0, ny - 1.0);
    let x0 = fx.floor();
    let y0 = fy.floor();
    let tx = fx - x0;
    let ty = fy - y0;
    let (x0, y0) = (d.lo().x + x0 as i64, d.lo().y + y0 as i64);
    let s00 = clamped(g, x0, y0);
    let s10 = clamped(g, x0 + 1, y0);
    let s01 = clamped(g, x0, y0 + 1);
    let s11 = clamped(g, x0 + 1, y0 + 1);
    s00 * (1.0 - tx) * (1.0 - ty) + s10 * tx * (1.0 - ty) + s01 * (1.0 - tx) * ty + s11 * tx * ty
}

/// Allocate a zero field over `[0,nx-1] x [0,ny-1]`.
pub fn zeros(nx: i64, ny: i64) -> Grid2<f64> {
    Grid2::new(Rect2::from_extents(nx, ny), 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamped_extends_edges() {
        let g = Grid2::from_fn(Rect2::from_extents(3, 3), |p| (p.x + 10 * p.y) as f64);
        assert_eq!(clamped(&g, -5, 0), 0.0);
        assert_eq!(clamped(&g, 5, 2), 22.0);
        assert_eq!(clamped(&g, 1, -1), 1.0);
    }

    #[test]
    fn gradient_of_linear_ramp_is_constant() {
        let g = Grid2::from_fn(Rect2::from_extents(8, 8), |p| 3.0 * p.x as f64);
        let mut out = zeros(8, 8);
        gradient_magnitude(&g, &mut out);
        // Interior cells see the exact slope 3; edges see half (clamped).
        assert!((out.get(Point2::new(4, 4)) - 3.0).abs() < 1e-12);
        assert!((out.get(Point2::new(0, 4)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn normalize_max_scales_to_unit() {
        let mut g = Grid2::from_fn(Rect2::from_extents(4, 4), |p| -(p.x as f64));
        let m = normalize_max(&mut g);
        assert_eq!(m, 3.0);
        assert_eq!(g.max_abs(), 1.0);
        let mut z = zeros(4, 4);
        assert_eq!(normalize_max(&mut z), 0.0);
    }

    #[test]
    fn sample_unit_reproduces_cell_centers() {
        let g = Grid2::from_fn(Rect2::from_extents(4, 4), |p| p.x as f64);
        // Center of cell (2, y) is at u = 2.5/4.
        let v = sample_unit(&g, 2.5 / 4.0, 0.5);
        assert!((v - 2.0).abs() < 1e-12);
        // Halfway between cells 1 and 2.
        let v = sample_unit(&g, 2.0 / 4.0, 0.5);
        assert!((v - 1.5).abs() < 1e-12);
        // Clamped outside.
        assert!((sample_unit(&g, -1.0, 0.5) - 0.0).abs() < 1e-12);
        assert!((sample_unit(&g, 2.0, 0.5) - 3.0).abs() < 1e-12);
    }
}
