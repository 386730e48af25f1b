//! Dense rectangular buffers over a box domain, generic over the
//! dimension.

use crate::point::Point;
use crate::rect::AABox;

/// A dense, row-major `D`-dimensional array of `T` covering the cells of
/// an [`AABox`].
///
/// Used for solution fields in the application kernels and for refinement
/// flag masks feeding the Berger–Rigoutsos clusterer. Indexing is by
/// global cell coordinates (the domain's own index space), which keeps
/// solver stencils and flag transfers free of per-patch offset
/// bookkeeping.
#[derive(Clone, PartialEq, Debug)]
pub struct Grid<T, const D: usize> {
    domain: AABox<D>,
    data: Vec<T>,
}

/// 2-D dense grid (the historical `Grid2` of the 2-D code base).
pub type Grid2<T> = Grid<T, 2>;

/// 3-D dense grid.
pub type Grid3<T> = Grid<T, 3>;

impl<T: Clone, const D: usize> Grid<T, D> {
    /// Allocate a grid over `domain`, filled with `fill`.
    pub fn new(domain: AABox<D>, fill: T) -> Self {
        let n = domain.cells() as usize;
        Self {
            domain,
            data: vec![fill; n],
        }
    }

    /// Re-fill every cell with `value` (reuses the allocation).
    pub fn fill(&mut self, value: T) {
        for v in &mut self.data {
            *v = value.clone();
        }
    }
}

impl<T, const D: usize> Grid<T, D> {
    /// Build a grid from a closure evaluated at every cell in row-major
    /// order.
    pub fn from_fn(domain: AABox<D>, mut f: impl FnMut(Point<D>) -> T) -> Self {
        let mut data = Vec::with_capacity(domain.cells() as usize);
        for p in domain.iter_cells() {
            data.push(f(p));
        }
        Self { domain, data }
    }

    /// The box this grid covers.
    #[inline]
    pub fn domain(&self) -> AABox<D> {
        self.domain
    }

    /// Immutable access to a cell.
    #[inline]
    pub fn get(&self, p: Point<D>) -> &T {
        &self.data[self.domain.linear_index(p)]
    }

    /// Mutable access to a cell.
    #[inline]
    pub fn get_mut(&mut self, p: Point<D>) -> &mut T {
        let i = self.domain.linear_index(p);
        &mut self.data[i]
    }

    /// Set a cell.
    #[inline]
    pub fn set(&mut self, p: Point<D>, v: T) {
        let i = self.domain.linear_index(p);
        self.data[i] = v;
    }

    /// Raw row-major data slice.
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Raw mutable row-major data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Iterate `(cell, &value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Point<D>, &T)> + '_ {
        self.domain.iter_cells().zip(self.data.iter())
    }

    /// The axis-0-contiguous runs of `window` as `(run start cell,
    /// backing slice)` pairs in row-major order — the hot-loop iteration
    /// (signatures, window counts, flag scans) that pays one
    /// `linear_index` per run instead of one per cell. `window` must lie
    /// inside the domain.
    pub fn runs_in<'a>(
        &'a self,
        window: &AABox<D>,
    ) -> impl Iterator<Item = (Point<D>, &'a [T])> + 'a {
        debug_assert!(self.domain.contains_rect(window), "{window:?} escapes");
        let len0 = window.extent()[0] as usize;
        Self::rows_of(window).map(move |row| {
            let start = self.domain.linear_index(row);
            (row, &self.data[start..start + len0])
        })
    }

    /// Overwrite every cell of `window` (which must lie inside the
    /// domain) with `value`, one contiguous run at a time.
    pub fn fill_in(&mut self, window: &AABox<D>, value: T)
    where
        T: Clone,
    {
        debug_assert!(self.domain.contains_rect(window), "{window:?} escapes");
        let len0 = window.extent()[0] as usize;
        for row in Self::rows_of(window) {
            let start = self.domain.linear_index(row);
            for v in &mut self.data[start..start + len0] {
                *v = value.clone();
            }
        }
    }

    /// Visit every axis-0-contiguous run of `window` as `(run start
    /// cell, mutable backing slice)` in row-major order — the writable
    /// counterpart of [`Grid::runs_in`], paying one `linear_index` per
    /// run instead of one bounds-checked `set` per cell. `window` must
    /// lie inside the domain.
    pub fn for_each_run_mut(&mut self, window: &AABox<D>, mut f: impl FnMut(Point<D>, &mut [T])) {
        debug_assert!(self.domain.contains_rect(window), "{window:?} escapes");
        let len0 = window.extent()[0] as usize;
        for row in Self::rows_of(window) {
            let start = self.domain.linear_index(row);
            f(row, &mut self.data[start..start + len0]);
        }
    }

    /// The start point of every axis-0 run of `window`, in row-major
    /// order.
    fn rows_of(window: &AABox<D>) -> impl Iterator<Item = Point<D>> {
        let lo = window.lo();
        let e = window.extent();
        let rows: u64 = (1..D).map(|i| e[i] as u64).product();
        (0..rows).map(move |idx| {
            let mut rest = idx;
            Point::from_fn(|i| {
                if i == 0 {
                    lo[0]
                } else {
                    let w = e[i] as u64;
                    let c = lo[i] + (rest % w) as i64;
                    rest /= w;
                    c
                }
            })
        })
    }
}

impl<T> Grid<T, 2> {
    /// One row of the grid as a slice (cells `lo.x ..= hi.x` at height
    /// `y`).
    #[inline]
    pub fn row(&self, y: i64) -> &[T] {
        let w = self.domain.extent().x as usize;
        let start = self
            .domain
            .linear_index(Point::<2>::new(self.domain.lo().x, y));
        &self.data[start..start + w]
    }

    /// One row of the grid as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, y: i64) -> &mut [T] {
        let w = self.domain.extent().x as usize;
        let start = self
            .domain
            .linear_index(Point::<2>::new(self.domain.lo().x, y));
        &mut self.data[start..start + w]
    }
}

impl<const D: usize> Grid<bool, D> {
    /// Count the `true` cells (flagged cells for the clusterer).
    pub fn count_true(&self) -> u64 {
        count_set(&self.data)
    }

    /// Count the `true` cells inside `window`.
    pub fn count_true_in(&self, window: &AABox<D>) -> u64 {
        match self.domain.intersect(window) {
            None => 0,
            Some(w) => self.runs_in(&w).map(|(_, run)| count_set(run)).sum(),
        }
    }
}

// ---------------------------------------------------------------------
// Word-at-a-time scans over contiguous `bool` runs.
//
// Flag-field scans (counts, signatures, bounding boxes) spend their time
// walking `&[bool]` runs cell by cell. A `bool` is guaranteed to be one
// byte holding 0x00 or 0x01, so a run can be read eight cells at a time
// as `u64` words: a word's popcount is its number of set cells, a zero
// word is eight clear cells skipped in one compare, and the first/last
// set cell of a word falls out of trailing/leading zero counts.

/// The raw bytes of a `bool` run.
#[inline]
fn bool_bytes(run: &[bool]) -> &[u8] {
    // SAFETY: `bool` has size 1, alignment 1 and the validity invariant
    // that its byte is 0x00 or 0x01, so any `&[bool]` is a valid `&[u8]`
    // of the same length.
    unsafe { std::slice::from_raw_parts(run.as_ptr().cast::<u8>(), run.len()) }
}

#[inline]
fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"))
}

/// Number of `true` cells in a run, eight cells per step.
pub fn count_set(run: &[bool]) -> u64 {
    let bytes = bool_bytes(run);
    let mut chunks = bytes.chunks_exact(8);
    let mut n = 0u64;
    for c in &mut chunks {
        n += u64::from(word(c).count_ones());
    }
    n + chunks
        .remainder()
        .iter()
        .map(|&b| u64::from(b))
        .sum::<u64>()
}

/// Index of the first `true` cell of a run, skipping clear cells eight
/// at a time.
pub fn first_set(run: &[bool]) -> Option<usize> {
    let bytes = bool_bytes(run);
    let mut chunks = bytes.chunks_exact(8);
    for (i, c) in chunks.by_ref().enumerate() {
        let w = word(c);
        if w != 0 {
            return Some(i * 8 + (w.trailing_zeros() / 8) as usize);
        }
    }
    let tail = chunks.remainder();
    let base = bytes.len() - tail.len();
    tail.iter().position(|&b| b != 0).map(|i| base + i)
}

/// Index of the last `true` cell of a run, scanning from the back eight
/// cells at a time.
pub fn last_set(run: &[bool]) -> Option<usize> {
    let bytes = bool_bytes(run);
    let mut chunks = bytes.rchunks_exact(8);
    for (i, c) in chunks.by_ref().enumerate() {
        let w = word(c);
        if w != 0 {
            let start = bytes.len() - (i + 1) * 8;
            return Some(start + 7 - (w.leading_zeros() / 8) as usize);
        }
    }
    // `rchunks_exact` leaves the *front* of the slice as its remainder.
    chunks.remainder().iter().rposition(|&b| b != 0)
}

/// Add each cell of a run (as 0/1) into `out` element-wise — the inner
/// loop of the flag-signature scan. All-clear words contribute nothing
/// and are skipped in one compare.
pub fn accumulate_set(run: &[bool], out: &mut [u32]) {
    debug_assert_eq!(run.len(), out.len());
    let bytes = bool_bytes(run);
    let mut chunks = bytes.chunks_exact(8);
    let mut i = 0usize;
    for c in &mut chunks {
        let w = word(c);
        if w != 0 {
            for (k, o) in out[i..i + 8].iter_mut().enumerate() {
                *o += ((w >> (8 * k)) & 1) as u32;
            }
        }
        i += 8;
    }
    for (o, &b) in out[i..].iter_mut().zip(chunks.remainder()) {
        *o += u32::from(b);
    }
}

impl<const D: usize> Grid<f64, D> {
    /// Maximum absolute value over the grid (0.0 for an all-zero grid).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Sum of all values.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{Point2, Point3};
    use crate::rect::{Box3, Rect2};

    fn dom() -> Rect2 {
        Rect2::from_coords(-1, -1, 2, 1)
    }

    #[test]
    fn new_fills() {
        let g = Grid2::new(dom(), 7i32);
        assert_eq!(g.data().len(), 12);
        assert!(g.data().iter().all(|&v| v == 7));
    }

    #[test]
    fn from_fn_and_get() {
        let g = Grid2::from_fn(dom(), |p| p.x * 10 + p.y);
        assert_eq!(*g.get(Point2::new(-1, -1)), -11);
        assert_eq!(*g.get(Point2::new(2, 1)), 21);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut g = Grid2::new(dom(), 0i64);
        g.set(Point2::new(0, 0), 42);
        *g.get_mut(Point2::new(1, 1)) = 9;
        assert_eq!(*g.get(Point2::new(0, 0)), 42);
        assert_eq!(*g.get(Point2::new(1, 1)), 9);
    }

    #[test]
    fn rows_are_contiguous() {
        let g = Grid2::from_fn(dom(), |p| p.x);
        assert_eq!(g.row(0), &[-1, 0, 1, 2]);
        let mut g = g;
        g.row_mut(1)[0] = 99;
        assert_eq!(*g.get(Point2::new(-1, 1)), 99);
    }

    #[test]
    fn iter_matches_domain_order() {
        let g = Grid2::from_fn(dom(), |p| p);
        for (p, v) in g.iter() {
            assert_eq!(p, *v);
        }
    }

    #[test]
    fn bool_counts() {
        let g = Grid2::from_fn(dom(), |p| p.x >= 0);
        assert_eq!(g.count_true(), 9);
        assert_eq!(g.count_true_in(&Rect2::from_coords(0, 0, 2, 1)), 6);
        assert_eq!(g.count_true_in(&Rect2::from_coords(5, 5, 6, 6)), 0);
        // Window partially outside the domain clips.
        assert_eq!(g.count_true_in(&Rect2::from_coords(2, 1, 10, 10)), 1);
    }

    #[test]
    fn f64_reductions() {
        let g = Grid2::from_fn(dom(), |p| -(p.x as f64));
        assert_eq!(g.max_abs(), 2.0);
        assert!((g.sum() - (-6.0)).abs() < 1e-12);
    }

    #[test]
    fn fill_resets() {
        let mut g = Grid2::new(dom(), 1u8);
        g.fill(3);
        assert!(g.data().iter().all(|&v| v == 3));
    }

    #[test]
    fn bool_scans_match_per_cell_reference() {
        // Lengths straddling the 8-cell word boundary, patterns with the
        // set cells at every position within a word.
        for len in [0usize, 1, 5, 7, 8, 9, 15, 16, 17, 40, 63, 64, 65] {
            for pat in 0..6u64 {
                let run: Vec<bool> = (0..len)
                    .map(|i| match pat {
                        0 => false,
                        1 => true,
                        2 => i % 3 == 0,
                        3 => i == len - 1,
                        4 => i == 0,
                        _ => (i * 7 + 3) % 11 == 0,
                    })
                    .collect();
                let reference = run.iter().filter(|&&b| b).count() as u64;
                assert_eq!(count_set(&run), reference, "count len={len} pat={pat}");
                assert_eq!(
                    first_set(&run),
                    run.iter().position(|&b| b),
                    "first len={len} pat={pat}"
                );
                assert_eq!(
                    last_set(&run),
                    run.iter().rposition(|&b| b),
                    "last len={len} pat={pat}"
                );
                let mut acc = vec![7u32; len];
                accumulate_set(&run, &mut acc);
                for (i, (&a, &b)) in acc.iter().zip(&run).enumerate() {
                    assert_eq!(a, 7 + u32::from(b), "acc[{i}] len={len} pat={pat}");
                }
            }
        }
    }

    #[test]
    fn three_d_grid_roundtrip() {
        let d = Box3::from_extents(3, 2, 4);
        let mut g = Grid3::from_fn(d, |p| p.x + 10 * p.y + 100 * p.z);
        assert_eq!(g.data().len(), 24);
        assert_eq!(*g.get(Point3::new(2, 1, 3)), 2 + 10 + 300);
        g.set(Point3::new(0, 0, 0), -5);
        assert_eq!(*g.get(Point3::new(0, 0, 0)), -5);
        let flags = Grid3::from_fn(d, |p| p.z == 1);
        assert_eq!(flags.count_true(), 6);
        assert_eq!(flags.count_true_in(&Box3::from_coords(0, 0, 1, 0, 1, 2)), 2);
    }
}
