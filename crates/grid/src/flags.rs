//! Refinement flag fields, generic over the dimension.

use samr_geom::dense::{accumulate_set, count_set, first_set, last_set, Grid};
use samr_geom::{AABox, Axis, Point};

/// A boolean mask over a box domain marking cells that need refinement.
///
/// Application error estimators produce one `FlagField` per level at every
/// regrid; the Berger–Rigoutsos clusterer turns it into patch boxes. The
/// field also supports the standard *flag buffering* step (dilating the
/// flagged set) that keeps features inside their refined patches until the
/// next regrid — the paper's applications regrid every 4 steps per level,
/// so features can drift a few cells between regrids.
///
/// The flagged-cell total is maintained incrementally by every mutator,
/// so [`FlagField::count`] — which the clusterer's efficiency test calls
/// once per candidate box — is O(1) instead of a full-domain scan; debug
/// builds assert the counter against the scan. The scans themselves
/// (window counts, signatures, bounding box) walk contiguous runs eight
/// cells per step (see [`samr_geom::dense::count_set`]).
#[derive(Clone, PartialEq, Debug)]
pub struct FlagField<const D: usize> {
    grid: Grid<bool, D>,
    /// Number of `true` cells in `grid`, maintained by `set`/`set_rect`.
    set_count: u64,
}

impl<const D: usize> FlagField<D> {
    /// An all-clear flag field over `domain`.
    pub fn new(domain: AABox<D>) -> Self {
        Self {
            grid: Grid::new(domain, false),
            set_count: 0,
        }
    }

    /// Build from a predicate evaluated at every cell.
    pub fn from_fn(domain: AABox<D>, f: impl FnMut(Point<D>) -> bool) -> Self {
        let grid = Grid::from_fn(domain, f);
        let set_count = grid.count_true();
        Self { grid, set_count }
    }

    /// The domain of the mask.
    pub fn domain(&self) -> AABox<D> {
        self.grid.domain()
    }

    /// Is the cell flagged? Cells outside the domain read as unflagged.
    #[inline]
    pub fn is_set(&self, p: Point<D>) -> bool {
        self.grid.domain().contains_point(p) && *self.grid.get(p)
    }

    /// Flag one cell (ignored when outside the domain).
    #[inline]
    pub fn set(&mut self, p: Point<D>) {
        if self.grid.domain().contains_point(p) && !*self.grid.get(p) {
            self.grid.set(p, true);
            self.set_count += 1;
        }
    }

    /// Flag every cell of `rect` (clipped to the domain).
    pub fn set_rect(&mut self, rect: &AABox<D>) {
        if let Some(w) = self.grid.domain().intersect(rect) {
            let already = self.grid.count_true_in(&w);
            self.grid.fill_in(&w, true);
            self.set_count += w.cells() - already;
        }
    }

    /// Bulk row-major flag marking: visit every axis-0-contiguous run of
    /// `window` (clipped to the domain) as a mutable `bool` slice and let
    /// `f` write cells directly — the error-estimator hot loop, which
    /// would otherwise pay a bounds-checked [`FlagField::set`] per cell.
    /// The maintained flag counter is refreshed from word-at-a-time run
    /// counts before and after each visit, so `f` may set (or clear)
    /// any subset of a run and the O(1) [`FlagField::count`] stays exact.
    pub fn mark_rows(&mut self, window: &AABox<D>, mut f: impl FnMut(Point<D>, &mut [bool])) {
        let Some(w) = self.grid.domain().intersect(window) else {
            return;
        };
        let mut delta = 0i64;
        self.grid.for_each_run_mut(&w, |row, run| {
            let before = count_set(run);
            f(row, run);
            delta += count_set(run) as i64 - before as i64;
        });
        self.set_count = self
            .set_count
            .checked_add_signed(delta)
            .expect("flag counter underflow");
    }

    /// Number of flagged cells.
    pub fn count(&self) -> u64 {
        debug_assert_eq!(
            self.set_count,
            self.grid.count_true(),
            "maintained flag counter diverged from the full scan"
        );
        self.set_count
    }

    /// Number of flagged cells inside `window`.
    pub fn count_in(&self, window: &AABox<D>) -> u64 {
        self.grid.count_true_in(window)
    }

    /// `true` if no cell is flagged.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Tightest box containing all flagged cells, or `None` if empty.
    pub fn bounding_box(&self) -> Option<AABox<D>> {
        if self.is_empty() {
            return None;
        }
        let mut lo = Point::<D>::splat(i64::MAX);
        let mut hi = Point::<D>::splat(i64::MIN);
        for (row, run) in self.grid.runs_in(&self.grid.domain()) {
            let Some(first) = first_set(run) else {
                continue;
            };
            let last = last_set(run).expect("run has a first set cell");
            lo[0] = lo[0].min(row[0] + first as i64);
            hi[0] = hi[0].max(row[0] + last as i64);
            for i in 1..D {
                lo[i] = lo[i].min(row[i]);
                hi[i] = hi[i].max(row[i]);
            }
        }
        Some(AABox::new(lo, hi))
    }

    /// Dilate the flagged set by `buffer` cells in the Chebyshev metric
    /// (the standard SAMR flag-buffer step), clipped to the domain.
    pub fn buffer(&self, buffer: i64) -> FlagField<D> {
        assert!(buffer >= 0);
        if buffer == 0 {
            return self.clone();
        }
        let d = self.grid.domain();
        let mut out = FlagField::new(d);
        for (row, run) in self.grid.runs_in(&d) {
            let mut off = 0usize;
            while let Some(i) = first_set(&run[off..]) {
                let mut p = row;
                p[0] += (off + i) as i64;
                out.set_rect(&AABox::cell(p).grow(buffer));
                off += i + 1;
            }
        }
        out
    }

    /// Signature along `axis` within `window`: flagged-cell count for
    /// each coordinate slice perpendicular to `axis`. Clipped to the
    /// domain; `window` must intersect the domain. `signature(Axis::X, w)`
    /// is the column signature (one count per `x`), `signature(Axis::Y,
    /// w)` the row signature.
    pub fn signature(&self, axis: Axis, window: &AABox<D>) -> Vec<u32> {
        let mut sig = Vec::new();
        self.signature_into(axis, window, &mut sig);
        sig
    }

    /// [`FlagField::signature`] into a caller-owned buffer, so hot loops
    /// (the Berger–Rigoutsos recursion computes several signatures per
    /// candidate box) reuse one allocation instead of building a fresh
    /// `Vec` per scan. `sig` is cleared and resized to the window extent.
    pub fn signature_into(&self, axis: Axis, window: &AABox<D>, sig: &mut Vec<u32>) {
        let w = self
            .grid
            .domain()
            .intersect(window)
            .expect("signature window outside flag domain");
        let a = axis.index();
        sig.clear();
        sig.resize(w.extent()[a] as usize, 0);
        if a == 0 {
            // The signature axis is the contiguous axis: accumulate each
            // run element-wise (all-clear words skip in one compare).
            for (_, run) in self.grid.runs_in(&w) {
                accumulate_set(run, sig);
            }
        } else {
            // Every cell of a run shares its coordinate on `axis`: one
            // word-wise popcount per run.
            for (row, run) in self.grid.runs_in(&w) {
                sig[(row[a] - w.lo()[a]) as usize] += count_set(run) as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::{Box3, Point2, Point3, Rect2};

    fn d() -> Rect2 {
        Rect2::from_extents(8, 8)
    }

    #[test]
    fn set_and_query() {
        let mut f = FlagField::new(d());
        assert!(f.is_empty());
        f.set(Point2::new(3, 4));
        assert!(f.is_set(Point2::new(3, 4)));
        assert!(!f.is_set(Point2::new(4, 3)));
        assert!(!f.is_set(Point2::new(100, 100))); // outside: unflagged
        assert_eq!(f.count(), 1);
    }

    #[test]
    fn set_outside_is_ignored() {
        let mut f = FlagField::new(d());
        f.set(Point2::new(-1, 0));
        assert!(f.is_empty());
    }

    #[test]
    fn set_rect_clips() {
        let mut f = FlagField::new(d());
        f.set_rect(&Rect2::from_coords(6, 6, 10, 10));
        assert_eq!(f.count(), 4); // only [6..7]^2 is inside
    }

    #[test]
    fn bounding_box_tightens() {
        let mut f = FlagField::new(d());
        assert_eq!(f.bounding_box(), None);
        f.set(Point2::new(2, 3));
        f.set(Point2::new(5, 6));
        assert_eq!(f.bounding_box(), Some(Rect2::from_coords(2, 3, 5, 6)));
    }

    #[test]
    fn buffer_dilates_chebyshev() {
        let mut f = FlagField::new(d());
        f.set(Point2::new(4, 4));
        let b = f.buffer(1);
        assert_eq!(b.count(), 9);
        assert!(b.is_set(Point2::new(3, 3)));
        assert!(b.is_set(Point2::new(5, 5)));
        assert!(!b.is_set(Point2::new(2, 4)));
        // Buffering at the domain edge clips.
        let mut e = FlagField::new(d());
        e.set(Point2::new(0, 0));
        assert_eq!(e.buffer(1).count(), 4);
    }

    #[test]
    fn buffer_zero_is_identity() {
        let f = FlagField::from_fn(d(), |p| p.x == p.y);
        assert_eq!(f.buffer(0), f);
    }

    #[test]
    fn signatures_count_rows_and_columns() {
        let f = FlagField::from_fn(d(), |p| p.x >= 2 && p.x <= 3 && p.y >= 1 && p.y <= 4);
        let w = Rect2::from_coords(0, 0, 7, 7);
        let sx = f.signature(Axis::X, &w);
        let sy = f.signature(Axis::Y, &w);
        assert_eq!(sx, vec![0, 0, 4, 4, 0, 0, 0, 0]);
        assert_eq!(sy, vec![0, 2, 2, 2, 2, 0, 0, 0]);
        assert_eq!(sx.iter().map(|&v| v as u64).sum::<u64>(), f.count());
    }

    #[test]
    fn signatures_respect_window() {
        let f = FlagField::from_fn(d(), |_| true);
        let w = Rect2::from_coords(2, 3, 4, 5);
        assert_eq!(f.signature(Axis::X, &w), vec![3, 3, 3]);
        assert_eq!(f.signature(Axis::Y, &w), vec![3, 3, 3]);
    }

    #[test]
    fn mark_rows_matches_per_cell_set() {
        // Row-wise marking must agree with per-cell `set` — cells,
        // counter, and clipping — including over already-set cells and
        // a window that escapes the domain.
        let pred = |p: Point2| (p.x * 5 + p.y * 3) % 7 < 2;
        let windows = [
            Rect2::from_coords(1, 2, 6, 5),
            Rect2::from_coords(4, 4, 11, 11),   // clips
            Rect2::from_coords(-3, -3, -1, -1), // fully outside
        ];
        let mut by_set = FlagField::new(d());
        let mut by_rows = FlagField::new(d());
        by_set.set(Point2::new(2, 3));
        by_rows.set(Point2::new(2, 3));
        for w in &windows {
            for p in w.iter_cells() {
                if pred(p) {
                    by_set.set(p);
                }
            }
            by_rows.mark_rows(w, |row, run| {
                for (k, cell) in run.iter_mut().enumerate() {
                    let p = Point2::new(row.x + k as i64, row.y);
                    if pred(p) {
                        *cell = true;
                    }
                }
            });
        }
        assert_eq!(by_set, by_rows);
        assert_eq!(by_set.count(), by_rows.count());
        // A closure that clears cells keeps the counter exact too.
        by_rows.mark_rows(&Rect2::from_coords(0, 0, 7, 3), |_, run| run.fill(false));
        let live = by_rows.count();
        assert_eq!(
            live,
            by_rows
                .domain()
                .iter_cells()
                .filter(|&p| by_rows.is_set(p))
                .count() as u64
        );
    }

    #[test]
    fn three_d_flags_and_signatures() {
        let dom = Box3::from_extents(6, 6, 6);
        let f = FlagField::from_fn(dom, |p| p.z == 2 && p.x >= 1 && p.x <= 3);
        assert_eq!(f.count(), 3 * 6);
        assert_eq!(f.bounding_box(), Some(Box3::from_coords(1, 0, 2, 3, 5, 2)));
        let sig_z = f.signature(Axis::Z, &dom);
        assert_eq!(sig_z, vec![0, 0, 18, 0, 0, 0]);
        let sig_x = f.signature(Axis::X, &dom);
        assert_eq!(sig_x, vec![0, 6, 6, 6, 0, 0]);
        let b = f.buffer(1);
        assert!(b.is_set(Point3::new(1, 0, 1)));
        assert!(b.is_set(Point3::new(4, 0, 3)));
        assert!(!b.is_set(Point3::new(5, 0, 0)));
    }
}
