//! Berger–Rigoutsos point clustering: flags to patch boxes, generic over
//! the dimension.
//!
//! The clusterer reproduces the grid-generation step of the Berger–Colella
//! SAMR algorithm that the paper's applications (GrACE kernels) use: given
//! the refinement flag mask of a level, produce a small set of boxes
//! covering all flags with at least a target *efficiency* (flagged cells /
//! box cells), splitting candidate boxes at signature holes, then at
//! Laplacian inflection points, then by bisection. The paper's set-up fixes
//! the *granularity* (minimum block dimension) at 2; every emitted box
//! respects it by construction. The same signature-driven recursion works
//! unchanged in any dimension — a `D`-dimensional box has `D` signatures.

use crate::flags::FlagField;
use samr_geom::{AABox, Axis};
use serde::{Deserialize, Serialize};

/// Tuning knobs of the Berger–Rigoutsos clusterer.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterOptions {
    /// Accept a box when `flagged / cells >= min_efficiency`.
    pub min_efficiency: f64,
    /// Minimum box extent per axis (the paper's granularity = 2).
    pub min_block: i64,
    /// Hard cap on the number of boxes produced (safety valve; remaining
    /// candidates are accepted as-is when reached).
    pub max_boxes: usize,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self {
            min_efficiency: 0.75,
            min_block: 2,
            max_boxes: 4096,
        }
    }
}

impl ClusterOptions {
    /// The paper's §5.1.1 configuration: granularity 2, standard 0.75
    /// efficiency.
    pub fn paper_defaults() -> Self {
        Self::default()
    }
}

/// One work item: a window (disjoint from all other windows) and the tight
/// bounding box of the flags inside it.
struct Candidate<const D: usize> {
    window: AABox<D>,
    bbox: AABox<D>,
    flagged: u64,
}

/// Cluster the flagged cells of `flags` into boxes.
///
/// Returned boxes are pairwise disjoint, contain every flagged cell, have
/// extents `>= min_block` on every axis, and lie inside the flag domain.
pub fn cluster_flags<const D: usize>(flags: &FlagField<D>, opts: &ClusterOptions) -> Vec<AABox<D>> {
    assert!(opts.min_block >= 1);
    assert!(
        (0.0..=1.0).contains(&opts.min_efficiency),
        "efficiency must be in [0,1]"
    );
    let mut accepted = Vec::new();
    let Some(bbox) = flags.bounding_box() else {
        return accepted;
    };
    // One signature buffer shared by every axis scan.
    let mut sig = Vec::new();
    let mut queue = vec![Candidate {
        window: flags.domain(),
        bbox,
        flagged: flags.count_in(&bbox),
    }];

    while let Some(c) = queue.pop() {
        if accepted.len() + queue.len() >= opts.max_boxes {
            accepted.push(expand_to_min(c.bbox, opts.min_block, &c.window));
            continue;
        }
        let efficiency = c.flagged as f64 / c.bbox.cells() as f64;
        if efficiency >= opts.min_efficiency || !splittable(&c.bbox, opts.min_block) {
            accepted.push(expand_to_min(c.bbox, opts.min_block, &c.window));
            continue;
        }
        let (axis, cut) = choose_split(flags, &c.bbox, opts.min_block, &mut sig);
        let (wa, wb) = c.window.split_at(axis, cut);
        for w in [wa, wb] {
            if let Some(bb) = flag_bbox_in(flags, &w, &mut sig) {
                let flagged = flags.count_in(&bb);
                queue.push(Candidate {
                    window: w,
                    bbox: bb,
                    flagged,
                });
            }
        }
    }
    // Deterministic output order regardless of queue discipline (the
    // historical `(lo.y, lo.x, hi.y, hi.x)` key, generalized).
    accepted.sort_by(|a, b| a.cmp_spatial(b));
    accepted
}

/// Tight bounding box of flags restricted to `window`.
fn flag_bbox_in<const D: usize>(
    flags: &FlagField<D>,
    window: &AABox<D>,
    sig: &mut Vec<u32>,
) -> Option<AABox<D>> {
    let w = flags.domain().intersect(window)?;
    let mut lo = w.lo();
    let mut hi = w.hi();
    for i in 0..D {
        let axis = Axis::from_index(i);
        flags.signature_into(axis, &w, sig);
        let first = sig.iter().position(|&v| v > 0)?;
        let last = sig.iter().rposition(|&v| v > 0)?;
        lo = lo.with(axis, w.lo()[i] + first as i64);
        hi = hi.with(axis, w.lo()[i] + last as i64);
    }
    Some(AABox::new(lo, hi))
}

/// A box can be split on some axis while keeping both sides >= min_block.
fn splittable<const D: usize>(bbox: &AABox<D>, min_block: i64) -> bool {
    (0..D).any(|i| bbox.len(Axis::from_index(i)) >= 2 * min_block)
}

/// Axes of a box ordered longest-first (stable on ties, so X precedes Y
/// precedes Z among equals — the historical 2-D ordering).
fn axes_by_length<const D: usize>(bbox: &AABox<D>) -> [Axis; D] {
    let mut axes = Axis::all::<D>();
    axes.sort_by_key(|a| std::cmp::Reverse(bbox.len(*a)));
    axes
}

/// Pick the split (axis, inclusive-left cut coordinate) for a box that
/// failed the efficiency test: first a signature hole, then the strongest
/// Laplacian inflection, then midpoint bisection. Longest axis is examined
/// first at each stage.
fn choose_split<const D: usize>(
    flags: &FlagField<D>,
    bbox: &AABox<D>,
    min_block: i64,
    sig: &mut Vec<u32>,
) -> (Axis, i64) {
    let axes = axes_by_length(bbox);
    // Stage 1: holes.
    for axis in axes {
        if bbox.len(axis) < 2 * min_block {
            continue;
        }
        flags.signature_into(axis, bbox, sig);
        if let Some(i) = best_hole(sig, min_block) {
            return (axis, bbox.lo().get(axis) + i);
        }
    }
    // Stage 2: inflection points of the signature Laplacian.
    for axis in axes {
        if bbox.len(axis) < 2 * min_block {
            continue;
        }
        flags.signature_into(axis, bbox, sig);
        if let Some(i) = best_inflection(sig, min_block) {
            return (axis, bbox.lo().get(axis) + i);
        }
    }
    // Stage 3: bisect the longest splittable axis.
    for axis in axes {
        if bbox.len(axis) >= 2 * min_block {
            let i = bbox.len(axis) / 2 - 1;
            return (axis, bbox.lo().get(axis) + i);
        }
    }
    unreachable!("choose_split called on an unsplittable box");
}

/// Index `i` (inclusive-left cut after position `i`) of the zero-signature
/// hole closest to the box center, with both sides >= min_block. The cut is
/// placed at the zero entry so that one side sheds the empty margin.
fn best_hole(sig: &[u32], min_block: i64) -> Option<i64> {
    let n = sig.len() as i64;
    let lo = min_block - 1;
    let hi = n - 1 - min_block;
    let center = (n - 1) / 2;
    let mut best: Option<i64> = None;
    for i in lo..=hi {
        if sig[i as usize] == 0 {
            let dist = (i - center).abs();
            if best.is_none_or(|b| dist < (b - center).abs()) {
                best = Some(i);
            }
        }
    }
    best
}

/// Index of the strongest sign change of the discrete Laplacian
/// `Δ_i = s[i-1] - 2 s[i] + s[i+1]`, respecting min_block margins.
///
/// The Laplacian is evaluated on the fly from a three-entry signature
/// window — no per-candidate `Vec` (this runs once per axis per split
/// candidate in the clustering recursion).
fn best_inflection(sig: &[u32], min_block: i64) -> Option<i64> {
    let n = sig.len() as i64;
    if n < 4 {
        return None;
    }
    // Boundary entries read as 0, exactly like the materialized array.
    let lap = |i: i64| -> i64 {
        if i <= 0 || i >= n - 1 {
            0
        } else {
            sig[(i - 1) as usize] as i64 - 2 * sig[i as usize] as i64 + sig[(i + 1) as usize] as i64
        }
    };
    let lo = (min_block - 1).max(1);
    let hi = (n - 1 - min_block).min(n - 3);
    let mut best: Option<(i64, i64)> = None; // (|jump|, index)
    let mut a = lap(lo);
    for i in lo..=hi {
        let b = lap(i + 1);
        if a.signum() != b.signum() && (a != 0 || b != 0) {
            let jump = (a - b).abs();
            if best.is_none_or(|(bj, _)| jump > bj) {
                best = Some((jump, i));
            }
        }
        a = b;
    }
    best.map(|(_, i)| i)
}

/// Grow `bbox` to at least `min_block` per axis, staying inside `window`
/// (which is guaranteed to be at least `min_block` wide per axis by the
/// split-margin rule).
fn expand_to_min<const D: usize>(bbox: AABox<D>, min_block: i64, window: &AABox<D>) -> AABox<D> {
    let mut lo = bbox.lo();
    let mut hi = bbox.hi();
    for axis in Axis::all::<D>() {
        let mut deficit = min_block - (hi.get(axis) - lo.get(axis) + 1);
        if deficit <= 0 {
            continue;
        }
        // Prefer growing toward hi, then toward lo.
        let room_hi = window.hi().get(axis) - hi.get(axis);
        let add_hi = deficit.min(room_hi);
        hi = hi.with(axis, hi.get(axis) + add_hi);
        deficit -= add_hi;
        if deficit > 0 {
            let room_lo = lo.get(axis) - window.lo().get(axis);
            let add_lo = deficit.min(room_lo);
            lo = lo.with(axis, lo.get(axis) - add_lo);
        }
    }
    AABox::new(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::{Box3, Point2, Point3, Rect2};

    fn opts() -> ClusterOptions {
        ClusterOptions::default()
    }

    /// Every flagged cell is inside some box; boxes are disjoint, within
    /// the domain, and respect min_block.
    fn check_valid<const D: usize>(flags: &FlagField<D>, boxes: &[AABox<D>], o: &ClusterOptions) {
        for (i, b) in boxes.iter().enumerate() {
            assert!(flags.domain().contains_rect(b), "{b:?} outside domain");
            assert!(
                b.extent().coords().iter().all(|&e| e >= o.min_block),
                "{b:?} below min block"
            );
            for c in &boxes[i + 1..] {
                assert!(!b.intersects(c), "{b:?} overlaps {c:?}");
            }
        }
        for p in flags.domain().iter_cells() {
            if flags.is_set(p) {
                assert!(
                    boxes.iter().any(|b| b.contains_point(p)),
                    "flag at {p:?} uncovered"
                );
            }
        }
    }

    #[test]
    fn empty_flags_no_boxes() {
        let flags = FlagField::new(Rect2::from_extents(16, 16));
        assert!(cluster_flags(&flags, &opts()).is_empty());
    }

    #[test]
    fn single_dense_block_gets_one_box() {
        let flags = FlagField::from_fn(Rect2::from_extents(32, 32), |p| {
            (4..=9).contains(&p.x) && (4..=9).contains(&p.y)
        });
        let boxes = cluster_flags(&flags, &opts());
        assert_eq!(boxes, vec![Rect2::from_coords(4, 4, 9, 9)]);
    }

    #[test]
    fn two_separated_blobs_split_at_hole() {
        let flags = FlagField::from_fn(Rect2::from_extents(64, 16), |p| {
            ((2..=7).contains(&p.x) || (40..=47).contains(&p.x)) && (2..=9).contains(&p.y)
        });
        let boxes = cluster_flags(&flags, &opts());
        assert_eq!(boxes.len(), 2);
        check_valid(&flags, &boxes, &opts());
        // Each box should be tight around its blob.
        let total: u64 = boxes.iter().map(AABox::cells).sum();
        assert_eq!(total, flags.count());
    }

    #[test]
    fn diagonal_band_is_split_for_efficiency() {
        // A thin diagonal band has very low bbox efficiency; BR must split
        // it into several boxes with decent efficiency.
        let flags = FlagField::from_fn(Rect2::from_extents(64, 64), |p| (p.x - p.y).abs() <= 1);
        let o = ClusterOptions {
            min_efficiency: 0.7,
            ..opts()
        };
        let boxes = cluster_flags(&flags, &o);
        check_valid(&flags, &boxes, &o);
        assert!(boxes.len() > 2, "expected multiple boxes, got {boxes:?}");
        let covered: u64 = boxes.iter().map(AABox::cells).sum();
        let eff = flags.count() as f64 / covered as f64;
        assert!(eff > 0.3, "overall efficiency too low: {eff}");
    }

    #[test]
    fn single_flag_expands_to_min_block() {
        let mut flags = FlagField::new(Rect2::from_extents(16, 16));
        flags.set(Point2::new(5, 5));
        let boxes = cluster_flags(&flags, &opts());
        assert_eq!(boxes.len(), 1);
        assert!(boxes[0].extent().x >= 2 && boxes[0].extent().y >= 2);
        assert!(boxes[0].contains_point(Point2::new(5, 5)));
    }

    #[test]
    fn flag_at_domain_corner_expands_inward() {
        let mut flags = FlagField::new(Rect2::from_extents(16, 16));
        flags.set(Point2::new(15, 15));
        let boxes = cluster_flags(&flags, &opts());
        assert_eq!(boxes.len(), 1);
        check_valid(&flags, &boxes, &opts());
    }

    #[test]
    fn ring_flags_covered_efficiently() {
        // A ring (wave front): the classic BR showcase.
        let flags = FlagField::from_fn(Rect2::from_extents(64, 64), |p| {
            let dx = p.x as f64 - 31.5;
            let dy = p.y as f64 - 31.5;
            let r = (dx * dx + dy * dy).sqrt();
            (20.0..=23.0).contains(&r)
        });
        let boxes = cluster_flags(&flags, &opts());
        check_valid(&flags, &boxes, &opts());
        let covered: u64 = boxes.iter().map(AABox::cells).sum();
        // The union of boxes should be far smaller than the bounding box
        // of the ring (47x47) — that is the whole point of clustering.
        assert!(covered < 47 * 47 / 2, "covered {covered} cells");
    }

    #[test]
    fn max_boxes_is_respected() {
        // Scattered random-ish flags with a tiny budget.
        let flags = FlagField::from_fn(Rect2::from_extents(64, 64), |p| {
            (p.x * 7 + p.y * 13) % 17 == 0
        });
        let o = ClusterOptions {
            max_boxes: 4,
            ..opts()
        };
        let boxes = cluster_flags(&flags, &o);
        assert!(boxes.len() <= 4 + 1);
        check_valid(&flags, &boxes, &o);
    }

    #[test]
    fn full_domain_flagged_gives_domain_box() {
        let flags = FlagField::from_fn(Rect2::from_extents(24, 24), |_| true);
        let boxes = cluster_flags(&flags, &opts());
        assert_eq!(boxes, vec![Rect2::from_extents(24, 24)]);
    }

    #[test]
    fn deterministic_output() {
        let flags = FlagField::from_fn(Rect2::from_extents(48, 48), |p| {
            (p.x / 5 + p.y / 7) % 3 == 0
        });
        let a = cluster_flags(&flags, &opts());
        let b = cluster_flags(&flags, &opts());
        assert_eq!(a, b);
    }

    #[test]
    fn three_d_sphere_shell_clusters_validly() {
        // A spherical shell — the 3-D analogue of the ring showcase.
        let flags = FlagField::from_fn(Box3::from_extents(24, 24, 24), |p| {
            let dx = p.x as f64 - 11.5;
            let dy = p.y as f64 - 11.5;
            let dz = p.z as f64 - 11.5;
            let r = (dx * dx + dy * dy + dz * dz).sqrt();
            (7.0..=9.0).contains(&r)
        });
        let boxes = cluster_flags(&flags, &opts());
        assert!(!boxes.is_empty());
        check_valid(&flags, &boxes, &opts());
        let covered: u64 = boxes.iter().map(AABox::cells).sum();
        // Clustering must beat the single bounding box by a wide margin.
        assert!(covered < 19 * 19 * 19 / 2, "covered {covered} cells");
    }

    #[test]
    fn three_d_dense_block_gets_one_box() {
        let flags = FlagField::from_fn(Box3::from_extents(16, 16, 16), |p| {
            (3..=8).contains(&p.x) && (4..=9).contains(&p.y) && (5..=10).contains(&p.z)
        });
        let boxes = cluster_flags(&flags, &opts());
        assert_eq!(boxes, vec![Box3::from_coords(3, 4, 5, 8, 9, 10)]);
        let mut single = FlagField::new(Box3::from_extents(16, 16, 16));
        single.set(Point3::new(15, 0, 7));
        let boxes = cluster_flags(&single, &opts());
        assert_eq!(boxes.len(), 1);
        check_valid(&single, &boxes, &opts());
    }
}
