//! Algebra on lists of boxes: subtraction, disjointification, coalescing
//! and exact union volumes — generic over the dimension.
//!
//! SAMR structures are unions of boxes that frequently overlap (ghost
//! regions vs. owners, level `l+1` projected onto level `l`, old partition
//! fragments vs. new ones). All the measured quantities of the paper —
//! migrated cells, communicated cells, covered workload — are *exact* cell
//! counts over such unions, so these operations are exact integer
//! computations, not floating-point approximations.

use crate::rect::{AABox, Axis};

/// Subtract box `b` from box `a`, appending the (up to `2·D`) disjoint
/// pieces of `a \ b` to `out`. The pieces are produced by slab
/// decomposition from the highest axis down: the parts of `a` below/above
/// `b` along the last axis first, then the remaining slabs on lower axes
/// clamped to the overlap — in 2-D exactly the historical Y-slabs-then-
/// X-slabs order, byte for byte.
pub fn subtract_into<const D: usize>(a: &AABox<D>, b: &AABox<D>, out: &mut Vec<AABox<D>>) {
    let Some(ov) = a.intersect(b) else {
        out.push(*a);
        return;
    };
    if ov == *a {
        return; // fully covered
    }
    let mut rest = *a;
    for i in (0..D).rev() {
        let axis = Axis::from_index(i);
        // Slab below the overlap along this axis.
        if rest.lo().get(axis) < ov.lo().get(axis) {
            out.push(AABox::new(
                rest.lo(),
                rest.hi().with(axis, ov.lo().get(axis) - 1),
            ));
        }
        // Slab above the overlap along this axis.
        if rest.hi().get(axis) > ov.hi().get(axis) {
            out.push(AABox::new(
                rest.lo().with(axis, ov.hi().get(axis) + 1),
                rest.hi(),
            ));
        }
        // Clamp the remainder to the overlap's range on this axis and
        // continue with the lower axes.
        rest = AABox::new(
            rest.lo().with(axis, ov.lo().get(axis)),
            rest.hi().with(axis, ov.hi().get(axis)),
        );
    }
}

/// Subtract box `b` from box `a`, returning the disjoint remainder pieces.
pub fn subtract<const D: usize>(a: &AABox<D>, b: &AABox<D>) -> Vec<AABox<D>> {
    let mut out = Vec::with_capacity(2 * D);
    subtract_into(a, b, &mut out);
    out
}

/// Subtract every box of `bs` from `a`, returning disjoint remainder
/// pieces.
pub fn subtract_all<const D: usize>(a: &AABox<D>, bs: &[AABox<D>]) -> Vec<AABox<D>> {
    let (mut pieces, mut next) = (Vec::new(), Vec::new());
    subtract_all_into(a, bs, &mut pieces, &mut next);
    pieces
}

/// [`subtract_all`] into caller-owned buffers: leaves the pieces of
/// `a \ ∪ bs` in `pieces`, in the order `subtract_all` returns them, and
/// uses `next` as scratch. Prior contents of both are ignored. Every
/// piece lies inside `a`, so a box that misses `a` misses every piece
/// and is skipped without touching them.
pub fn subtract_all_into<'b, const D: usize>(
    a: &AABox<D>,
    bs: impl IntoIterator<Item = &'b AABox<D>>,
    pieces: &mut Vec<AABox<D>>,
    next: &mut Vec<AABox<D>>,
) {
    pieces.clear();
    pieces.push(*a);
    for b in bs {
        if !b.intersects(a) {
            continue;
        }
        next.clear();
        for piece in pieces.iter() {
            subtract_into(piece, b, next);
        }
        std::mem::swap(pieces, next);
        if pieces.is_empty() {
            break;
        }
    }
}

/// Rewrite a list of possibly-overlapping boxes as a list of pairwise
/// disjoint boxes covering exactly the same cells. Order of the output is
/// deterministic (a function of input order only).
pub fn disjointify<const D: usize>(boxes: &[AABox<D>]) -> Vec<AABox<D>> {
    let mut result: Vec<AABox<D>> = Vec::with_capacity(boxes.len());
    for b in boxes {
        let mut pieces = vec![*b];
        let mut next = Vec::new();
        for r in &result {
            if pieces.is_empty() {
                break;
            }
            next.clear();
            for p in &pieces {
                subtract_into(p, r, &mut next);
            }
            std::mem::swap(&mut pieces, &mut next);
        }
        result.extend_from_slice(&pieces);
    }
    result
}

/// Exact number of cells in the union of the boxes (overlaps counted
/// once).
pub fn union_cells<const D: usize>(boxes: &[AABox<D>]) -> u64 {
    union_cells_with(boxes, &mut Vec::new(), &mut Vec::new())
}

/// [`union_cells`] with caller-owned piece buffers: the allocation-free
/// form the metric scratch arenas use on their hot path. Their prior
/// contents are ignored.
///
/// Counts `Σᵢ |bᵢ \ ∪_{j<i} bⱼ|`: each box's cells not covered by an
/// earlier box. Only the earlier boxes that intersect `bᵢ` can remove
/// cells from it, so only they are subtracted ([`subtract_all_into`]
/// skips the rest), in list order — not every piece of the
/// disjointified prefix, as [`disjointify`] does.
pub fn union_cells_with<const D: usize>(
    boxes: &[AABox<D>],
    pieces: &mut Vec<AABox<D>>,
    next: &mut Vec<AABox<D>>,
) -> u64 {
    let mut total = 0u64;
    for (i, b) in boxes.iter().enumerate() {
        subtract_all_into(b, &boxes[..i], pieces, next);
        total += total_cells(pieces);
    }
    total
}

/// Sum of the cell counts of the boxes (overlaps counted with
/// multiplicity).
pub fn total_cells<const D: usize>(boxes: &[AABox<D>]) -> u64 {
    boxes.iter().map(AABox::cells).sum()
}

/// Number of cells of `a` covered by the union of `bs`.
pub fn covered_cells<const D: usize>(a: &AABox<D>, bs: &[AABox<D>]) -> u64 {
    let clipped: Vec<AABox<D>> = bs.iter().filter_map(|b| a.intersect(b)).collect();
    union_cells(&clipped)
}

/// `true` if the union of `bs` covers every cell of `a`.
pub fn covers<const D: usize>(a: &AABox<D>, bs: &[AABox<D>]) -> bool {
    subtract_all(a, bs).is_empty()
}

/// Try to merge two boxes into one exact bounding box. Succeeds only when
/// they are adjacent (or overlapping) along one axis and identical along
/// every other, i.e. when the bounding union contains exactly the union's
/// cells.
pub fn try_merge<const D: usize>(a: &AABox<D>, b: &AABox<D>) -> Option<AABox<D>> {
    for i in 0..D {
        let axis = Axis::from_index(i);
        let same_footprint =
            (0..D).all(|o| o == i || (a.lo()[o] == b.lo()[o] && a.hi()[o] == b.hi()[o]));
        if same_footprint {
            // Same footprint on the other axes; mergeable if the intervals
            // on `axis` touch or overlap.
            let (alo, ahi) = (a.lo().get(axis), a.hi().get(axis));
            let (blo, bhi) = (b.lo().get(axis), b.hi().get(axis));
            if alo.max(blo) <= ahi.min(bhi) + 1 {
                return Some(a.bounding_union(b));
            }
        }
    }
    None
}

/// Greedily coalesce a list of disjoint boxes, merging pairs that form an
/// exact box until a fixed point. Keeps the union of cells identical
/// while reducing the box count — partitioners use this to emit compact
/// fragment lists.
pub fn coalesce<const D: usize>(boxes: &[AABox<D>]) -> Vec<AABox<D>> {
    let mut list: Vec<AABox<D>> = boxes.to_vec();
    coalesce_in_place(&mut list);
    list
}

/// [`coalesce`] without the input copy: merges `list` in place, producing
/// exactly the output `coalesce` would for the same input order. The
/// allocation-free form the partitioner scratch arenas use on their hot
/// path.
///
/// Performs the merge sequence of [`naive_coalesce`] — always the first
/// mergeable pair `(i, j)` in row-major order, `list[i]` replaced by the
/// merge, `list[j]` by `swap_remove` — without restarting the pair scan
/// after each merge. Before a merge into row `i`, every pair in the rows
/// above failed; afterwards only the pairs `(a, i)` can succeed there,
/// since slot `j` now holds the old last box, which those rows already
/// failed against. So only they are re-tested: a merge into the first
/// such `a` moves the check up to row `a`, and when none succeeds the
/// scan resumes at the merged row.
pub fn coalesce_in_place<const D: usize>(list: &mut Vec<AABox<D>>) {
    let mut i = 0;
    while i < list.len() {
        let mut j = i + 1;
        while j < list.len() {
            let Some(m) = try_merge(&list[i], &list[j]) else {
                j += 1;
                continue;
            };
            list.swap_remove(j);
            list[i] = m;
            while let Some((a, m)) =
                (0..i).find_map(|a| try_merge(&list[a], &list[i]).map(|m| (a, m)))
            {
                list.swap_remove(i);
                list[a] = m;
                i = a;
            }
            j = i + 1;
        }
        i += 1;
    }
}

/// The restart scan [`coalesce_in_place`] replaced: after every merge it
/// scans the pairs again from `(0, 1)`, cubic in the list length. A test
/// oracle with no pipeline caller, like the `naive_*` accounting twins.
pub fn naive_coalesce<const D: usize>(boxes: &[AABox<D>]) -> Vec<AABox<D>> {
    let mut list: Vec<AABox<D>> = boxes.to_vec();
    loop {
        let mut merged_any = false;
        'outer: for i in 0..list.len() {
            for j in (i + 1)..list.len() {
                if let Some(m) = try_merge(&list[i], &list[j]) {
                    list.swap_remove(j);
                    list[i] = m;
                    merged_any = true;
                    break 'outer;
                }
            }
        }
        if !merged_any {
            return list;
        }
    }
}

/// Clip every box in `list` against `window`, dropping empty results.
pub fn clip_all<const D: usize>(list: &[AABox<D>], window: &AABox<D>) -> Vec<AABox<D>> {
    list.iter().filter_map(|b| b.intersect(window)).collect()
}

/// Total overlap (in cells, with multiplicity) between two box lists:
/// `Σ_i Σ_j |a_i ∩ b_j|`. This is exactly the inner double sum of the
/// paper's β_m when applied per level, and is exact when each list is
/// internally disjoint (SAMR patches at one level never overlap).
pub fn pairwise_overlap_cells<const D: usize>(a: &[AABox<D>], b: &[AABox<D>]) -> u64 {
    // O(|a|·|b|) with a cheap per-pair rejection. Patch counts per level
    // are tens-to-hundreds, so the quadratic loop is faster in practice
    // than building an interval tree every regrid.
    let mut sum = 0u64;
    for ra in a {
        for rb in b {
            sum += ra.overlap_cells(rb);
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::{Box3, Rect2};

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn subtract_disjoint_returns_original() {
        let a = r(0, 0, 3, 3);
        let b = r(10, 10, 12, 12);
        assert_eq!(subtract(&a, &b), vec![a]);
    }

    #[test]
    fn subtract_covering_returns_empty() {
        let a = r(1, 1, 2, 2);
        let b = r(0, 0, 3, 3);
        assert!(subtract(&a, &b).is_empty());
    }

    #[test]
    fn subtract_center_hole_produces_four_pieces() {
        let a = r(0, 0, 9, 9);
        let b = r(3, 3, 6, 6);
        let pieces = subtract(&a, &b);
        assert_eq!(pieces.len(), 4);
        assert_eq!(total_cells(&pieces), a.cells() - b.cells());
        // Pieces are disjoint and none touches b.
        for (i, p) in pieces.iter().enumerate() {
            assert!(!p.intersects(&b));
            for q in &pieces[i + 1..] {
                assert!(!p.intersects(q));
            }
        }
    }

    #[test]
    fn subtract_piece_order_matches_historical_2d_slabs() {
        // Y-slabs (full width) first, then X-slabs of the middle band —
        // the exact output order of the original 2-D implementation.
        let a = r(0, 0, 9, 9);
        let b = r(3, 3, 6, 6);
        assert_eq!(
            subtract(&a, &b),
            vec![r(0, 0, 9, 2), r(0, 7, 9, 9), r(0, 3, 2, 6), r(7, 3, 9, 6)]
        );
    }

    #[test]
    fn subtract_corner_overlap() {
        let a = r(0, 0, 4, 4);
        let b = r(3, 3, 8, 8);
        let pieces = subtract(&a, &b);
        assert_eq!(total_cells(&pieces), a.cells() - a.overlap_cells(&b));
        assert!(covers(&a, &{
            let mut v = pieces.clone();
            v.push(b);
            v
        }));
    }

    #[test]
    fn subtract_all_multiple_holes() {
        let a = r(0, 0, 9, 0); // a 10-cell strip
        let holes = [r(2, 0, 3, 0), r(6, 0, 6, 0)];
        let rest = subtract_all(&a, &holes);
        assert_eq!(total_cells(&rest), 7);
        assert_eq!(rest.len(), 3);
    }

    #[test]
    fn disjointify_preserves_union() {
        let boxes = [r(0, 0, 5, 5), r(3, 3, 8, 8), r(4, 0, 6, 2)];
        let dis = disjointify(&boxes);
        // Pairwise disjoint.
        for (i, a) in dis.iter().enumerate() {
            for b in &dis[i + 1..] {
                assert!(!a.intersects(b), "{a:?} intersects {b:?}");
            }
        }
        // Same union area (compute by brute force over the bounding box).
        let bb = boxes
            .iter()
            .skip(1)
            .fold(boxes[0], |acc, b| acc.bounding_union(b));
        let mut count = 0u64;
        for c in bb.iter_cells() {
            if boxes.iter().any(|b| b.contains_point(c)) {
                count += 1;
            }
        }
        assert_eq!(union_cells(&boxes), count);
        assert_eq!(total_cells(&dis), count);
    }

    #[test]
    fn union_cells_counts_overlap_once() {
        let boxes = [r(0, 0, 3, 3), r(2, 2, 5, 5)];
        assert_eq!(union_cells(&boxes), 16 + 16 - 4);
        assert_eq!(total_cells(&boxes), 32);
    }

    #[test]
    fn covered_and_covers() {
        let a = r(0, 0, 3, 3);
        assert_eq!(covered_cells(&a, &[r(0, 0, 1, 3), r(2, 0, 3, 3)]), 16);
        assert!(covers(&a, &[r(0, 0, 1, 3), r(2, 0, 3, 3)]));
        assert!(!covers(&a, &[r(0, 0, 1, 3)]));
        assert_eq!(covered_cells(&a, &[r(10, 10, 11, 11)]), 0);
    }

    #[test]
    fn try_merge_adjacent_same_footprint() {
        let a = r(0, 0, 3, 3);
        let b = r(4, 0, 7, 3);
        assert_eq!(try_merge(&a, &b), Some(r(0, 0, 7, 3)));
        // Different footprint: no merge.
        let c = r(4, 0, 7, 2);
        assert_eq!(try_merge(&a, &c), None);
        // Gap: no merge.
        let d = r(5, 0, 7, 3);
        assert_eq!(try_merge(&a, &d), None);
    }

    #[test]
    fn try_merge_vertical() {
        let a = r(0, 0, 3, 1);
        let b = r(0, 2, 3, 5);
        assert_eq!(try_merge(&a, &b), Some(r(0, 0, 3, 5)));
    }

    #[test]
    fn coalesce_reassembles_split_box() {
        let b = r(0, 0, 7, 7);
        let (l, rr) = b.split_at(Axis::X, 3);
        let (t, bt) = l.split_at(Axis::Y, 2);
        let parts = vec![rr, t, bt];
        let merged = coalesce(&parts);
        assert_eq!(merged, vec![b]);
        // The in-place form produces the same result on the same input.
        let mut in_place = parts.clone();
        coalesce_in_place(&mut in_place);
        assert_eq!(in_place, merged);
    }

    #[test]
    fn pairwise_overlap_matches_bruteforce() {
        let a = [r(0, 0, 4, 4), r(6, 0, 9, 4)];
        let b = [r(3, 3, 7, 7), r(0, 0, 1, 1)];
        let mut brute = 0u64;
        for ra in &a {
            for rb in &b {
                brute += ra.intersect(rb).map_or(0, |i| i.cells());
            }
        }
        assert_eq!(pairwise_overlap_cells(&a, &b), brute);
    }

    #[test]
    fn clip_all_drops_empty() {
        let w = r(0, 0, 4, 4);
        let clipped = clip_all(&[r(2, 2, 8, 8), r(9, 9, 10, 10)], &w);
        assert_eq!(clipped, vec![r(2, 2, 4, 4)]);
    }

    #[test]
    fn three_d_center_hole_produces_six_slabs() {
        let a = Box3::from_coords(0, 0, 0, 9, 9, 9);
        let b = Box3::from_coords(3, 3, 3, 6, 6, 6);
        let pieces = subtract(&a, &b);
        assert_eq!(pieces.len(), 6);
        assert_eq!(total_cells(&pieces), a.cells() - b.cells());
        for (i, p) in pieces.iter().enumerate() {
            assert!(!p.intersects(&b));
            for q in &pieces[i + 1..] {
                assert!(!p.intersects(q));
            }
        }
    }

    #[test]
    fn three_d_coalesce_and_cover() {
        let b = Box3::from_coords(0, 0, 0, 7, 7, 7);
        let (l, r) = b.split_at(Axis::Z, 3);
        let (la, lb) = l.split_at(Axis::X, 1);
        assert_eq!(coalesce(&[r, la, lb]), vec![b]);
        assert!(covers(&b, &[r, la, lb]));
        assert_eq!(union_cells(&[r, la, lb, b]), b.cells());
    }
}
