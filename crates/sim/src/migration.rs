//! Data-migration accounting between consecutive partitionings.
//!
//! Like [`crate::comm`], the production path [`migration_accounting`]
//! walks a [`FragIndex`](crate::index::FragIndex) over the *current*
//! partition's fragments, queried with the previous step's boxes, and
//! every quantity it produces has a `naive_*` all-pairs oracle
//! property-tested to produce identical counts.

use crate::index::MetricScratch;
use samr_geom::boxops;
use samr_grid::GridHierarchy;
use samr_partition::Partition;

/// All-pairs oracle for the total [`migration_accounting`] returns.
pub fn naive_migration_cells<const D: usize>(
    prev: &GridHierarchy<D>,
    prev_part: &Partition<D>,
    cur: &GridHierarchy<D>,
    cur_part: &Partition<D>,
) -> u64 {
    naive_moved_survivors(prev_part, cur_part) + naive_interpolation_transfers(prev, cur, cur_part)
}

/// All-pairs oracle for component 1 of [`migration_accounting`]:
/// same-level cells that exist at both steps and changed owner.
pub fn naive_moved_survivors<const D: usize>(
    prev_part: &Partition<D>,
    cur_part: &Partition<D>,
) -> u64 {
    let mut moved = 0u64;
    let levels = prev_part.levels.len().min(cur_part.levels.len());
    for l in 0..levels {
        for old in &prev_part.levels[l].fragments {
            for new in &cur_part.levels[l].fragments {
                if old.owner != new.owner {
                    moved += old.rect.overlap_cells(&new.rect);
                }
            }
        }
    }
    moved
}

/// All-pairs oracle for component 2 of [`migration_accounting`]: newly
/// refined cells interpolated from a remote parent, in fine grid points.
pub fn naive_interpolation_transfers<const D: usize>(
    prev: &GridHierarchy<D>,
    cur: &GridHierarchy<D>,
    cur_part: &Partition<D>,
) -> u64 {
    let mut transfers = 0u64;
    for l in 1..cur.levels.len() {
        let prev_rects: Vec<samr_geom::AABox<D>> = if l < prev.levels.len() {
            prev.levels[l].rects()
        } else {
            Vec::new()
        };
        let coarse = &cur_part.levels[l - 1].fragments;
        for frag in &cur_part.levels[l].fragments {
            // The part of this fragment that did not exist at t-1.
            for new_piece in boxops::subtract_all(&frag.rect, &prev_rects) {
                let parent = new_piece.coarsen(cur.ratio);
                for cf in coarse {
                    if cf.owner == frag.owner {
                        continue;
                    }
                    if let Some(ov) = parent.intersect(&cf.rect) {
                        transfers += ov.refine(cur.ratio).overlap_cells(&new_piece);
                    }
                }
            }
        }
    }
    transfers
}

/// All-pairs oracle for the per-processor volumes
/// [`migration_accounting`] leaves in [`MetricScratch::per_proc_mig`].
pub fn naive_per_proc_migration<const D: usize>(
    prev: &GridHierarchy<D>,
    prev_part: &Partition<D>,
    cur: &GridHierarchy<D>,
    cur_part: &Partition<D>,
    nprocs: usize,
) -> Vec<u64> {
    let mut out = vec![0u64; nprocs];
    let levels = prev_part.levels.len().min(cur_part.levels.len());
    for l in 0..levels {
        for old in &prev_part.levels[l].fragments {
            for new in &cur_part.levels[l].fragments {
                if old.owner != new.owner {
                    out[old.owner as usize] += old.rect.overlap_cells(&new.rect);
                }
            }
        }
    }
    // Interpolation sources: the parent-cell owner ships the data.
    for l in 1..cur.levels.len() {
        let prev_rects: Vec<samr_geom::AABox<D>> = if l < prev.levels.len() {
            prev.levels[l].rects()
        } else {
            Vec::new()
        };
        let coarse = &cur_part.levels[l - 1].fragments;
        for frag in &cur_part.levels[l].fragments {
            for new_piece in boxops::subtract_all(&frag.rect, &prev_rects) {
                let parent = new_piece.coarsen(cur.ratio);
                for cf in coarse {
                    if cf.owner == frag.owner {
                        continue;
                    }
                    if let Some(ov) = parent.intersect(&cf.rect) {
                        out[cf.owner as usize] += ov.refine(cur.ratio).overlap_cells(&new_piece);
                    }
                }
            }
        }
    }
    out
}

/// Number of grid points transmitted at the redistribution between the
/// distribution of `H_{t-1}` and that of `H_t` — the Berger–Colella
/// regrid data-transfer accounting:
///
/// 1. **surviving cells** (same level, present at both steps) whose owner
///    changed are copied from the old owner;
/// 2. **newly created cells** (refined into existence at `t`) are filled
///    by interpolation from their parent level — a transfer whenever the
///    parent cell's (new) owner differs from the fine cell's owner.
///
/// Cells that disappear (coarsened away) are deleted in place and cost
/// nothing. Each processor's outbound volume (grid points leaving it,
/// including interpolation sources, for the execution-time model) lands
/// in `scratch`.
///
/// One pass with a single index build per current level: the
/// moved-survivor pass queries the level's own index, and the
/// interpolation pass for the next-finer level queries it as the parent
/// index before it is rebuilt.
pub fn migration_accounting<const D: usize>(
    prev: &GridHierarchy<D>,
    prev_part: &Partition<D>,
    cur: &GridHierarchy<D>,
    cur_part: &Partition<D>,
    nprocs: usize,
    scratch: &mut MetricScratch<D>,
) -> u64 {
    scratch.mig.clear();
    scratch.mig.resize(nprocs, 0);
    let mut total = 0u64;
    let moved_levels = prev_part.levels.len().min(cur_part.levels.len());
    for l in 0..cur_part.levels.len() {
        scratch.index.build(&cur_part.levels[l].fragments);
        // Component 1: survivors of level l that changed owner.
        if l < moved_levels {
            let mig = &mut scratch.mig;
            for old in &prev_part.levels[l].fragments {
                scratch.index.query(&old.rect, |_, rect, owner| {
                    if owner != old.owner {
                        let cells = old.rect.overlap_cells(&rect);
                        total += cells;
                        mig[old.owner as usize] += cells;
                    }
                });
            }
        }
        // Component 2: level l+1 cells newly refined into existence,
        // interpolated from level-l parents — queried against the index
        // while it still holds level l.
        let fine = l + 1;
        if fine < cur.levels.len() && fine < cur_part.levels.len() {
            let prev_patches = prev.levels.get(fine).map_or(&[][..], |lv| &lv.patches);
            for frag in &cur_part.levels[fine].fragments {
                // The part of this fragment that did not exist at t-1.
                // Only the previous patches that meet it remove cells
                // (`subtract_all_into` skips the rest). A level's
                // patches are disjoint, so a patch that contains the
                // fragment is the only one it meets: nothing is left and
                // the fragment costs no query.
                let (pieces, next) = (&mut scratch.pieces, &mut scratch.next);
                let prev_rects = prev_patches.iter().map(|p| &p.rect);
                boxops::subtract_all_into(&frag.rect, prev_rects, pieces, next);
                for new_piece in pieces.iter() {
                    let parent = new_piece.coarsen(cur.ratio);
                    let mig = &mut scratch.mig;
                    scratch.index.query(&parent, |_, rect, owner| {
                        if owner != frag.owner {
                            if let Some(ov) = parent.intersect(&rect) {
                                let cells = ov.refine(cur.ratio).overlap_cells(new_piece);
                                total += cells;
                                mig[owner as usize] += cells;
                            }
                        }
                    });
                }
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::Rect2;
    use samr_partition::{Fragment, LevelPartition};

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    /// One accounting pass on a fresh scratch: the total and the
    /// per-processor outbound volumes.
    fn account(
        prev: &GridHierarchy<2>,
        prev_part: &Partition<2>,
        cur: &GridHierarchy<2>,
        cur_part: &Partition<2>,
    ) -> (u64, Vec<u64>) {
        let mut scratch = MetricScratch::default();
        let total = migration_accounting(prev, prev_part, cur, cur_part, 2, &mut scratch);
        (total, scratch.per_proc_mig().to_vec())
    }

    fn h8() -> GridHierarchy<2> {
        GridHierarchy::base_only(Rect2::from_extents(8, 8), 2)
    }

    fn part(split_x: i64) -> Partition<2> {
        Partition {
            nprocs: 2,
            levels: vec![LevelPartition {
                fragments: vec![
                    Fragment {
                        rect: r(0, 0, split_x, 7),
                        owner: 0,
                    },
                    Fragment {
                        rect: r(split_x + 1, 0, 7, 7),
                        owner: 1,
                    },
                ],
            }],
        }
    }

    #[test]
    fn identical_partitions_migrate_nothing() {
        let h = h8();
        let p = part(3);
        assert_eq!(account(&h, &p, &h, &p).0, 0);
        assert_eq!(naive_migration_cells(&h, &p, &h, &p), 0);
    }

    #[test]
    fn shifted_cut_moves_the_band() {
        let h = h8();
        let a = part(3);
        let b = part(5);
        // Columns 4..5 (16 cells) move from proc 1 to proc 0.
        let (total, out) = account(&h, &a, &h, &b);
        assert_eq!(total, 16);
        assert_eq!(naive_migration_cells(&h, &a, &h, &b), 16);
        assert_eq!(out, vec![0, 16]);
        assert_eq!(naive_per_proc_migration(&h, &a, &h, &b, 2), out);
        // Reverse direction mirrors.
        assert_eq!(account(&h, &b, &h, &a).1, vec![16, 0]);
    }

    #[test]
    fn owner_swap_moves_everything() {
        let h = h8();
        let a = part(3);
        let mut b = part(3);
        for f in &mut b.levels[0].fragments {
            f.owner = 1 - f.owner;
        }
        assert_eq!(account(&h, &a, &h, &b).0, 64);
        assert_eq!(naive_migration_cells(&h, &a, &h, &b), 64);
    }

    #[test]
    fn vanished_level_does_not_migrate() {
        // Level present before, gone now: deletion, not migration.
        let h_prev = GridHierarchy::from_level_rects(
            Rect2::from_extents(8, 8),
            2,
            &[vec![], vec![r(4, 4, 11, 11)]],
        );
        let p_prev = Partition {
            nprocs: 2,
            levels: vec![
                LevelPartition {
                    fragments: vec![Fragment {
                        rect: r(0, 0, 7, 7),
                        owner: 0,
                    }],
                },
                LevelPartition {
                    fragments: vec![Fragment {
                        rect: r(4, 4, 11, 11),
                        owner: 1,
                    }],
                },
            ],
        };
        let h_cur = h8();
        let p_cur = Partition {
            nprocs: 2,
            levels: vec![LevelPartition {
                fragments: vec![Fragment {
                    rect: r(0, 0, 7, 7),
                    owner: 0,
                }],
            }],
        };
        assert_eq!(account(&h_prev, &p_prev, &h_cur, &p_cur).0, 0);
        assert_eq!(naive_migration_cells(&h_prev, &p_prev, &h_cur, &p_cur), 0);
    }

    #[test]
    fn moved_refinement_migrates_surviving_overlap() {
        // Level-1 box moves 4 fine cells right; owner of the overlap
        // changes from 0 to 1 => overlap cells migrate.
        let h_prev = GridHierarchy::from_level_rects(
            Rect2::from_extents(8, 8),
            2,
            &[vec![], vec![r(4, 4, 11, 11)]],
        );
        let h_cur = GridHierarchy::from_level_rects(
            Rect2::from_extents(8, 8),
            2,
            &[vec![], vec![r(8, 4, 15, 11)]],
        );
        let p_prev = Partition {
            nprocs: 2,
            levels: vec![
                LevelPartition {
                    fragments: vec![Fragment {
                        rect: r(0, 0, 7, 7),
                        owner: 0,
                    }],
                },
                LevelPartition {
                    fragments: vec![Fragment {
                        rect: r(4, 4, 11, 11),
                        owner: 0,
                    }],
                },
            ],
        };
        let p_cur = Partition {
            nprocs: 2,
            levels: vec![
                LevelPartition {
                    fragments: vec![Fragment {
                        rect: r(0, 0, 7, 7),
                        owner: 0,
                    }],
                },
                LevelPartition {
                    fragments: vec![Fragment {
                        rect: r(8, 4, 15, 11),
                        owner: 1,
                    }],
                },
            ],
        };
        // Overlap [8..11]x[4..11] = 32 cells changed owner (survivors)
        // plus the 32 newly created cells [12..15]x[4..11] interpolated
        // from base cells owned by proc 0 while the fine fragment sits on
        // proc 1.
        assert_eq!(naive_moved_survivors(&p_prev, &p_cur), 32);
        assert_eq!(naive_interpolation_transfers(&h_prev, &h_cur, &p_cur), 32);
        let (total, out) = account(&h_prev, &p_prev, &h_cur, &p_cur);
        assert_eq!(total, 64);
        assert_eq!(
            out,
            naive_per_proc_migration(&h_prev, &p_prev, &h_cur, &p_cur, 2)
        );
    }

    #[test]
    fn colocated_new_cells_are_free() {
        // New refinement whose parent cells live on the same processor:
        // interpolation is local, no transfer.
        let h_prev = h8();
        let h_cur = GridHierarchy::from_level_rects(
            Rect2::from_extents(8, 8),
            2,
            &[vec![], vec![r(4, 4, 11, 11)]],
        );
        let p_prev = Partition {
            nprocs: 2,
            levels: vec![LevelPartition {
                fragments: vec![Fragment {
                    rect: r(0, 0, 7, 7),
                    owner: 0,
                }],
            }],
        };
        let p_cur = Partition {
            nprocs: 2,
            levels: vec![
                LevelPartition {
                    fragments: vec![Fragment {
                        rect: r(0, 0, 7, 7),
                        owner: 0,
                    }],
                },
                LevelPartition {
                    fragments: vec![Fragment {
                        rect: r(4, 4, 11, 11),
                        owner: 0,
                    }],
                },
            ],
        };
        assert_eq!(account(&h_prev, &p_prev, &h_cur, &p_cur).0, 0);
        // Same new cells on the other processor: all 64 are interpolated
        // remotely.
        let mut p_remote = p_cur.clone();
        p_remote.levels[1].fragments[0].owner = 1;
        let (total, out) = account(&h_prev, &p_prev, &h_cur, &p_remote);
        assert_eq!(total, 64);
        assert_eq!(out, vec![64, 0]); // proc 0 ships the parent data
        assert_eq!(
            naive_per_proc_migration(&h_prev, &p_prev, &h_cur, &p_remote, 2),
            out
        );
    }
}
