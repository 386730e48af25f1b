//! Communication-volume accounting from fragment overlaps.
//!
//! [`comm_accounting`] is the production path: it walks a per-level
//! [`FragIndex`](crate::index::FragIndex) (grid-bucket candidate queries,
//! near-linear in the fragment count). Every quantity it produces has a
//! `naive_*` twin that retains the original all-pairs scan as an oracle.
//! The two are property-tested to produce *identical* integer cell counts
//! — all accumulations are order-independent `u64` sums, so a complete
//! duplicate-free candidate enumeration is exact, not approximate.

use crate::index::MetricScratch;
use samr_geom::boxops;
use samr_grid::GridHierarchy;
use samr_partition::Partition;

/// All-pairs oracle for [`CommAccounting::intra`].
pub fn naive_intra_level_comm<const D: usize>(
    h: &GridHierarchy<D>,
    part: &Partition<D>,
    ghost: i64,
) -> u64 {
    let mut total = 0u64;
    for (l, lp) in part.levels.iter().enumerate() {
        let mult = (h.ratio as u64).pow(l as u32);
        let frags = &lp.fragments;
        let mut level_cells = 0u64;
        for f in frags {
            let shell = f.rect.grow(ghost);
            for g in frags {
                if g.owner == f.owner {
                    continue;
                }
                // Cells of g inside f's ghost shell but not inside f.
                let overlap = shell.overlap_cells(&g.rect);
                if overlap > 0 {
                    level_cells += overlap;
                }
            }
        }
        total += level_cells * mult;
    }
    total
}

/// All-pairs oracle for [`CommAccounting::inter`].
pub fn naive_inter_level_comm<const D: usize>(h: &GridHierarchy<D>, part: &Partition<D>) -> u64 {
    let mut total = 0u64;
    for l in 0..part.levels.len().saturating_sub(1) {
        let mult = (h.ratio as u64).pow((l + 1) as u32);
        let coarse = &part.levels[l].fragments;
        let fine = &part.levels[l + 1].fragments;
        let mut mismatched_fine_cells = 0u64;
        for ff in fine {
            let parent = ff.rect.coarsen(h.ratio);
            for cf in coarse {
                if cf.owner == ff.owner {
                    continue;
                }
                if let Some(ov) = parent.intersect(&cf.rect) {
                    mismatched_fine_cells += ov.refine(h.ratio).overlap_cells(&ff.rect);
                }
            }
        }
        total += mismatched_fine_cells * mult;
    }
    total
}

/// All-pairs oracle for [`CommAccounting::transfer_volume`].
pub fn naive_total_comm<const D: usize>(
    h: &GridHierarchy<D>,
    part: &Partition<D>,
    ghost: i64,
) -> u64 {
    naive_intra_level_comm(h, part, ghost) + naive_inter_level_comm(h, part)
}

/// All-pairs oracle for [`CommAccounting::intra_involved`].
pub fn naive_intra_level_involved<const D: usize>(
    h: &GridHierarchy<D>,
    part: &Partition<D>,
    ghost: i64,
) -> u64 {
    let mut total = 0u64;
    let mut clips: Vec<samr_geom::AABox<D>> = Vec::new();
    for (l, lp) in part.levels.iter().enumerate() {
        let mult = (h.ratio as u64).pow(l as u32);
        let frags = &lp.fragments;
        let mut level_points = 0u64;
        for f in frags {
            clips.clear();
            for g in frags {
                if g.owner == f.owner {
                    continue;
                }
                if let Some(c) = g.rect.grow(ghost).intersect(&f.rect) {
                    clips.push(c);
                }
            }
            if !clips.is_empty() {
                level_points += boxops::total_cells(&boxops::disjointify(&clips));
            }
        }
        total += level_points * mult;
    }
    total
}

/// All-pairs oracle for [`CommAccounting::involved_points`].
pub fn naive_involved_comm_points<const D: usize>(
    h: &GridHierarchy<D>,
    part: &Partition<D>,
    ghost: i64,
) -> u64 {
    naive_intra_level_involved(h, part, ghost) + naive_inter_level_comm(h, part)
}

/// All-pairs oracle for the per-processor volumes [`comm_accounting`]
/// leaves in [`MetricScratch::per_proc_vols`].
pub fn naive_per_proc_comm<const D: usize>(
    h: &GridHierarchy<D>,
    part: &Partition<D>,
    ghost: i64,
) -> Vec<u64> {
    let mut vols = vec![0u64; part.nprocs];
    for (l, lp) in part.levels.iter().enumerate() {
        let mult = (h.ratio as u64).pow(l as u32);
        for f in &lp.fragments {
            let shell = f.rect.grow(ghost);
            for g in &lp.fragments {
                if g.owner == f.owner {
                    continue;
                }
                let overlap = shell.overlap_cells(&g.rect);
                if overlap > 0 {
                    vols[f.owner as usize] += overlap * mult; // received
                    vols[g.owner as usize] += overlap * mult; // sent
                }
            }
        }
    }
    // Inter-level contributions.
    for l in 0..part.levels.len().saturating_sub(1) {
        let mult = (h.ratio as u64).pow((l + 1) as u32);
        for ff in &part.levels[l + 1].fragments {
            let parent = ff.rect.coarsen(h.ratio);
            for cf in &part.levels[l].fragments {
                if cf.owner == ff.owner {
                    continue;
                }
                if let Some(ov) = parent.intersect(&cf.rect) {
                    let fine_cov = ov.refine(h.ratio).overlap_cells(&ff.rect) * mult;
                    vols[ff.owner as usize] += fine_cov;
                    vols[cf.owner as usize] += fine_cov;
                }
            }
        }
    }
    vols
}

/// The communication totals of one coarse time step, produced by one
/// [`comm_accounting`] walk. Per-processor volumes land in the scratch
/// ([`MetricScratch::per_proc_vols`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommAccounting {
    /// Intra-level ghost-cell exchange volume, in grid-point transfers.
    ///
    /// Every fragment needs a ghost shell of width `ghost` filled from
    /// same-level neighbours at **every local time step**; level `l`
    /// performs `ratio^l` local steps per coarse step, so each ghost cell
    /// owned by a different processor counts `ratio^l` times. Ghost cells
    /// outside every patch are physical-boundary cells and cost nothing;
    /// ghost cells in a fragment of the *same* owner are local copies and
    /// cost nothing.
    pub intra: u64,
    /// Inter-level parent–child transfer volume, in grid-point transfers.
    ///
    /// Prolongation (boundary fill + initialization) and restriction
    /// (projection of the fine solution onto the parent) move every fine
    /// cell whose parent coarse cell lives on a *different* processor. The
    /// fine level synchronizes with its parent once per fine local step,
    /// so level `l+1`'s mismatched cells count `ratio^(l+1)` times.
    /// Strictly domain-based partitions have zero inter-level volume by
    /// construction — the property the paper highlights in §2.2.
    pub inter: u64,
    /// Intra-level *involvement* count: grid points that are sent to at
    /// least one other processor, counted once per local time step (level
    /// `l` points count `ratio^l` times). This matches the paper's §4.1
    /// normalization exactly: 100 % ⇔ "all points in the grid being
    /// involved in communications at all local time steps".
    pub intra_involved: u64,
}

impl CommAccounting {
    /// Total communication *transfer volume* (intra + inter), counting
    /// every directed transfer.
    pub fn transfer_volume(&self) -> u64 {
        self.intra + self.inter
    }

    /// Grid points involved in communication (the §4.1 numerator):
    /// intra-level involvement plus inter-level parent–child involvement
    /// (each remotely-parented fine cell counts once per fine local step).
    pub fn involved_points(&self) -> u64 {
        self.intra_involved + self.inter
    }
}

/// One-pass communication accounting: computes every [`CommAccounting`]
/// total, plus each processor's volume (sent + received grid points per
/// coarse step, for the execution-time model) into `scratch`, with a
/// single index build per level and a single ghost-shell query per
/// fragment — the combined cost the execution-time model pays per
/// simulated step.
pub fn comm_accounting<const D: usize>(
    h: &GridHierarchy<D>,
    part: &Partition<D>,
    ghost: i64,
    scratch: &mut MetricScratch<D>,
) -> CommAccounting {
    let mut acc = CommAccounting::default();
    scratch.vols.clear();
    scratch.vols.resize(part.nprocs, 0);
    for l in 0..part.levels.len() {
        let mult = (h.ratio as u64).pow(l as u32);
        scratch.index.build(&part.levels[l].fragments);
        let mut level_cells = 0u64;
        let mut level_points = 0u64;
        for f in &part.levels[l].fragments {
            scratch.clips.clear();
            // f.rect and every other same-level fragment are disjoint, so
            // the whole overlap lies in the shell ring; and
            // `g.grow(ghost) ∩ f ≠ ∅  ⟺  g ∩ f.grow(ghost) ≠ ∅`, so the
            // shell query enumerates exactly the fragments with a clip.
            let shell = f.rect.grow(ghost);
            let (clips, vols) = (&mut scratch.clips, &mut scratch.vols);
            scratch.index.query(&shell, |_, rect, owner| {
                if owner != f.owner {
                    let overlap = shell.overlap_cells(&rect);
                    level_cells += overlap;
                    vols[f.owner as usize] += overlap * mult; // received
                    vols[owner as usize] += overlap * mult; // sent
                    if let Some(c) = rect.grow(ghost).intersect(&f.rect) {
                        clips.push(c);
                    }
                }
            });
            level_points +=
                boxops::union_cells_with(&scratch.clips, &mut scratch.pieces, &mut scratch.next);
        }
        acc.intra += level_cells * mult;
        acc.intra_involved += level_points * mult;
        // Inter-level pass against the still-built coarse index.
        if l + 1 < part.levels.len() {
            let fine_mult = (h.ratio as u64).pow((l + 1) as u32);
            let mut mismatched_fine_cells = 0u64;
            for ff in &part.levels[l + 1].fragments {
                // Parent region of the fine fragment in coarse index space.
                let parent = ff.rect.coarsen(h.ratio);
                let vols = &mut scratch.vols;
                scratch.index.query(&parent, |_, rect, owner| {
                    if owner != ff.owner {
                        if let Some(ov) = parent.intersect(&rect) {
                            // Fine cells covered by that overlap.
                            let fine_cov = ov.refine(h.ratio).overlap_cells(&ff.rect);
                            mismatched_fine_cells += fine_cov;
                            vols[ff.owner as usize] += fine_cov * fine_mult;
                            vols[owner as usize] += fine_cov * fine_mult;
                        }
                    }
                });
            }
            acc.inter += mismatched_fine_cells * fine_mult;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::Rect2;
    use samr_partition::{Fragment, LevelPartition};

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    /// One accounting pass on a fresh scratch: the totals and the
    /// per-processor volumes.
    fn account(
        h: &GridHierarchy<2>,
        part: &Partition<2>,
        ghost: i64,
    ) -> (CommAccounting, Vec<u64>) {
        let mut scratch = MetricScratch::default();
        let acc = comm_accounting(h, part, ghost, &mut scratch);
        (acc, scratch.per_proc_vols().to_vec())
    }

    fn base_hierarchy() -> GridHierarchy<2> {
        GridHierarchy::base_only(Rect2::from_extents(8, 8), 2)
    }

    fn split_partition(owner_b: u32) -> Partition<2> {
        Partition {
            nprocs: 2,
            levels: vec![LevelPartition {
                fragments: vec![
                    Fragment {
                        rect: r(0, 0, 3, 7),
                        owner: 0,
                    },
                    Fragment {
                        rect: r(4, 0, 7, 7),
                        owner: owner_b,
                    },
                ],
            }],
        }
    }

    #[test]
    fn single_owner_no_comm() {
        let h = base_hierarchy();
        let part = split_partition(0);
        let (acc, vols) = account(&h, &part, 1);
        assert_eq!(acc.intra, 0);
        assert_eq!(acc.transfer_volume(), 0);
        assert_eq!(vols, vec![0, 0]);
    }

    #[test]
    fn two_owner_split_exchanges_one_column_each_way() {
        let h = base_hierarchy();
        let part = split_partition(1);
        // Fragment A's ghost shell covers column x=4 of B (8 cells) and
        // vice versa: 16 transfers per step, multiplier 1 at level 0.
        assert_eq!(account(&h, &part, 1).0.intra, 16);
        assert_eq!(naive_intra_level_comm(&h, &part, 1), 16);
        // Wider ghost doubles it.
        assert_eq!(account(&h, &part, 2).0.intra, 32);
        assert_eq!(naive_intra_level_comm(&h, &part, 2), 32);
    }

    #[test]
    fn per_proc_comm_is_symmetric_for_symmetric_split() {
        let h = base_hierarchy();
        let part = split_partition(1);
        let (_, v) = account(&h, &part, 1);
        assert_eq!(v, vec![16, 16]);
        assert_eq!(naive_per_proc_comm(&h, &part, 1), v);
    }

    #[test]
    fn level_multiplier_counts_local_steps() {
        // Same split but at level 1: the exchange happens twice per
        // coarse step (ratio 2).
        let h = GridHierarchy::from_level_rects(
            Rect2::from_extents(8, 8),
            2,
            &[vec![], vec![r(0, 0, 7, 7)]],
        );
        let part = Partition {
            nprocs: 2,
            levels: vec![
                LevelPartition {
                    fragments: vec![Fragment {
                        rect: r(0, 0, 7, 7),
                        owner: 0,
                    }],
                },
                LevelPartition {
                    fragments: vec![
                        Fragment {
                            rect: r(0, 0, 3, 7),
                            owner: 0,
                        },
                        Fragment {
                            rect: r(4, 0, 7, 7),
                            owner: 1,
                        },
                    ],
                },
            ],
        };
        assert_eq!(account(&h, &part, 1).0.intra, 16 * 2);
    }

    #[test]
    fn inter_level_zero_when_colocated() {
        let h = GridHierarchy::from_level_rects(
            Rect2::from_extents(8, 8),
            2,
            &[vec![], vec![r(4, 4, 11, 11)]],
        );
        // Domain-based style: fine fragment sits on the same proc as its
        // parent cells.
        let part = Partition {
            nprocs: 2,
            levels: vec![
                LevelPartition {
                    fragments: vec![
                        Fragment {
                            rect: r(0, 0, 7, 3),
                            owner: 0,
                        },
                        Fragment {
                            rect: r(0, 4, 7, 7),
                            owner: 1,
                        },
                    ],
                },
                LevelPartition {
                    fragments: vec![
                        Fragment {
                            rect: r(4, 4, 11, 7),
                            owner: 0,
                        },
                        Fragment {
                            rect: r(4, 8, 11, 11),
                            owner: 1,
                        },
                    ],
                },
            ],
        };
        assert_eq!(account(&h, &part, 1).0.inter, 0);
        assert_eq!(naive_inter_level_comm(&h, &part), 0);
    }

    #[test]
    fn inter_level_counts_mismatched_fine_cells() {
        let h = GridHierarchy::from_level_rects(
            Rect2::from_extents(8, 8),
            2,
            &[vec![], vec![r(4, 4, 11, 11)]],
        );
        // Whole base on proc 0, whole fine level on proc 1: every fine
        // cell (64) is mismatched, multiplier ratio^1 = 2.
        let part = Partition {
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
        let (acc, v) = account(&h, &part, 1);
        assert_eq!(acc.inter, 64 * 2);
        assert_eq!(naive_inter_level_comm(&h, &part), 64 * 2);
        assert_eq!(v[0], 128);
        assert_eq!(v[1], 128);
    }

    #[test]
    fn accounting_matches_the_oracles() {
        let h = GridHierarchy::from_level_rects(
            Rect2::from_extents(8, 8),
            2,
            &[vec![], vec![r(4, 4, 11, 11)]],
        );
        let part = Partition {
            nprocs: 2,
            levels: vec![
                LevelPartition {
                    fragments: vec![
                        Fragment {
                            rect: r(0, 0, 3, 7),
                            owner: 0,
                        },
                        Fragment {
                            rect: r(4, 0, 7, 7),
                            owner: 1,
                        },
                    ],
                },
                LevelPartition {
                    fragments: vec![Fragment {
                        rect: r(4, 4, 11, 11),
                        owner: 0,
                    }],
                },
            ],
        };
        // One scratch across both ghost widths: reuse changes nothing.
        let mut scratch = MetricScratch::default();
        for ghost in [1, 2] {
            let acc = comm_accounting(&h, &part, ghost, &mut scratch);
            assert_eq!(acc.intra, naive_intra_level_comm(&h, &part, ghost));
            assert_eq!(acc.inter, naive_inter_level_comm(&h, &part));
            assert_eq!(
                acc.intra_involved,
                naive_intra_level_involved(&h, &part, ghost)
            );
            assert_eq!(acc.transfer_volume(), naive_total_comm(&h, &part, ghost));
            assert_eq!(
                acc.involved_points(),
                naive_involved_comm_points(&h, &part, ghost)
            );
            assert_eq!(
                scratch.per_proc_vols(),
                naive_per_proc_comm(&h, &part, ghost)
            );
        }
    }
}
