//! Hybrid partitioner: the Nature+Fable scheme (Hues + Cores +
//! bi-levels), generic over the dimension.
//!
//! Nature+Fable (§2.2 of the paper) "separates homogeneous, unrefined
//! (Hue) and complex, refined (Core) domains of the grid hierarchy and
//! clusters refinement levels into bi-levels". The Cores are separated
//! *strictly domain-based* (each Core owns a portion of the base grid and
//! everything refined above it); expert blocking algorithms distribute the
//! Hues; Cores get a coarse partitioning onto processor *groups* and their
//! bi-levels are then partitioned within each group. This module
//! reimplements that published structure:
//!
//! 1. the refined footprint of level 1 on the base grid is split into
//!    connected components — the **Cores**;
//! 2. the remaining base cells are the **Hue**;
//! 3. each Core is assigned a processor group sized by its share of the
//!    composite workload;
//! 4. within a group, each **bi-level** (levels `{0,1}`, `{2,3}`, `{4}`) is
//!    partitioned domain-based along an SFC over the Core footprint,
//!    weighted by that bi-level's own workload — different bi-levels may
//!    be cut differently (that is the hybrid concession: some inter-level
//!    communication between bi-levels in exchange for per-bi-level
//!    balance);
//! 5. Hue blocks are distributed greedily to top up processor loads.

use crate::choice::PartitionerChoice;
use crate::types::{drain_buckets, Fragment, Partition, Partitioner, ProcId};
use crate::weights::{split_contiguous, unit_key};
use samr_geom::sfc::SfcCurve;
use samr_geom::{boxops, AABox, Point, Region};
use samr_grid::stats::component_labels;
use samr_grid::GridHierarchy;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of the hybrid partitioner (the tunables Nature+Fable
/// exposes to the meta-partitioner).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HybridParams {
    /// Atomic-unit side length in base cells.
    pub atomic_unit: i64,
    /// Space-filling curve for the per-bi-level Core splits.
    pub curve: SfcCurve,
    /// Fully ordered (`true`) or partially ordered (`false`) SFC. The
    /// paper's §5.2 notes the default partially ordered mapping as a
    /// suspected source of extra data migration.
    pub full_order: bool,
    /// Number of refinement levels clustered into one bi-level.
    pub bilevel_size: usize,
    /// Target number of Hue blocks per processor (expert-blocking
    /// granularity).
    pub hue_blocks_per_proc: usize,
    /// *Fractional blocking* (§4, "to focus on load balance in
    /// Nature+Fable we may choose a small atomic unit, select a large Q,
    /// choose fractional blocking and so forth"): when topping up
    /// processor loads with Hue blocks, split a block at the exact cell
    /// count that fills the processor's remaining deficit instead of
    /// assigning it whole. Tightens load balance at the cost of extra
    /// fragments.
    pub fractional_blocking: bool,
}

impl Default for HybridParams {
    fn default() -> Self {
        // The paper's "static neutral default" set-up.
        Self {
            atomic_unit: 2,
            curve: SfcCurve::Morton,
            full_order: false,
            bilevel_size: 2,
            hue_blocks_per_proc: 2,
            fractional_blocking: false,
        }
    }
}

/// The hybrid Hue/Core bi-level partitioner (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct HybridPartitioner {
    /// Tuning parameters.
    pub params: HybridParams,
}

/// One Core: a connected component of the refined base footprint.
struct Core<const D: usize> {
    /// Base-space footprint boxes (disjoint).
    footprint: Vec<AABox<D>>,
    /// Composite workload over the footprint (all levels).
    weight: u64,
    /// Processor group assigned to this core.
    group: Vec<ProcId>,
}

impl HybridPartitioner {
    /// Create with explicit parameters.
    pub fn new(params: HybridParams) -> Self {
        Self { params }
    }

    /// Identify the Cores of a hierarchy: connected components of the
    /// level-1 footprint on the base grid. Returns `(cores, hue_region)`.
    fn find_cores<const D: usize>(&self, h: &GridHierarchy<D>) -> (Vec<Core<D>>, Region<D>) {
        if h.levels.len() < 2 {
            return (Vec::new(), Region::from_rect(h.base_domain));
        }
        let footprint: Vec<AABox<D>> = boxops::disjointify(
            &h.levels[1]
                .rects()
                .iter()
                .map(|r| r.coarsen(h.ratio))
                .collect::<Vec<_>>(),
        );
        let labels = component_labels(&footprint);
        let ncores = labels.iter().max().map_or(0, |m| m + 1);
        let mut cores: Vec<Core<D>> = (0..ncores)
            .map(|_| Core {
                footprint: Vec::new(),
                weight: 0,
                group: Vec::new(),
            })
            .collect();
        for (b, &lab) in footprint.iter().zip(&labels) {
            cores[lab].footprint.push(*b);
        }
        // Composite weight of each core: base cells of the footprint plus
        // every refined cell above it, with time-refinement weighting.
        for core in &mut cores {
            core.weight = boxops::total_cells(&core.footprint);
            for (l, level) in h.levels.iter().enumerate().skip(1) {
                let scale = h.ratio.pow(l as u32);
                let w = (h.ratio as u64).pow(l as u32);
                for patch in &level.patches {
                    let fp = patch.rect.coarsen(scale);
                    // The patch belongs to this core iff its footprint
                    // intersects it (components are disjoint, nesting makes
                    // the containment total).
                    let inside: u64 = core.footprint.iter().map(|b| fp.overlap_cells(b)).sum();
                    if inside > 0 {
                        core.weight += patch.rect.cells() * w;
                    }
                }
            }
        }
        let hue = Region::from_rect(h.base_domain).subtract_boxes(&footprint);
        (cores, hue)
    }

    /// Allocate processor groups to cores proportionally to their weight.
    fn assign_groups<const D: usize>(cores: &mut [Core<D>], nprocs: usize) {
        if cores.is_empty() {
            return;
        }
        let total: u64 = cores.iter().map(|c| c.weight).sum::<u64>().max(1);
        // Initial proportional share, at least one processor each.
        let mut sizes: Vec<usize> = cores
            .iter()
            .map(|c| ((nprocs as f64 * c.weight as f64 / total as f64).round() as usize).max(1))
            .collect();
        // Trim over-allocation from the smallest cores first.
        let mut sum: usize = sizes.iter().sum();
        while sum > nprocs {
            // Shrink the core with the largest size > 1 (deterministic).
            if let Some(i) = (0..sizes.len())
                .filter(|&i| sizes[i] > 1)
                .max_by_key(|&i| (sizes[i], i))
            {
                sizes[i] -= 1;
                sum -= 1;
            } else {
                break; // more cores than processors: groups will share
            }
        }
        // Distribute leftover processors to the heaviest cores.
        let mut order: Vec<usize> = (0..cores.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse((cores[i].weight, i)));
        let mut idx = 0;
        while sum < nprocs {
            sizes[order[idx % order.len()]] += 1;
            sum += 1;
            idx += 1;
        }
        // Hand out consecutive ranks (wrapping when cores > nprocs).
        let mut next: usize = 0;
        for (i, core) in cores.iter_mut().enumerate() {
            let take = sizes[i];
            core.group = (0..take).map(|k| ((next + k) % nprocs) as ProcId).collect();
            next += take;
        }
    }

    /// Dice a core footprint into SFC-ordered atomic-unit pieces weighted
    /// by the level range `lo..hi`. Fills the flat `pieces` arena and one
    /// `(sfc key, piece start, piece count, weight)` record per occupied
    /// unit into `units` (sorted by key) — no per-unit heap allocation,
    /// and both arenas are reused across the cores and bi-levels of one
    /// partition.
    fn bilevel_units<const D: usize>(
        &self,
        h: &GridHierarchy<D>,
        footprint: &[AABox<D>],
        (level_lo, level_hi): (usize, usize),
        pieces: &mut Vec<AABox<D>>,
        units: &mut Vec<(u64, u32, u32, u64)>,
    ) {
        pieces.clear();
        units.clear();
        let unit = self.params.atomic_unit;
        let domain = h.base_domain;
        let dims: [i64; D] = std::array::from_fn(|i| (domain.extent()[i] + unit - 1) / unit);
        let key = unit_key(dims, self.params.curve, self.params.full_order);
        for u in AABox::<D>::from_extent_array(dims).iter_cells() {
            let lo = Point::<D>::from_fn(|i| domain.lo()[i] + u[i] * unit);
            let hi = Point::<D>::from_fn(|i| (lo[i] + unit - 1).min(domain.hi()[i]));
            let unit_box = AABox::new(lo, hi);
            let start = pieces.len() as u32;
            for b in footprint {
                if let Some(p) = b.intersect(&unit_box) {
                    pieces.push(p);
                }
            }
            let count = pieces.len() as u32 - start;
            if count == 0 {
                continue;
            }
            let mut weight = 0u64;
            for l in level_lo..level_hi.min(h.levels.len()) {
                let scale = h.ratio.pow(l as u32);
                let w = (h.ratio as u64).pow(l as u32);
                for piece in &pieces[start as usize..] {
                    let fine = piece.refine(scale);
                    for patch in &h.levels[l].patches {
                        weight += patch.rect.overlap_cells(&fine) * w;
                    }
                }
            }
            units.push((key(u), start, count, weight));
        }
        units.sort_by_key(|&(k, ..)| k);
    }

    /// Expert blocking of the Hue: split each Hue box into roughly cubic
    /// blocks targeting `hue_blocks_per_proc x nprocs` blocks overall.
    fn block_hue<const D: usize>(&self, hue: &Region<D>, nprocs: usize) -> Vec<AABox<D>> {
        let cells = hue.cells();
        if cells == 0 {
            return Vec::new();
        }
        let target_blocks = (self.params.hue_blocks_per_proc * nprocs).max(1) as u64;
        let target_cells = (cells / target_blocks).max(1);
        let mut blocks = Vec::new();
        let mut queue: Vec<AABox<D>> = hue.boxes().to_vec();
        while let Some(b) = queue.pop() {
            if b.cells() <= target_cells || b.bisect().is_none() {
                blocks.push(b);
            } else {
                let (l, r) = b.bisect().unwrap();
                queue.push(l);
                queue.push(r);
            }
        }
        blocks.sort_by(|a, b| a.cmp_spatial(b));
        blocks
    }

    /// Top up processor `loads` with the Hue `blocks`, in order: each
    /// block goes to the least-loaded processor, the lowest rank among
    /// equals, and lands in `out`. A binary min-heap keyed `(load, rank)`
    /// finds that processor in `O(log nprocs)` per block.
    fn top_up<const D: usize>(
        &self,
        mut blocks: Vec<AABox<D>>,
        loads: Vec<u64>,
        ideal: f64,
        out: &mut Vec<Fragment<D>>,
    ) {
        let mut least_loaded: BinaryHeap<Reverse<(u64, ProcId)>> = loads
            .into_iter()
            .enumerate()
            .map(|(rank, load)| Reverse((load, rank as ProcId)))
            .collect();
        blocks.reverse(); // pop from the front of the sorted order
        while let Some(rect) = blocks.pop() {
            let mut least = least_loaded.peek_mut().expect("nprocs >= 1");
            let Reverse((load, owner)) = *least;
            let take = match self.fractional_split(&rect, load, ideal) {
                Some((take, rest)) => {
                    blocks.push(rest);
                    take
                }
                None => rect,
            };
            *least = Reverse((load + take.cells(), owner));
            out.push(Fragment { rect: take, owner });
        }
    }

    /// Under fractional blocking, split `rect` at the exact deficit of a
    /// processor loaded `load` below `ideal`, when both halves stay
    /// non-trivial: `(taken, rest)`.
    fn fractional_split<const D: usize>(
        &self,
        rect: &AABox<D>,
        load: u64,
        ideal: f64,
    ) -> Option<(AABox<D>, AABox<D>)> {
        let deficit = (ideal - load as f64).max(0.0) as u64;
        if !self.params.fractional_blocking || deficit == 0 || rect.cells() <= deficit {
            return None;
        }
        let axis = rect.longest_axis();
        let want_len =
            ((deficit as f64 / rect.cells() as f64) * rect.len(axis) as f64).round() as i64;
        (want_len >= 1 && want_len < rect.len(axis))
            .then(|| rect.split_at(axis, rect.lo().get(axis) + want_len - 1))
    }
}

impl<const D: usize> Partitioner<D> for HybridPartitioner {
    fn name(&self) -> String {
        let hue = self.params.hue_blocks_per_proc;
        format!(
            "hybrid-nf({:?},{},u{},bi{}{}{})",
            self.params.curve,
            if self.params.full_order {
                "full"
            } else {
                "partial"
            },
            self.params.atomic_unit,
            self.params.bilevel_size,
            if hue == HybridParams::default().hue_blocks_per_proc {
                String::new()
            } else {
                format!(",hue{hue}")
            },
            if self.params.fractional_blocking {
                ",frac"
            } else {
                ""
            }
        )
    }

    fn partition(&self, h: &GridHierarchy<D>, nprocs: usize) -> Partition<D> {
        assert!(nprocs >= 1);
        let (mut cores, hue) = self.find_cores(h);
        Self::assign_groups(&mut cores, nprocs);
        let mut part = Partition::new(nprocs, h.levels.len());
        let mut loads = vec![0u64; nprocs];

        // --- Cores: per bi-level domain-based split within the group.
        let (mut pieces, mut units, mut owners) = (Vec::new(), Vec::new(), Vec::new());
        let bl = self.params.bilevel_size.max(1);
        for core in &cores {
            let mut b = 0usize;
            while b * bl < h.levels.len() {
                let bounds = (b * bl, ((b + 1) * bl).min(h.levels.len()));
                self.bilevel_units(h, &core.footprint, bounds, &mut pieces, &mut units);
                if units.is_empty() {
                    b += 1;
                    continue;
                }
                owners.clear();
                owners.extend(
                    split_contiguous(units.iter().map(|&(.., w)| w), core.group.len())
                        .map(|g| core.group[g]),
                );
                for l in bounds.0..bounds.1 {
                    let scale = h.ratio.pow(l as u32);
                    let w = (h.ratio as u64).pow(l as u32);
                    for (&(_, start, count, _), owner) in units.iter().zip(&owners) {
                        for piece in &pieces[start as usize..(start + count) as usize] {
                            let fine = piece.refine(scale);
                            for patch in &h.levels[l].patches {
                                if let Some(frag) = patch.rect.intersect(&fine) {
                                    part.levels[l].fragments.push(Fragment {
                                        rect: frag,
                                        owner: *owner,
                                    });
                                    loads[*owner as usize] += frag.cells() * w;
                                }
                            }
                        }
                    }
                }
                b += 1;
            }
        }

        // --- Hue: expert blocking + greedy top-up of processor loads.
        let blocks = self.block_hue(&hue, nprocs);
        let total_work: u64 = loads.iter().sum::<u64>() + hue.cells();
        let ideal = total_work as f64 / nprocs as f64;
        self.top_up(blocks, loads, ideal, &mut part.levels[0].fragments);

        // Coalesce each level's fragments per owner.
        let mut buckets = vec![Vec::new(); nprocs];
        for lp in &mut part.levels {
            for f in &lp.fragments {
                buckets[f.owner as usize].push(f.rect);
            }
            lp.fragments = drain_buckets(&mut buckets);
        }
        part
    }

    fn select(&self, _h: &GridHierarchy<D>, _nprocs: usize) -> Option<PartitionerChoice> {
        Some(PartitionerChoice::Hybrid(self.params))
    }

    fn cost_estimate(&self, h: &GridHierarchy<D>) -> f64 {
        // Two-step scheme: core identification + per-bi-level SFC splits +
        // hue blocking. The most expensive of the three families.
        let units = (h.base_domain.cells() / (self.params.atomic_unit as u64).pow(D as u32)) as f64;
        let patches: usize = h.levels.iter().map(|l| l.patch_count()).sum();
        let bilevels = h.levels.len().div_ceil(self.params.bilevel_size.max(1)) as f64;
        bilevels * units.max(1.0).log2() * units / 800.0 + patches as f64 / 5.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::validate_partition;
    use samr_geom::{Box3, Rect2};

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    /// Two separated refined islands over a 32x32 base, three levels.
    fn hierarchy() -> GridHierarchy<2> {
        GridHierarchy::from_level_rects(
            Rect2::from_extents(32, 32),
            2,
            &[
                vec![],
                vec![r(4, 4, 19, 19), r(44, 44, 59, 59)],
                vec![r(12, 12, 31, 31)],
            ],
        )
    }

    #[test]
    fn produces_valid_partitions() {
        let h = hierarchy();
        for nprocs in [1, 2, 4, 8, 16] {
            let part = HybridPartitioner::default().partition(&h, nprocs);
            assert_eq!(validate_partition(&h, &part), Ok(()), "nprocs={nprocs}");
        }
    }

    #[test]
    fn produces_valid_partitions_3d() {
        // Two refined islands in a 16^3 base with a deeper level on one.
        let h = GridHierarchy::from_level_rects(
            Box3::from_extents(16, 16, 16),
            2,
            &[
                vec![],
                vec![
                    Box3::from_coords(2, 2, 2, 9, 9, 9),
                    Box3::from_coords(22, 22, 22, 29, 29, 29),
                ],
                vec![Box3::from_coords(6, 6, 6, 17, 17, 17)],
            ],
        );
        for nprocs in [1, 2, 5, 8] {
            let part = HybridPartitioner::default().partition(&h, nprocs);
            assert_eq!(validate_partition(&h, &part), Ok(()), "nprocs={nprocs}");
        }
    }

    #[test]
    fn base_only_hierarchy_is_pure_hue() {
        let h = GridHierarchy::base_only(Rect2::from_extents(32, 32), 2);
        let part = HybridPartitioner::default().partition(&h, 4);
        assert_eq!(validate_partition(&h, &part), Ok(()));
        assert!(part.load_imbalance(2) < 1.3, "{}", part.load_imbalance(2));
    }

    #[test]
    fn cores_are_identified_correctly() {
        let h = hierarchy();
        let p = HybridPartitioner::default();
        let (cores, hue) = p.find_cores(&h);
        assert_eq!(cores.len(), 2);
        // Footprints: [2..9]^2 and [22..29]^2 on the base; hue is the
        // rest.
        let total_fp: u64 = cores
            .iter()
            .map(|c| boxops::total_cells(&c.footprint))
            .sum();
        assert_eq!(total_fp, 64 + 64);
        assert_eq!(hue.cells(), 1024 - 128);
        // The core under the level-2 patch is heavier.
        let w0 = &cores[0];
        let w1 = &cores[1];
        assert_ne!(w0.weight, w1.weight);
    }

    #[test]
    fn group_sizes_track_weights() {
        let h = hierarchy();
        let p = HybridPartitioner::default();
        let (mut cores, _) = p.find_cores(&h);
        HybridPartitioner::assign_groups(&mut cores, 8);
        let total: usize = cores.iter().map(|c| c.group.len()).sum();
        assert_eq!(total, 8);
        // Heavier core gets the bigger group.
        let (heavy, light) = if cores[0].weight > cores[1].weight {
            (&cores[0], &cores[1])
        } else {
            (&cores[1], &cores[0])
        };
        assert!(heavy.group.len() >= light.group.len());
        // All ranks distinct when nprocs >= sum of groups.
        let mut all: Vec<ProcId> = cores.iter().flat_map(|c| c.group.iter().copied()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn more_cores_than_procs_share_ranks() {
        // Six tiny cores, 2 processors.
        let rects: Vec<Rect2> = (0..6)
            .map(|i| {
                let o = i * 10;
                r(o * 2, 0, o * 2 + 3, 3)
            })
            .collect();
        let h = GridHierarchy::from_level_rects(Rect2::from_extents(64, 32), 2, &[vec![], rects]);
        let part = HybridPartitioner::default().partition(&h, 2);
        assert_eq!(validate_partition(&h, &part), Ok(()));
    }

    #[test]
    fn hue_blocks_top_up_loads() {
        let h = hierarchy();
        let part = HybridPartitioner::default().partition(&h, 4);
        // Overall balance should be decent: hue top-up compensates the
        // heavy core groups.
        let imb = part.load_imbalance(2);
        assert!(imb < 1.8, "imbalance {imb}");
    }

    #[test]
    fn deterministic() {
        let h = hierarchy();
        let a = HybridPartitioner::default().partition(&h, 5);
        let b = HybridPartitioner::default().partition(&h, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn fractional_blocking_tightens_balance() {
        let h = hierarchy();
        let plain = HybridPartitioner::default().partition(&h, 8);
        let frac = HybridPartitioner::new(HybridParams {
            fractional_blocking: true,
            ..HybridParams::default()
        })
        .partition(&h, 8);
        assert_eq!(validate_partition(&h, &frac), Ok(()));
        assert!(
            frac.load_imbalance(2) <= plain.load_imbalance(2) + 1e-12,
            "fractional {} vs plain {}",
            frac.load_imbalance(2),
            plain.load_imbalance(2)
        );
        // Fractional splitting may produce extra fragments — that is the
        // advertised trade-off.
        assert!(frac.fragment_count() >= plain.fragment_count());
    }

    #[test]
    fn fractional_blocking_valid_across_proc_counts() {
        let h = hierarchy();
        for nprocs in [2, 5, 16] {
            let p = HybridPartitioner::new(HybridParams {
                fractional_blocking: true,
                ..HybridParams::default()
            });
            let part = p.partition(&h, nprocs);
            assert_eq!(validate_partition(&h, &part), Ok(()), "nprocs={nprocs}");
        }
    }

    /// The linear scan the heap top-up replaced: the least-loaded
    /// processor by `min_by_key((load, rank))` for every block.
    fn linear_top_up(
        p: &HybridPartitioner,
        blocks: &[Rect2],
        mut loads: Vec<u64>,
        ideal: f64,
    ) -> Vec<Fragment<2>> {
        let mut out = Vec::new();
        let mut queue: Vec<Rect2> = blocks.iter().rev().copied().collect();
        while let Some(rect) = queue.pop() {
            let (owner, _) = loads
                .iter()
                .enumerate()
                .min_by_key(|&(i, &w)| (w, i))
                .unwrap();
            let take = match p.fractional_split(&rect, loads[owner], ideal) {
                Some((take, rest)) => {
                    queue.push(rest);
                    take
                }
                None => rect,
            };
            loads[owner] += take.cells();
            out.push(Fragment {
                rect: take,
                owner: owner as ProcId,
            });
        }
        out
    }

    #[test]
    fn heap_top_up_picks_the_linear_scan_owner() {
        // Random loads drawn from four values, so most of them tie, with
        // and without fractional blocking.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let hue = Region::from_rect(Rect2::from_extents(48, 40));
        let mut splits = 0;
        for fractional_blocking in [false, true] {
            let p = HybridPartitioner::new(HybridParams {
                fractional_blocking,
                ..HybridParams::default()
            });
            for nprocs in [1, 2, 3, 7, 16, 64] {
                let blocks = p.block_hue(&hue, nprocs);
                for _ in 0..8 {
                    let loads: Vec<u64> = (0..nprocs).map(|_| draw() % 4 * 40).collect();
                    let total = loads.iter().sum::<u64>() + hue.cells();
                    let ideal = total as f64 / nprocs as f64;
                    let mut heap = Vec::new();
                    p.top_up(blocks.clone(), loads.clone(), ideal, &mut heap);
                    splits += heap.len() - blocks.len();
                    assert_eq!(
                        heap,
                        linear_top_up(&p, &blocks, loads, ideal),
                        "nprocs {nprocs} fractional {fractional_blocking}"
                    );
                }
            }
        }
        assert!(splits > 0, "fractional blocking must split some blocks");
    }

    #[test]
    fn bilevel_one_behaves_like_per_level_domain_split() {
        let h = hierarchy();
        let p = HybridPartitioner::new(HybridParams {
            bilevel_size: 1,
            ..HybridParams::default()
        });
        let part = p.partition(&h, 4);
        assert_eq!(validate_partition(&h, &part), Ok(()));
    }

    #[test]
    fn cost_estimate_is_highest_of_families() {
        let h = hierarchy();
        let hybrid = HybridPartitioner::default();
        let sfc = crate::sfc_part::DomainSfcPartitioner::default();
        assert!(
            Partitioner::<2>::cost_estimate(&hybrid, &h)
                > Partitioner::<2>::cost_estimate(&sfc, &h)
        );
    }
}
