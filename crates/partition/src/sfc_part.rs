//! Domain-based SFC partitioner (Parashar–Browne composite style),
//! generic over the dimension.

use crate::choice::PartitionerChoice;
use crate::types::{Fragment, Partition, PartitionScratch, Partitioner, ProcId};
use crate::weights::{composite_unit_weights_in, sfc_order_with, split_contiguous_into};
use rayon::prelude::*;
use samr_geom::sfc::SfcCurve;
use samr_geom::{boxops, AABox};
use samr_grid::GridHierarchy;
use serde::{Deserialize, Serialize};

/// Configuration of the domain-based SFC partitioner.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DomainSfcParams {
    /// Atomic-unit side length in base cells.
    pub atomic_unit: i64,
    /// Which space-filling curve linearizes the domain.
    pub curve: SfcCurve,
    /// `true` for the fully ordered curve, `false` for the cheaper
    /// partially ordered variant (the Nature+Fable default the paper
    /// suspects of inflating migration, §5.2).
    pub full_order: bool,
}

impl Default for DomainSfcParams {
    fn default() -> Self {
        Self {
            atomic_unit: 2,
            curve: SfcCurve::Hilbert,
            full_order: true,
        }
    }
}

/// Strictly domain-based partitioner: the base domain is diced into atomic
/// units, weighted by the composite workload, linearized along an SFC and
/// cut into contiguous chunks; every level is cut by the same processor
/// regions, so parent and child cells are always co-located (no
/// inter-level communication) at the price of tractable-only load balance.
#[derive(Clone, Copy, Debug, Default)]
pub struct DomainSfcPartitioner {
    /// Tuning parameters.
    pub params: DomainSfcParams,
}

impl DomainSfcPartitioner {
    /// Create with explicit parameters.
    pub fn new(params: DomainSfcParams) -> Self {
        Self { params }
    }

    /// The processor-region decomposition of the base domain (owner-tagged
    /// base-space boxes, coalesced per processor).
    pub fn proc_regions<const D: usize>(
        &self,
        h: &GridHierarchy<D>,
        nprocs: usize,
    ) -> Vec<Vec<AABox<D>>> {
        let mut scratch = PartitionScratch::default();
        self.proc_regions_with(h, nprocs, &mut scratch);
        std::mem::take(&mut scratch.regions)
    }

    /// [`Self::proc_regions`] into `scratch.regions`, reusing the
    /// scratch's weight, key and order buffers across snapshots.
    pub(crate) fn proc_regions_with<const D: usize>(
        &self,
        h: &GridHierarchy<D>,
        nprocs: usize,
        scratch: &mut PartitionScratch<D>,
    ) {
        let buf = std::mem::take(&mut scratch.weights);
        let grid = composite_unit_weights_in(h, self.params.atomic_unit, buf);
        sfc_order_with(&grid, self.params.curve, self.params.full_order, scratch);
        split_contiguous_into(&grid, &scratch.order, nprocs, &mut scratch.owners);
        PartitionScratch::reset_buckets(&mut scratch.regions, nprocs);
        for (i, &u) in scratch.order.iter().enumerate() {
            scratch.regions[scratch.owners[i] as usize].push(grid.unit_rect(&h.base_domain, u));
        }
        for r in &mut scratch.regions {
            boxops::coalesce_in_place(r);
        }
        // Hand the weight buffer back for the next snapshot.
        scratch.weights = grid.weights;
    }
}

/// Build one level's fragment list from the processor regions, bucketing
/// pieces by owner in a single pass (`buckets` is the reusable
/// per-processor arena) and coalescing each bucket — the same output, in
/// the same order, as the historical push-all-then-filter-per-proc loop.
fn build_level<const D: usize>(
    h: &GridHierarchy<D>,
    l: usize,
    regions: &[Vec<AABox<D>>],
    buckets: &mut Vec<Vec<AABox<D>>>,
) -> Vec<Fragment<D>> {
    let nprocs = regions.len();
    PartitionScratch::reset_buckets(buckets, nprocs);
    let level = &h.levels[l];
    let scale = h.ratio.pow(l as u32);
    for (proc, region) in regions.iter().enumerate() {
        for unit_box in region {
            let fine = unit_box.refine(scale);
            for patch in &level.patches {
                if let Some(piece) = patch.rect.intersect(&fine) {
                    buckets[proc].push(piece);
                }
            }
        }
    }
    let mut frags = Vec::new();
    for (proc, bucket) in buckets.iter_mut().enumerate() {
        boxops::coalesce_in_place(bucket);
        for &rect in bucket.iter() {
            frags.push(Fragment {
                rect,
                owner: proc as ProcId,
            });
        }
    }
    frags
}

impl<const D: usize> Partitioner<D> for DomainSfcPartitioner {
    fn name(&self) -> String {
        format!(
            "domain-sfc({:?},{},u{})",
            self.params.curve,
            if self.params.full_order {
                "full"
            } else {
                "partial"
            },
            self.params.atomic_unit
        )
    }

    fn partition(&self, h: &GridHierarchy<D>, nprocs: usize) -> Partition<D> {
        self.partition_with(h, nprocs, &mut PartitionScratch::default())
    }

    fn select(&self, _h: &GridHierarchy<D>, _nprocs: usize) -> Option<PartitionerChoice> {
        Some(PartitionerChoice::DomainSfc(self.params))
    }

    fn partition_with(
        &self,
        h: &GridHierarchy<D>,
        nprocs: usize,
        scratch: &mut PartitionScratch<D>,
    ) -> Partition<D> {
        assert!(nprocs >= 1);
        self.proc_regions_with(h, nprocs, scratch);
        let mut part = Partition::new(nprocs, h.levels.len());
        // Levels are independent given the processor regions. On the
        // outer thread pool, build them rayon-parallel; inside a worker
        // (e.g. under the streaming window's snapshot parallelism)
        // `current_num_threads()` reports 1 and the sequential
        // scratch-arena path runs instead — no oversubscription, and
        // byte-identical output either way.
        if rayon::current_num_threads() > 1 && h.levels.len() > 1 {
            let regions = &scratch.regions;
            let built: Vec<Vec<Fragment<D>>> = (0..h.levels.len())
                .into_par_iter()
                .map(|l| build_level(h, l, regions, &mut Vec::new()))
                .collect();
            for (lp, frags) in part.levels.iter_mut().zip(built) {
                lp.fragments = frags;
            }
        } else {
            for l in 0..h.levels.len() {
                part.levels[l].fragments =
                    build_level(h, l, &scratch.regions, &mut scratch.owner_rects);
            }
        }
        part
    }

    fn cost_estimate(&self, h: &GridHierarchy<D>) -> f64 {
        // Unit weighting + sort: cheap, linear-ish in units and patches.
        let units = (h.base_domain.cells() / (self.params.atomic_unit as u64).pow(D as u32)) as f64;
        let patches: usize = h.levels.iter().map(|l| l.patch_count()).sum();
        0.5 * units.max(1.0).log2() * units / 1000.0
            + patches as f64 / 10.0
            + if self.params.full_order {
                0.0
            } else {
                -0.2 * units / 1000.0
            }
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

    fn hierarchy() -> GridHierarchy<2> {
        GridHierarchy::from_level_rects(
            Rect2::from_extents(32, 32),
            2,
            &[
                vec![],
                vec![r(16, 16, 31, 31), r(40, 8, 47, 15)],
                vec![r(40, 40, 55, 55)],
            ],
        )
    }

    fn hierarchy_3d() -> GridHierarchy<3> {
        GridHierarchy::from_level_rects(
            Box3::from_extents(16, 16, 16),
            2,
            &[
                vec![],
                vec![Box3::from_coords(8, 8, 8, 15, 15, 15)],
                vec![Box3::from_coords(20, 20, 20, 27, 27, 27)],
            ],
        )
    }

    #[test]
    fn produces_valid_partitions() {
        let h = hierarchy();
        for nprocs in [1, 2, 4, 7, 16] {
            for full in [true, false] {
                for curve in [SfcCurve::Morton, SfcCurve::Hilbert] {
                    let p = DomainSfcPartitioner::new(DomainSfcParams {
                        atomic_unit: 2,
                        curve,
                        full_order: full,
                    });
                    let part = p.partition(&h, nprocs);
                    assert_eq!(
                        validate_partition(&h, &part),
                        Ok(()),
                        "nprocs={nprocs} full={full} curve={curve:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn produces_valid_partitions_3d() {
        let h = hierarchy_3d();
        for nprocs in [1, 3, 8] {
            for curve in [SfcCurve::Morton, SfcCurve::Hilbert] {
                let p = DomainSfcPartitioner::new(DomainSfcParams {
                    atomic_unit: 2,
                    curve,
                    full_order: true,
                });
                let part = p.partition(&h, nprocs);
                assert_eq!(
                    validate_partition(&h, &part),
                    Ok(()),
                    "nprocs={nprocs} curve={curve:?}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_is_identical_to_fresh() {
        // The PartitionScratch contract: partition_with through one
        // reused scratch returns exactly what partition returns, for
        // every snapshot in a sequence and across dirty scratch state.
        let p = DomainSfcPartitioner::default();
        let mut scratch = PartitionScratch::default();
        let hierarchies = [
            hierarchy(),
            GridHierarchy::base_only(Rect2::from_extents(64, 64), 2),
            hierarchy(),
        ];
        for h in &hierarchies {
            for nprocs in [1, 3, 16, 5] {
                let fresh = p.partition(h, nprocs);
                let reused = p.partition_with(h, nprocs, &mut scratch);
                assert_eq!(fresh, reused, "nprocs={nprocs}");
            }
        }
        // 3-D too.
        let h3 = hierarchy_3d();
        let mut s3 = PartitionScratch::<3>::default();
        for nprocs in [2, 8, 3] {
            assert_eq!(
                p.partition(&h3, nprocs),
                p.partition_with(&h3, nprocs, &mut s3)
            );
        }
    }

    #[test]
    fn single_proc_gets_everything() {
        let h = hierarchy();
        let part = DomainSfcPartitioner::default().partition(&h, 1);
        assert!((part.load_imbalance(2) - 1.0).abs() < 1e-12);
        assert!(part
            .levels
            .iter()
            .all(|l| l.fragments.iter().all(|f| f.owner == 0)));
    }

    #[test]
    fn balance_is_reasonable_for_uniform_grid() {
        let h = GridHierarchy::base_only(Rect2::from_extents(64, 64), 2);
        let part = DomainSfcPartitioner::default().partition(&h, 8);
        assert!(part.load_imbalance(2) < 1.1, "{}", part.load_imbalance(2));
    }

    #[test]
    fn balance_is_reasonable_for_uniform_grid_3d() {
        let h = GridHierarchy::base_only(Box3::from_extents(16, 16, 16), 2);
        let part = DomainSfcPartitioner::default().partition(&h, 8);
        assert!(part.load_imbalance(2) < 1.1, "{}", part.load_imbalance(2));
    }

    #[test]
    fn domain_based_colocation_no_interlevel_split() {
        // The defining property: a fine cell's owner equals the owner of
        // the base cell underneath it.
        let h = hierarchy();
        let p = DomainSfcPartitioner::default();
        let part = p.partition(&h, 4);
        let regions = p.proc_regions(&h, 4);
        for (l, lp) in part.levels.iter().enumerate() {
            let scale = h.ratio.pow(l as u32);
            for f in &lp.fragments {
                // The fragment's base footprint must lie entirely in its
                // owner's region.
                let fp = f.rect.coarsen(scale);
                assert!(
                    boxops::covers(&fp, &regions[f.owner as usize]),
                    "level {l} fragment {:?} leaks out of proc {} region",
                    f.rect,
                    f.owner
                );
            }
        }
    }

    #[test]
    fn deep_localized_hierarchy_has_intractable_imbalance() {
        // The paper's §3.1 observation: small base grid + many procs +
        // deep localized refinement => domain-based imbalance blows up.
        let h = GridHierarchy::from_level_rects(
            Rect2::from_extents(16, 16),
            2,
            &[
                vec![],
                vec![r(12, 12, 19, 19)],
                vec![r(26, 26, 37, 37)],
                vec![r(56, 56, 71, 71)],
            ],
        );
        let part = DomainSfcPartitioner::default().partition(&h, 16);
        assert!(part.load_imbalance(2) > 1.5, "{}", part.load_imbalance(2));
    }

    #[test]
    fn partial_order_differs_from_full() {
        // Needs more than 2^4 units per side for the partial bucketing to
        // bite: 128x128 base at unit 2 = 64x64 units (order 6).
        let h = GridHierarchy::from_level_rects(
            Rect2::from_extents(128, 128),
            2,
            &[vec![], vec![r(40, 40, 87, 87)]],
        );
        let full = DomainSfcPartitioner::new(DomainSfcParams {
            full_order: true,
            atomic_unit: 2,
            curve: SfcCurve::Hilbert,
        });
        let partial = DomainSfcPartitioner::new(DomainSfcParams {
            full_order: false,
            atomic_unit: 2,
            curve: SfcCurve::Hilbert,
        });
        // Different orderings generally yield different partitions.
        let a = full.partition(&h, 5);
        let b = partial.partition(&h, 5);
        assert_ne!(a, b);
        assert_eq!(validate_partition(&h, &a), Ok(()));
        assert_eq!(validate_partition(&h, &b), Ok(()));
    }
}
