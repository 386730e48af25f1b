//! Partition representation and the partitioner interface, generic over
//! the dimension.

use crate::choice::PartitionerChoice;
use samr_geom::{boxops, AABox};
use samr_grid::GridHierarchy;
use serde::{Deserialize, Serialize, Value};

/// Processor rank.
pub type ProcId = u32;

/// One owner-tagged piece of a level: `rect` (in the level's index space)
/// is assigned to processor `owner`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fragment<const D: usize> {
    /// The cells of the fragment.
    pub rect: AABox<D>,
    /// Owning processor.
    pub owner: ProcId,
}

impl<const D: usize> Serialize for Fragment<D> {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("rect".to_string(), self.rect.serialize()),
            ("owner".to_string(), self.owner.serialize()),
        ])
    }
}

impl<const D: usize> Deserialize for Fragment<D> {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            rect: serde::field(v, "rect")?,
            owner: serde::field(v, "owner")?,
        })
    }
}

/// The fragments of one refinement level.
#[derive(Clone, PartialEq, Debug)]
pub struct LevelPartition<const D: usize> {
    /// Disjoint fragments tiling the level's patches.
    pub fragments: Vec<Fragment<D>>,
}

impl<const D: usize> Default for LevelPartition<D> {
    fn default() -> Self {
        Self {
            fragments: Vec::new(),
        }
    }
}

impl<const D: usize> LevelPartition<D> {
    /// Total cells assigned at this level.
    pub fn cells(&self) -> u64 {
        self.fragments.iter().map(|f| f.rect.cells()).sum()
    }

    /// Fragments owned by `p`.
    pub fn owned_by(&self, p: ProcId) -> impl Iterator<Item = &Fragment<D>> + '_ {
        self.fragments.iter().filter(move |f| f.owner == p)
    }

    /// The boxes owned by `p` at this level.
    pub fn rects_of(&self, p: ProcId) -> Vec<AABox<D>> {
        self.owned_by(p).map(|f| f.rect).collect()
    }
}

impl<const D: usize> Serialize for LevelPartition<D> {
    fn serialize(&self) -> Value {
        Value::Map(vec![("fragments".to_string(), self.fragments.serialize())])
    }
}

impl<const D: usize> Deserialize for LevelPartition<D> {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            fragments: serde::field(v, "fragments")?,
        })
    }
}

/// A complete distribution of a hierarchy over `nprocs` processors.
#[derive(Clone, PartialEq, Debug)]
pub struct Partition<const D: usize> {
    /// Number of processors partitioned over.
    pub nprocs: usize,
    /// One entry per hierarchy level.
    pub levels: Vec<LevelPartition<D>>,
}

impl<const D: usize> Serialize for Partition<D> {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("nprocs".to_string(), self.nprocs.serialize()),
            ("levels".to_string(), self.levels.serialize()),
        ])
    }
}

impl<const D: usize> Deserialize for Partition<D> {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            nprocs: serde::field(v, "nprocs")?,
            levels: serde::field(v, "levels")?,
        })
    }
}

impl<const D: usize> Partition<D> {
    /// An empty partition skeleton.
    pub fn new(nprocs: usize, nlevels: usize) -> Self {
        Self {
            nprocs,
            levels: vec![LevelPartition::default(); nlevels],
        }
    }

    /// Computational load per processor: cells weighted by the per-level
    /// local-step multiplicity `ratio^l` (the same weighting as the
    /// hierarchy workload, so `loads.sum() == h.workload()`).
    pub fn loads(&self, ratio: i64) -> Vec<u64> {
        let mut loads = vec![0u64; self.nprocs];
        for (l, level) in self.levels.iter().enumerate() {
            let w = (ratio as u64).pow(l as u32);
            for f in &level.fragments {
                loads[f.owner as usize] += f.rect.cells() * w;
            }
        }
        loads
    }

    /// Load imbalance as the paper's de-facto standard (§4.1): load of the
    /// heaviest processor divided by the average load. 1.0 is perfect.
    pub fn load_imbalance(&self, ratio: i64) -> f64 {
        let loads = self.loads(ratio);
        let max = loads.iter().copied().max().unwrap_or(0);
        let sum: u64 = loads.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        let avg = sum as f64 / self.nprocs as f64;
        max as f64 / avg
    }

    /// Total number of fragments (partitioning fragmentation overhead
    /// metric).
    pub fn fragment_count(&self) -> usize {
        self.levels.iter().map(|l| l.fragments.len()).sum()
    }
}

/// Reusable working memory for the partitioner hot path.
///
/// A snapshot stream invokes a partitioner once per regrid; without a
/// scratch every invocation re-allocates the same region buckets, unit
/// arenas and SFC key buffers. Callers that partition many snapshots
/// hold one `PartitionScratch` and pass it to
/// [`Partitioner::partition_with`]; the buffers grow to the
/// high-water mark of the stream and are reused from then on.
///
/// The reuse contract: `partition_with(h, n, scratch)` returns exactly
/// the same `Partition` as `partition(h, n)` for every implementor —
/// the scratch only changes *where* intermediates live, never what is
/// computed. The contents of the scratch between calls are
/// unspecified; any invocation may clobber them.
pub struct PartitionScratch<const D: usize> {
    /// Per-processor rect buckets (region lists, coalesce inputs).
    pub(crate) owner_rects: Vec<Vec<AABox<D>>>,
    /// Per-processor base-domain region boxes (domain-SFC).
    pub(crate) regions: Vec<Vec<AABox<D>>>,
    /// Composite unit weights (handed into `UnitGrid` and back).
    pub(crate) weights: Vec<u64>,
    /// Unit coordinates for batch SFC key generation.
    pub(crate) coords: Vec<[u64; D]>,
    /// Batch SFC key output.
    pub(crate) keys: Vec<u64>,
    /// `(effective key, unit)` pairs awaiting the order sort.
    pub(crate) keyed: Vec<(u64, [i64; D])>,
    /// The SFC-ordered unit sequence.
    pub(crate) order: Vec<[i64; D]>,
    /// Owner of each SFC-ordered unit.
    pub(crate) owners: Vec<ProcId>,
    /// Flat piece arena for the hybrid bi-level units.
    pub(crate) pieces: Vec<AABox<D>>,
    /// Hybrid units as `(key, piece start, piece count, weight)` over
    /// the piece arena.
    pub(crate) units: Vec<(u64, u32, u32, u64)>,
}

impl<const D: usize> Default for PartitionScratch<D> {
    fn default() -> Self {
        Self {
            owner_rects: Vec::new(),
            regions: Vec::new(),
            weights: Vec::new(),
            coords: Vec::new(),
            keys: Vec::new(),
            keyed: Vec::new(),
            order: Vec::new(),
            owners: Vec::new(),
            pieces: Vec::new(),
            units: Vec::new(),
        }
    }
}

impl<const D: usize> PartitionScratch<D> {
    /// Clear `buckets` down to `n` empty per-processor lists, keeping
    /// the allocated capacity of each retained list.
    pub(crate) fn reset_buckets(buckets: &mut Vec<Vec<AABox<D>>>, n: usize) {
        buckets.truncate(n);
        for b in buckets.iter_mut() {
            b.clear();
        }
        while buckets.len() < n {
            buckets.push(Vec::new());
        }
    }
}

/// A partitioning algorithm: hierarchy in, owner-tagged fragments out.
pub trait Partitioner<const D: usize> {
    /// Human-readable name (includes configuration).
    fn name(&self) -> String;

    /// Partition `h` over `nprocs` processors.
    fn partition(&self, h: &GridHierarchy<D>, nprocs: usize) -> Partition<D>;

    /// Partition `h` over `nprocs` processors, reusing `scratch` for
    /// intermediate allocations. Must return exactly what
    /// [`Partitioner::partition`] returns; the default implementation
    /// simply ignores the scratch, so implementors without a hot path
    /// need not change.
    fn partition_with(
        &self,
        h: &GridHierarchy<D>,
        nprocs: usize,
        scratch: &mut PartitionScratch<D>,
    ) -> Partition<D> {
        let _ = scratch;
        self.partition(h, nprocs)
    }

    /// The configuration this partitioner cuts `h` with, when it is one
    /// of the [`PartitionerChoice`] families: `partition(h, nprocs)`
    /// equals that choice's partition of `h`. The static families return
    /// their own configuration; selectors return the choice they make
    /// for `h` and advance their state exactly as
    /// [`partition`](Self::partition) does, so a caller invokes *either*
    /// `select` (and partitions the choice) *or* `partition` for a
    /// snapshot, never both. Drivers serving several runs from one
    /// snapshot stream partition each selected configuration once.
    ///
    /// The default, `None`, names no configuration: the partitioner is
    /// run through [`partition_with`](Self::partition_with).
    fn select(&self, h: &GridHierarchy<D>, nprocs: usize) -> Option<PartitionerChoice> {
        let _ = (h, nprocs);
        None
    }

    /// Relative cost of one invocation in abstract time units (used by the
    /// meta-partitioner's speed-vs-quality trade-off). The default charges
    /// one unit per patch plus one per thousand cells.
    fn cost_estimate(&self, h: &GridHierarchy<D>) -> f64 {
        let patches: usize = h.levels.iter().map(|l| l.patch_count()).sum();
        patches as f64 + h.total_points() as f64 / 1000.0
    }
}

/// Check that `part` is a valid distribution of `h`:
/// every level's fragments are pairwise disjoint, lie inside the level's
/// patches, cover them exactly, and carry owners `< nprocs`.
pub fn validate_partition<const D: usize>(
    h: &GridHierarchy<D>,
    part: &Partition<D>,
) -> Result<(), String> {
    if part.levels.len() != h.levels.len() {
        return Err(format!(
            "partition has {} levels, hierarchy has {}",
            part.levels.len(),
            h.levels.len()
        ));
    }
    for (l, (lp, level)) in part.levels.iter().zip(&h.levels).enumerate() {
        let frags: Vec<AABox<D>> = lp.fragments.iter().map(|f| f.rect).collect();
        for (i, f) in lp.fragments.iter().enumerate() {
            if (f.owner as usize) >= part.nprocs {
                return Err(format!(
                    "level {l}: fragment owner {} out of range",
                    f.owner
                ));
            }
            for g in &lp.fragments[i + 1..] {
                if f.rect.intersects(&g.rect) {
                    return Err(format!(
                        "level {l}: fragments {:?} and {:?} overlap",
                        f.rect, g.rect
                    ));
                }
            }
        }
        let patch_rects = level.rects();
        // Same cell count and mutual coverage => identical cell sets.
        let frag_cells = boxops::total_cells(&frags);
        let patch_cells = boxops::total_cells(&patch_rects);
        if frag_cells != patch_cells {
            return Err(format!(
                "level {l}: fragments cover {frag_cells} cells, patches {patch_cells}"
            ));
        }
        for p in &patch_rects {
            if !boxops::covers(p, &frags) {
                return Err(format!("level {l}: patch {p:?} not covered by fragments"));
            }
        }
        for f in &frags {
            if !boxops::covers(f, &patch_rects) {
                return Err(format!("level {l}: fragment {f:?} escapes the patches"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::Rect2;

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    fn two_level_hierarchy() -> GridHierarchy<2> {
        GridHierarchy::from_level_rects(
            Rect2::from_extents(8, 8),
            2,
            &[vec![], vec![r(4, 4, 11, 11)]],
        )
    }

    fn valid_partition() -> Partition<2> {
        Partition {
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
                    fragments: vec![
                        Fragment {
                            rect: r(4, 4, 7, 11),
                            owner: 0,
                        },
                        Fragment {
                            rect: r(8, 4, 11, 11),
                            owner: 1,
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn loads_weight_levels_by_time_refinement() {
        let p = valid_partition();
        let loads = p.loads(2);
        // Each proc: 32 base cells + 32 level-1 cells * 2.
        assert_eq!(loads, vec![32 + 64, 32 + 64]);
        assert_eq!(loads.iter().sum::<u64>(), two_level_hierarchy().workload());
        assert!((p.load_imbalance(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_detects_skew() {
        let mut p = valid_partition();
        for f in &mut p.levels[1].fragments {
            f.owner = 0;
        }
        // Proc 0: 32 + 128 = 160, proc 1: 32; average 96.
        let imb = p.load_imbalance(2);
        assert!((imb - (160.0 / 96.0)).abs() < 1e-12);
    }

    #[test]
    fn validate_accepts_exact_tiling() {
        assert_eq!(
            validate_partition(&two_level_hierarchy(), &valid_partition()),
            Ok(())
        );
    }

    #[test]
    fn validate_rejects_overlap() {
        let mut p = valid_partition();
        p.levels[0].fragments[1].rect = r(3, 0, 7, 7);
        assert!(validate_partition(&two_level_hierarchy(), &p)
            .unwrap_err()
            .contains("overlap"));
    }

    #[test]
    fn validate_rejects_uncovered_cells() {
        let mut p = valid_partition();
        p.levels[1].fragments.pop();
        assert!(validate_partition(&two_level_hierarchy(), &p)
            .unwrap_err()
            .contains("cells"));
    }

    #[test]
    fn validate_rejects_escaping_fragment() {
        let mut p = valid_partition();
        // Same cell count, but outside the patch.
        p.levels[1].fragments[1].rect = r(20, 20, 23, 27);
        assert!(validate_partition(&two_level_hierarchy(), &p).is_err());
    }

    #[test]
    fn validate_rejects_bad_owner() {
        let mut p = valid_partition();
        p.levels[0].fragments[0].owner = 7;
        assert!(validate_partition(&two_level_hierarchy(), &p)
            .unwrap_err()
            .contains("owner"));
    }

    #[test]
    fn validate_rejects_level_count_mismatch() {
        let mut p = valid_partition();
        p.levels.pop();
        assert!(validate_partition(&two_level_hierarchy(), &p).is_err());
    }

    #[test]
    fn fragment_count_sums_levels() {
        assert_eq!(valid_partition().fragment_count(), 4);
    }
}
