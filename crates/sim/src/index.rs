//! Flat grid-bucket index over one level's fragments.
//!
//! The simulator's communication and migration metrics are all sums of
//! per-pair overlap terms. The historical accounting walked every
//! fragment pair — O(F²) per level — which dominated simulation time for
//! richly fragmented hierarchies. [`FragIndex`] replaces the inner
//! all-pairs scan with a bucketed candidate query: fragments are binned
//! into a uniform grid of roughly `F^(1/D)` buckets per axis over their
//! bounding box, and a query box only visits the buckets it touches.
//! Every metric keeps its naive all-pairs twin (`naive_*` in
//! [`crate::comm`] and [`crate::migration`]) as a property-tested oracle:
//! because the accumulated cell counts are order-independent `u64` sums,
//! a complete, duplicate-free candidate enumeration yields *identical*
//! integers, not merely close ones.

use samr_geom::AABox;
use samr_partition::{Fragment, ProcId};

/// A reusable flat-grid bucket index over owner-tagged boxes.
///
/// `build` may be called repeatedly; all internal buffers are retained
/// and reused, so a long-lived index performs no steady-state heap
/// allocation. Queries enumerate, exactly once each, every stored box
/// that intersects the query box.
pub struct FragIndex<const D: usize> {
    /// Stored boxes, copied at build time.
    rects: Vec<AABox<D>>,
    /// Owner of each stored box.
    owners: Vec<ProcId>,
    /// Bounding box of all stored boxes (`None` when empty).
    bounds: Option<AABox<D>>,
    /// Bucket-grid dimensions per axis.
    nb: [i64; D],
    /// Bucket cell size per axis.
    bsize: [i64; D],
    /// CSR bucket offsets into `items` (length `nbuckets + 1`).
    starts: Vec<u32>,
    /// CSR fill cursor, one per bucket (build-time scratch).
    cursor: Vec<u32>,
    /// Box ids, grouped by bucket.
    items: Vec<u32>,
    /// Per-box visit stamp for duplicate suppression across buckets.
    stamp: Vec<u32>,
    /// Current query generation for `stamp`.
    generation: u32,
}

impl<const D: usize> Default for FragIndex<D> {
    fn default() -> Self {
        Self {
            rects: Vec::new(),
            owners: Vec::new(),
            bounds: None,
            nb: [1; D],
            bsize: [1; D],
            starts: Vec::new(),
            cursor: Vec::new(),
            items: Vec::new(),
            stamp: Vec::new(),
            generation: 0,
        }
    }
}

/// Visit the linear id of every bucket in the `lo..=hi` per-axis range
/// (row-major odometer over the `nb` grid).
fn for_each_bucket<const D: usize>(nb: [i64; D], range: [(i64, i64); D], mut g: impl FnMut(usize)) {
    let mut idx: [i64; D] = std::array::from_fn(|i| range[i].0);
    loop {
        let mut b = 0usize;
        for i in 0..D {
            b = b * nb[i] as usize + idx[i] as usize;
        }
        g(b);
        let mut i = D;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if idx[i] < range[i].1 {
                idx[i] += 1;
                break;
            }
            idx[i] = range[i].0;
        }
    }
}

impl<const D: usize> FragIndex<D> {
    /// Rebuild the index over `frags`, reusing all internal buffers.
    pub fn build(&mut self, frags: &[Fragment<D>]) {
        self.rects.clear();
        self.owners.clear();
        for f in frags {
            self.rects.push(f.rect);
            self.owners.push(f.owner);
        }
        self.bounds = self
            .rects
            .iter()
            .copied()
            .reduce(|a, b| a.bounding_union(&b));
        let Some(bounds) = self.bounds else {
            self.starts.clear();
            self.items.clear();
            return;
        };
        // ~F^(1/D) buckets per axis keeps the expected bucket occupancy
        // constant; cap at 64 per axis to bound the grid footprint.
        let n = self.rects.len();
        let per_axis = ((n as f64).powf(1.0 / D as f64).ceil() as i64).clamp(1, 64);
        let ext = bounds.extent();
        for i in 0..D {
            self.nb[i] = per_axis.min(ext[i]).max(1);
            self.bsize[i] = (ext[i] + self.nb[i] - 1) / self.nb[i];
        }
        let nbuckets: usize = self.nb.iter().product::<i64>() as usize;
        // CSR counting pass.
        self.starts.clear();
        self.starts.resize(nbuckets + 1, 0);
        for r in &self.rects {
            let range = self.bucket_range_unclipped(r);
            for_each_bucket(self.nb, range, |b| self.starts[b + 1] += 1);
        }
        for b in 0..nbuckets {
            self.starts[b + 1] += self.starts[b];
        }
        // Fill pass.
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..nbuckets]);
        self.items.clear();
        self.items.resize(self.starts[nbuckets] as usize, 0);
        for (id, r) in self.rects.iter().enumerate() {
            let range = self.bucket_range_unclipped(r);
            let (items, cursor) = (&mut self.items, &mut self.cursor);
            for_each_bucket(self.nb, range, |b| {
                items[cursor[b] as usize] = id as u32;
                cursor[b] += 1;
            });
        }
        // Reset the dedup stamps for the new population.
        self.stamp.clear();
        self.stamp.resize(n, 0);
        self.generation = 0;
    }

    /// Per-axis bucket range covered by `r`, which must already intersect
    /// `bounds` (true for stored boxes and pre-clipped queries).
    fn bucket_range_unclipped(&self, r: &AABox<D>) -> [(i64, i64); D] {
        let lo = self.bounds.expect("bucket_range on empty index").lo();
        std::array::from_fn(|i| {
            let a = ((r.lo()[i] - lo[i]).max(0) / self.bsize[i]).min(self.nb[i] - 1);
            let b = ((r.hi()[i] - lo[i]).max(0) / self.bsize[i]).min(self.nb[i] - 1);
            (a, b)
        })
    }

    /// Invoke `f(id, rect, owner)` exactly once for every stored box that
    /// intersects `q`.
    pub fn query(&mut self, q: &AABox<D>, mut f: impl FnMut(u32, AABox<D>, ProcId)) {
        let Some(bounds) = self.bounds else {
            return;
        };
        let Some(clipped) = q.intersect(&bounds) else {
            return;
        };
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.generation = 1;
        }
        let range = self.bucket_range_unclipped(&clipped);
        let (items, starts, stamp, rects, owners, generation) = (
            &self.items,
            &self.starts,
            &mut self.stamp,
            &self.rects,
            &self.owners,
            self.generation,
        );
        for_each_bucket(self.nb, range, |b| {
            for &id in &items[starts[b] as usize..starts[b + 1] as usize] {
                let i = id as usize;
                if stamp[i] != generation {
                    stamp[i] = generation;
                    let r = rects[i];
                    if r.intersects(q) {
                        f(id, r, owners[i]);
                    }
                }
            }
        });
    }

    /// Number of stored boxes.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// `true` when no boxes are stored.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }
}

/// Reusable buffers for the indexed metric paths: one fragment index plus
/// the clip/volume arenas threaded through [`crate::comm::comm_accounting`]
/// and [`crate::migration::migration_accounting`]. Like
/// [`samr_partition::PartitionScratch`], the scratch only changes where
/// intermediates live — results never depend on its prior contents.
#[derive(Default)]
pub struct MetricScratch<const D: usize> {
    /// The per-level fragment index (rebuilt once per level walked).
    pub(crate) index: FragIndex<D>,
    /// Ghost-clip accumulation for involvement union counting.
    pub(crate) clips: Vec<AABox<D>>,
    /// Box-subtraction pieces: a clip's cells outside the earlier clips
    /// (involvement union), a fine fragment's new cells (migration).
    pub(crate) pieces: Vec<AABox<D>>,
    /// The subtraction's second piece buffer.
    pub(crate) next: Vec<AABox<D>>,
    /// Per-processor communication volumes (output of `comm_accounting`).
    pub(crate) vols: Vec<u64>,
    /// Per-processor migration volumes (output of `migration_accounting`).
    pub(crate) mig: Vec<u64>,
}

impl<const D: usize> MetricScratch<D> {
    /// Per-processor communication volumes written by the most recent
    /// [`crate::comm::comm_accounting`] call.
    pub fn per_proc_vols(&self) -> &[u64] {
        &self.vols
    }

    /// Per-processor outbound migration volumes written by the most
    /// recent [`crate::migration::migration_accounting`] call.
    pub fn per_proc_mig(&self) -> &[u64] {
        &self.mig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::{Box3, Rect2};

    fn frag(x0: i64, y0: i64, x1: i64, y1: i64, owner: u32) -> Fragment<2> {
        Fragment {
            rect: Rect2::from_coords(x0, y0, x1, y1),
            owner,
        }
    }

    fn query_ids(idx: &mut FragIndex<2>, q: &Rect2) -> Vec<u32> {
        let mut ids = Vec::new();
        idx.query(q, |id, _, _| ids.push(id));
        ids.sort_unstable();
        ids
    }

    #[test]
    fn empty_index_yields_nothing() {
        let mut idx = FragIndex::<2>::default();
        idx.build(&[]);
        assert!(idx.is_empty());
        assert_eq!(query_ids(&mut idx, &Rect2::from_extents(8, 8)), vec![]);
    }

    #[test]
    fn finds_exactly_the_intersecting_boxes() {
        let frags = vec![
            frag(0, 0, 3, 3, 0),
            frag(4, 0, 7, 3, 1),
            frag(0, 4, 3, 7, 2),
            frag(10, 10, 12, 12, 0),
        ];
        let mut idx = FragIndex::default();
        idx.build(&frags);
        assert_eq!(idx.len(), 4);
        assert_eq!(
            query_ids(&mut idx, &Rect2::from_coords(2, 2, 5, 5)),
            vec![0, 1, 2]
        );
        assert_eq!(
            query_ids(&mut idx, &Rect2::from_coords(11, 11, 11, 11)),
            vec![3]
        );
        // Disjoint from everything.
        assert_eq!(
            query_ids(&mut idx, &Rect2::from_coords(20, 20, 30, 30)),
            vec![]
        );
    }

    #[test]
    fn each_box_reported_once_even_when_spanning_buckets() {
        // Many small boxes force a multi-bucket grid; one large box spans
        // all buckets and must still be reported exactly once.
        let mut frags: Vec<Fragment<2>> = Vec::new();
        for x in 0..8 {
            for y in 0..8 {
                frags.push(frag(x * 4, y * 4, x * 4 + 3, y * 4 + 3, (x + y) as u32));
            }
        }
        frags.push(frag(0, 0, 31, 31, 99));
        let mut idx = FragIndex::default();
        idx.build(&frags);
        let mut count_last = 0;
        idx.query(&Rect2::from_coords(0, 0, 31, 31), |id, _, owner| {
            if id == 64 {
                count_last += 1;
                assert_eq!(owner, 99);
            }
        });
        assert_eq!(count_last, 1);
        assert_eq!(
            query_ids(&mut idx, &Rect2::from_coords(0, 0, 31, 31)).len(),
            65
        );
    }

    #[test]
    fn rebuild_reuses_cleanly() {
        let mut idx = FragIndex::default();
        idx.build(&[frag(0, 0, 7, 7, 0), frag(8, 0, 15, 7, 1)]);
        assert_eq!(
            query_ids(&mut idx, &Rect2::from_coords(6, 0, 9, 7)),
            vec![0, 1]
        );
        // Rebuild with a different population and geometry.
        idx.build(&[frag(100, 100, 103, 103, 5)]);
        assert_eq!(
            query_ids(&mut idx, &Rect2::from_coords(0, 0, 50, 50)),
            vec![]
        );
        assert_eq!(
            query_ids(&mut idx, &Rect2::from_coords(99, 99, 101, 101)),
            vec![0]
        );
    }

    #[test]
    fn three_dimensional_queries() {
        let frags = vec![
            Fragment {
                rect: Box3::from_coords(0, 0, 0, 3, 3, 3),
                owner: 0,
            },
            Fragment {
                rect: Box3::from_coords(4, 4, 4, 7, 7, 7),
                owner: 1,
            },
        ];
        let mut idx = FragIndex::<3>::default();
        idx.build(&frags);
        let mut ids = Vec::new();
        idx.query(&Box3::from_coords(3, 3, 3, 4, 4, 4), |id, _, _| {
            ids.push(id)
        });
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
    }
}
