//! Trace container types, generic over the dimension.

use crate::io::TraceIoError;
use crate::source::SnapshotSource;
use samr_geom::AABox;
use samr_grid::GridHierarchy;
use serde::{Deserialize, Serialize, Value};

/// Metadata describing how a trace was produced — the paper's §5.1.1
/// experimental configuration.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceMeta<const D: usize> {
    /// Application kernel name (e.g. "BL2D").
    pub app: String,
    /// Free-text description of the scenario.
    pub description: String,
    /// Base-grid domain (level 0 index space).
    pub base_domain: AABox<D>,
    /// Space/time refinement factor between levels (paper: 2).
    pub ratio: i64,
    /// Maximum number of levels (paper: 5).
    pub max_levels: usize,
    /// Regrid interval in local steps per level (paper: 4).
    pub regrid_interval: u32,
    /// Minimum block dimension / granularity (paper: 2).
    pub min_block: i64,
    /// RNG seed used by the generator, for exact reproducibility.
    pub seed: u64,
}

impl<const D: usize> Serialize for TraceMeta<D> {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("app".to_string(), self.app.serialize()),
            ("description".to_string(), self.description.serialize()),
            ("dim".to_string(), D.serialize()),
            ("base_domain".to_string(), self.base_domain.serialize()),
            ("ratio".to_string(), self.ratio.serialize()),
            ("max_levels".to_string(), self.max_levels.serialize()),
            (
                "regrid_interval".to_string(),
                self.regrid_interval.serialize(),
            ),
            ("min_block".to_string(), self.min_block.serialize()),
            ("seed".to_string(), self.seed.serialize()),
        ])
    }
}

impl<const D: usize> Deserialize for TraceMeta<D> {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let dim: usize = serde::field(v, "dim")?;
        if dim != D {
            return Err(serde::Error::msg(format!(
                "trace dimension mismatch: stream carries {dim}-D, expected {D}-D"
            )));
        }
        Ok(Self {
            app: serde::field(v, "app")?,
            description: serde::field(v, "description")?,
            base_domain: serde::field(v, "base_domain")?,
            ratio: serde::field(v, "ratio")?,
            max_levels: serde::field(v, "max_levels")?,
            regrid_interval: serde::field(v, "regrid_interval")?,
            min_block: serde::field(v, "min_block")?,
            seed: serde::field(v, "seed")?,
        })
    }
}

/// The grid hierarchy at one coarse time step.
#[derive(Clone, PartialEq, Debug)]
pub struct Snapshot<const D: usize> {
    /// Coarse time-step index (0-based).
    pub step: u32,
    /// Physical simulation time of the snapshot.
    pub time: f64,
    /// The (unpartitioned) grid hierarchy.
    pub hierarchy: GridHierarchy<D>,
}

impl<const D: usize> Serialize for Snapshot<D> {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("step".to_string(), self.step.serialize()),
            ("time".to_string(), self.time.serialize()),
            ("hierarchy".to_string(), self.hierarchy.serialize()),
        ])
    }
}

impl<const D: usize> Deserialize for Snapshot<D> {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            step: serde::field(v, "step")?,
            time: serde::field(v, "time")?,
            hierarchy: serde::field(v, "hierarchy")?,
        })
    }
}

/// A sequence of hierarchy snapshots, one per coarse time step.
#[derive(Clone, PartialEq, Debug)]
pub struct HierarchyTrace<const D: usize> {
    /// Run configuration.
    pub meta: TraceMeta<D>,
    /// Snapshots ordered by `step`.
    pub snapshots: Vec<Snapshot<D>>,
}

impl<const D: usize> HierarchyTrace<D> {
    /// Create an empty trace with the given metadata.
    pub fn new(meta: TraceMeta<D>) -> Self {
        Self {
            meta,
            snapshots: Vec::new(),
        }
    }

    /// Drain a snapshot source into a whole in-memory trace, validating
    /// every snapshot on push ([`HierarchyTrace::try_push`]).
    pub fn from_source(mut src: impl SnapshotSource<D>) -> Result<Self, TraceIoError> {
        let mut trace = Self::new(src.meta().clone());
        while let Some(snap) = src.next_snapshot()? {
            trace.try_push(snap).map_err(TraceIoError::Format)?;
        }
        Ok(trace)
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// `true` if the trace has no snapshots.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Append a snapshot; panics if steps are not strictly increasing or
    /// the hierarchy violates its structural invariants (the trace is the
    /// contract between the generator and both consumers, so it is
    /// validated at the boundary). Deserializers, which handle untrusted
    /// bytes, use [`HierarchyTrace::try_push`] instead.
    pub fn push(&mut self, snap: Snapshot<D>) {
        self.try_push(snap)
            .unwrap_or_else(|e| panic!("invalid snapshot: {e}"));
    }

    /// Fallible variant of [`HierarchyTrace::push`]: returns an error
    /// instead of panicking when the snapshot is malformed.
    pub fn try_push(&mut self, snap: Snapshot<D>) -> Result<(), String> {
        if let Some(last) = self.snapshots.last() {
            if snap.step <= last.step {
                return Err(format!(
                    "trace steps must be strictly increasing: {} after {}",
                    snap.step, last.step
                ));
            }
        }
        snap.hierarchy
            .validate(self.meta.min_block)
            .map_err(|e| format!("invalid hierarchy at step {}: {e}", snap.step))?;
        self.snapshots.push(snap);
        Ok(())
    }

    /// Iterate over consecutive snapshot pairs `(H_{t-1}, H_t)` — the unit
    /// the paper's β_m and relative migration are defined on.
    pub fn pairs(&self) -> impl Iterator<Item = (&Snapshot<D>, &Snapshot<D>)> + '_ {
        self.snapshots.windows(2).map(|w| (&w[0], &w[1]))
    }

    /// The hierarchy at snapshot index `i`.
    pub fn hierarchy(&self, i: usize) -> &GridHierarchy<D> {
        &self.snapshots[i].hierarchy
    }

    /// The largest `|H_t|` over the *first* `upto + 1` snapshots — the
    /// paper's §4.3 normalizer ("the largest grid encountered so far").
    pub fn max_points_so_far(&self, upto: usize) -> u64 {
        self.snapshots[..=upto]
            .iter()
            .map(|s| s.hierarchy.total_points())
            .max()
            .unwrap_or(0)
    }

    /// Rough in-memory footprint of the trace in bytes (snapshot, level
    /// and patch payloads). Used by the engine's trace-cache byte budget
    /// to decide between keeping a trace resident and spilling it to
    /// disk; an estimate, not an allocator-exact measurement.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut total = size_of::<Self>() as u64;
        for s in &self.snapshots {
            total += size_of::<Snapshot<D>>() as u64;
            for l in &s.hierarchy.levels {
                total += size_of::<samr_grid::Level<D>>() as u64
                    + (l.patches.len() * size_of::<samr_grid::Patch<D>>()) as u64;
            }
        }
        total
    }
}

/// A trace of either supported dimension — the dimension-erased form the
/// campaign engine's shared store and the CLI traffic in. Pipeline code
/// matches on the variant once and then runs dimension-generic.
#[derive(Clone, PartialEq, Debug)]
pub enum AnyTrace {
    /// A 2-D trace.
    D2(HierarchyTrace<2>),
    /// A 3-D trace.
    D3(HierarchyTrace<3>),
}

impl AnyTrace {
    /// The spatial dimension of the trace.
    pub fn dim(&self) -> usize {
        match self {
            AnyTrace::D2(_) => 2,
            AnyTrace::D3(_) => 3,
        }
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        match self {
            AnyTrace::D2(t) => t.len(),
            AnyTrace::D3(t) => t.len(),
        }
    }

    /// `true` if the trace has no snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The application name recorded in the metadata.
    pub fn app(&self) -> &str {
        match self {
            AnyTrace::D2(t) => &t.meta.app,
            AnyTrace::D3(t) => &t.meta.app,
        }
    }

    /// The 2-D trace, if this is one.
    pub fn as_2d(&self) -> Option<&HierarchyTrace<2>> {
        match self {
            AnyTrace::D2(t) => Some(t),
            AnyTrace::D3(_) => None,
        }
    }

    /// The 3-D trace, if this is one.
    pub fn as_3d(&self) -> Option<&HierarchyTrace<3>> {
        match self {
            AnyTrace::D2(_) => None,
            AnyTrace::D3(t) => Some(t),
        }
    }

    /// Rough in-memory footprint in bytes (see
    /// [`HierarchyTrace::approx_bytes`]).
    pub fn approx_bytes(&self) -> u64 {
        match self {
            AnyTrace::D2(t) => t.approx_bytes(),
            AnyTrace::D3(t) => t.approx_bytes(),
        }
    }
}

impl From<HierarchyTrace<2>> for AnyTrace {
    fn from(t: HierarchyTrace<2>) -> Self {
        AnyTrace::D2(t)
    }
}

impl From<HierarchyTrace<3>> for AnyTrace {
    fn from(t: HierarchyTrace<3>) -> Self {
        AnyTrace::D3(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::{Box3, Rect2};

    pub(crate) fn meta() -> TraceMeta<2> {
        TraceMeta {
            app: "TEST".into(),
            description: "unit-test trace".into(),
            base_domain: Rect2::from_extents(16, 16),
            ratio: 2,
            max_levels: 5,
            regrid_interval: 4,
            min_block: 2,
            seed: 42,
        }
    }

    fn snap(step: u32, rects: Vec<Vec<Rect2>>) -> Snapshot<2> {
        Snapshot {
            step,
            time: step as f64 * 0.1,
            hierarchy: GridHierarchy::from_level_rects(Rect2::from_extents(16, 16), 2, &rects),
        }
    }

    #[test]
    fn push_and_iterate_pairs() {
        let mut t = HierarchyTrace::new(meta());
        t.push(snap(0, vec![vec![]]));
        t.push(snap(
            1,
            vec![vec![], vec![Rect2::from_coords(4, 4, 11, 11)]],
        ));
        t.push(snap(
            2,
            vec![vec![], vec![Rect2::from_coords(6, 6, 13, 13)]],
        ));
        assert_eq!(t.len(), 3);
        let pairs: Vec<_> = t.pairs().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0.step, 0);
        assert_eq!(pairs[1].1.step, 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn push_rejects_non_monotone_steps() {
        let mut t = HierarchyTrace::new(meta());
        t.push(snap(1, vec![vec![]]));
        t.push(snap(1, vec![vec![]]));
    }

    #[test]
    #[should_panic(expected = "invalid hierarchy")]
    fn push_rejects_invalid_hierarchy() {
        let mut t = HierarchyTrace::new(meta());
        // Overlapping level-1 patches.
        t.push(snap(
            0,
            vec![
                vec![],
                vec![
                    Rect2::from_coords(4, 4, 11, 11),
                    Rect2::from_coords(10, 10, 13, 13),
                ],
            ],
        ));
    }

    #[test]
    fn max_points_so_far_is_running_max() {
        let mut t = HierarchyTrace::new(meta());
        t.push(snap(
            0,
            vec![vec![], vec![Rect2::from_coords(0, 0, 15, 15)]],
        ));
        t.push(snap(1, vec![vec![]]));
        t.push(snap(2, vec![vec![], vec![Rect2::from_coords(0, 0, 7, 7)]]));
        let p0 = t.hierarchy(0).total_points();
        assert_eq!(t.max_points_so_far(0), p0);
        assert_eq!(t.max_points_so_far(1), p0);
        assert_eq!(t.max_points_so_far(2), p0);
    }

    #[test]
    fn three_d_trace_validates_on_push() {
        let meta3 = TraceMeta::<3> {
            app: "SP3D".into(),
            description: "3-D unit test".into(),
            base_domain: Box3::from_extents(8, 8, 8),
            ratio: 2,
            max_levels: 3,
            regrid_interval: 4,
            min_block: 2,
            seed: 1,
        };
        let mut t = HierarchyTrace::new(meta3);
        t.push(Snapshot {
            step: 0,
            time: 0.0,
            hierarchy: GridHierarchy::from_level_rects(
                Box3::from_extents(8, 8, 8),
                2,
                &[vec![], vec![Box3::from_coords(2, 2, 2, 9, 9, 9)]],
            ),
        });
        assert_eq!(t.len(), 1);
        let any: AnyTrace = t.into();
        assert_eq!(any.dim(), 3);
        assert!(any.as_3d().is_some());
        assert!(any.as_2d().is_none());
    }

    #[test]
    fn meta_serde_carries_and_checks_dim() {
        let m = meta();
        let v = m.serialize();
        assert_eq!(TraceMeta::<2>::deserialize(&v).unwrap(), m);
        assert!(TraceMeta::<3>::deserialize(&v)
            .unwrap_err()
            .to_string()
            .contains("dimension mismatch"));
    }
}
