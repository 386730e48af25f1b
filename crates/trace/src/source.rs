//! Pull-based snapshot streams — the bounded-memory trace interface.
//!
//! The paper's model is evaluated per coarse step on `(H_{t-1}, H_t)`
//! pairs; nothing downstream of the trace generator ever needs the whole
//! trace in memory at once. [`SnapshotSource`] is the pull contract that
//! makes this explicit: a source hands out one [`Snapshot`] at a time
//! (plus the run's [`TraceMeta`] up front), so consumers — the model
//! fold, the windowed execution simulator, the codecs — can bound their
//! peak residency at a few snapshots regardless of trace length.
//!
//! Adapters provided here:
//!
//! - [`MemorySource`]: borrows an in-memory [`HierarchyTrace`];
//! - [`SharedTraceSource`]: streams a cache-shared `Arc<AnyTrace>`
//!   without cloning the whole trace;
//! - [`AnySnapshotSource`]: the dimension-erased form the campaign
//!   engine and the CLI traffic in, mirroring [`AnyTrace`].
//!
//! The streaming codec adapters (JSON-lines and `SAMRTRC2` binary,
//! reader *and* writer) live in [`crate::io`].

use crate::io::TraceIoError;
use crate::trace::{AnyTrace, HierarchyTrace, Snapshot, TraceMeta};
use std::sync::Arc;

/// A pull-based stream of hierarchy snapshots with up-front metadata.
///
/// Contract: `next_snapshot` yields snapshots in strictly increasing
/// `step` order and returns `Ok(None)` exactly once, at end of stream.
/// Sources over untrusted bytes (the codec readers) validate each
/// snapshot before yielding it; generator and in-memory sources yield
/// already-validated hierarchies.
pub trait SnapshotSource<const D: usize> {
    /// The run configuration shared by every snapshot of the stream.
    fn meta(&self) -> &TraceMeta<D>;

    /// Pull the next snapshot, or `Ok(None)` at end of stream.
    fn next_snapshot(&mut self) -> Result<Option<Snapshot<D>>, TraceIoError>;

    /// Total number of snapshots, when the source knows it up front.
    /// Consumers reserve by it, so only a source that holds or generates
    /// that many snapshots gives one; the codec readers, whose counts
    /// come from untrusted bytes, do not.
    fn len_hint(&self) -> Option<usize> {
        None
    }
}

impl<const D: usize, S: SnapshotSource<D> + ?Sized> SnapshotSource<D> for Box<S> {
    fn meta(&self) -> &TraceMeta<D> {
        (**self).meta()
    }

    fn next_snapshot(&mut self) -> Result<Option<Snapshot<D>>, TraceIoError> {
        (**self).next_snapshot()
    }

    fn len_hint(&self) -> Option<usize> {
        (**self).len_hint()
    }
}

impl<const D: usize, S: SnapshotSource<D> + ?Sized> SnapshotSource<D> for &mut S {
    fn meta(&self) -> &TraceMeta<D> {
        (**self).meta()
    }

    fn next_snapshot(&mut self) -> Result<Option<Snapshot<D>>, TraceIoError> {
        (**self).next_snapshot()
    }

    fn len_hint(&self) -> Option<usize> {
        (**self).len_hint()
    }
}

/// Stream a borrowed in-memory trace. Snapshots are cloned one at a time
/// on pull, so the consumer's residency stays bounded even though the
/// backing trace is whole.
pub struct MemorySource<'a, const D: usize> {
    trace: &'a HierarchyTrace<D>,
    next: usize,
}

impl<'a, const D: usize> MemorySource<'a, D> {
    /// Stream over `trace` from its first snapshot.
    pub fn new(trace: &'a HierarchyTrace<D>) -> Self {
        Self { trace, next: 0 }
    }
}

impl<const D: usize> SnapshotSource<D> for MemorySource<'_, D> {
    fn meta(&self) -> &TraceMeta<D> {
        &self.trace.meta
    }

    fn next_snapshot(&mut self) -> Result<Option<Snapshot<D>>, TraceIoError> {
        let snap = self.trace.snapshots.get(self.next).cloned();
        if snap.is_some() {
            self.next += 1;
        }
        Ok(snap)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.trace.len())
    }
}

/// Stream a cache-shared dimension-erased trace: holds the `Arc` (no
/// whole-trace clone) and projects the `D`-typed view per pull.
pub struct SharedTraceSource<const D: usize> {
    trace: Arc<AnyTrace>,
    project: fn(&AnyTrace) -> &HierarchyTrace<D>,
    next: usize,
}

impl<const D: usize> SnapshotSource<D> for SharedTraceSource<D> {
    fn meta(&self) -> &TraceMeta<D> {
        &(self.project)(&self.trace).meta
    }

    fn next_snapshot(&mut self) -> Result<Option<Snapshot<D>>, TraceIoError> {
        let snap = (self.project)(&self.trace)
            .snapshots
            .get(self.next)
            .cloned();
        if snap.is_some() {
            self.next += 1;
        }
        Ok(snap)
    }

    fn len_hint(&self) -> Option<usize> {
        Some((self.project)(&self.trace).len())
    }
}

/// A snapshot source of either supported dimension — the dimension-erased
/// form the campaign engine's store and the CLI traffic in (mirrors
/// [`AnyTrace`]). Pipeline code matches on the variant once and then runs
/// dimension-generic.
pub enum AnySnapshotSource {
    /// A 2-D snapshot stream.
    D2(Box<dyn SnapshotSource<2>>),
    /// A 3-D snapshot stream.
    D3(Box<dyn SnapshotSource<3>>),
}

impl AnySnapshotSource {
    /// The spatial dimension of the stream.
    pub fn dim(&self) -> usize {
        match self {
            Self::D2(_) => 2,
            Self::D3(_) => 3,
        }
    }

    /// The application name recorded in the stream's metadata.
    pub fn app(&self) -> String {
        match self {
            Self::D2(s) => s.meta().app.clone(),
            Self::D3(s) => s.meta().app.clone(),
        }
    }

    /// Total number of snapshots, when the source knows it up front.
    pub fn len_hint(&self) -> Option<usize> {
        match self {
            Self::D2(s) => s.len_hint(),
            Self::D3(s) => s.len_hint(),
        }
    }

    /// Drain the stream into a whole in-memory trace (the batch bridge;
    /// validates every snapshot on push).
    pub fn collect(self) -> Result<AnyTrace, TraceIoError> {
        match self {
            Self::D2(s) => HierarchyTrace::from_source(s).map(AnyTrace::D2),
            Self::D3(s) => HierarchyTrace::from_source(s).map(AnyTrace::D3),
        }
    }
}

/// Stream a cache-shared [`AnyTrace`] as a dimension-erased source.
pub fn shared_source(trace: Arc<AnyTrace>) -> AnySnapshotSource {
    match &*trace {
        AnyTrace::D2(_) => AnySnapshotSource::D2(Box::new(SharedTraceSource::<2> {
            trace,
            project: |t| t.as_2d().expect("variant checked at construction"),
            next: 0,
        })),
        AnyTrace::D3(_) => AnySnapshotSource::D3(Box::new(SharedTraceSource::<3> {
            trace,
            project: |t| t.as_3d().expect("variant checked at construction"),
            next: 0,
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::Rect2;
    use samr_grid::GridHierarchy;

    fn sample() -> HierarchyTrace<2> {
        let meta = TraceMeta {
            app: "SRC".into(),
            description: "source unit test".into(),
            base_domain: Rect2::from_extents(16, 16),
            ratio: 2,
            max_levels: 3,
            regrid_interval: 4,
            min_block: 2,
            seed: 9,
        };
        let mut t = HierarchyTrace::new(meta);
        for step in 0..4u32 {
            let off = step as i64;
            t.push(Snapshot {
                step,
                time: step as f64 * 0.5,
                hierarchy: GridHierarchy::from_level_rects(
                    Rect2::from_extents(16, 16),
                    2,
                    &[vec![], vec![Rect2::from_coords(2 + off, 2, 9 + off, 9)]],
                ),
            });
        }
        t
    }

    #[test]
    fn memory_source_replays_the_trace_in_order() {
        let t = sample();
        let mut src = MemorySource::new(&t);
        assert_eq!(src.len_hint(), Some(4));
        assert_eq!(src.meta(), &t.meta);
        let mut got = Vec::new();
        while let Some(s) = src.next_snapshot().unwrap() {
            got.push(s);
        }
        assert_eq!(got, t.snapshots);
        // Exhausted sources stay exhausted.
        assert!(src.next_snapshot().unwrap().is_none());
    }

    #[test]
    fn shared_source_round_trips_through_collect() {
        let any: AnyTrace = sample().into();
        let arc = Arc::new(any.clone());
        let src = shared_source(Arc::clone(&arc));
        assert_eq!(src.dim(), 2);
        assert_eq!(src.app(), "SRC");
        assert_eq!(src.len_hint(), Some(4));
        assert_eq!(src.collect().unwrap(), any);
    }

    #[test]
    fn boxed_and_borrowed_sources_delegate() {
        let t = sample();
        let mut boxed: Box<dyn SnapshotSource<2> + '_> = Box::new(MemorySource::new(&t));
        assert_eq!(boxed.len_hint(), Some(4));
        let mut n = 0;
        let by_ref: &mut dyn SnapshotSource<2> = &mut boxed;
        while by_ref.next_snapshot().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 4);
        assert_eq!(SnapshotSource::len_hint(&by_ref), Some(4));
    }
}
