//! The legacy baseline: octant-approach-driven partitioner selection.
//!
//! §3 of the paper describes the octant approach — a *discrete, relative*
//! classification cube whose octants map onto partitioning techniques —
//! and argues it is inadequate (the time-domination axis is circular, the
//! activity-dynamics axis conflates regrid frequency with cost, and
//! discrete transitions preclude fine-grained configuration). ArMADA
//! implemented it anyway and still reduced execution times, which is the
//! proof of concept the meta-partitioner stands on.
//!
//! This module makes the baseline runnable so the continuous selector can
//! be compared against it: an ArMADA-style classifier (box operations
//! only, relative to the previous state) feeding the published
//! octant-to-family mapping.

use parking_lot::Mutex;
use samr_core::octant::{ArmadaClassifier, Octant};
use samr_grid::GridHierarchy;
use samr_partition::{Partition, Partitioner, PartitionerChoice};

/// Octant-approach baseline partitioner: classifies each hierarchy into a
/// discrete octant (relative to the previous state, ArMADA-style) and
/// delegates to the mapped family with its default configuration — no
/// fine-grained configuration, exactly the limitation the paper calls
/// out.
pub struct OctantMetaPartitioner<const D: usize> {
    state: Mutex<OctantState<D>>,
}

struct OctantState<const D: usize> {
    classifier: ArmadaClassifier,
    prev: Option<GridHierarchy<D>>,
    history: Vec<Octant>,
}

impl<const D: usize> OctantMetaPartitioner<D> {
    /// Fresh baseline.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(OctantState {
                classifier: ArmadaClassifier::new(),
                prev: None,
                history: Vec::new(),
            }),
        }
    }

    /// Octants chosen so far.
    pub fn history(&self) -> Vec<Octant> {
        self.state.lock().history.clone()
    }

    /// Classify `h` against the previously seen hierarchy, record the
    /// octant, and return the family it maps onto.
    fn classify(&self, h: &GridHierarchy<D>) -> PartitionerChoice {
        let mut st = self.state.lock();
        let prev = st.prev.take();
        let octant = st.classifier.classify(prev.as_ref(), h);
        st.history.push(octant);
        st.prev = Some(h.clone());
        Self::family_for(&octant)
    }

    /// The default-configured family the octant maps onto.
    fn family_for(octant: &Octant) -> PartitionerChoice {
        match octant.suggested_family() {
            "domain-based" => PartitionerChoice::domain_sfc(),
            "patch-based" => PartitionerChoice::patch(),
            _ => PartitionerChoice::hybrid(),
        }
    }
}

impl<const D: usize> Default for OctantMetaPartitioner<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> Partitioner<D> for OctantMetaPartitioner<D> {
    fn name(&self) -> String {
        "octant-armada".to_string()
    }

    fn partition(&self, h: &GridHierarchy<D>, nprocs: usize) -> Partition<D> {
        self.classify(h).partition(h, nprocs)
    }

    fn select(&self, h: &GridHierarchy<D>, _nprocs: usize) -> Option<PartitionerChoice> {
        Some(self.classify(h))
    }

    fn cost_estimate(&self, h: &GridHierarchy<D>) -> f64 {
        // Simple box operations (ArMADA) plus the delegated family.
        let patches: usize = h.levels.iter().map(|l| l.patch_count()).sum();
        let delegated = {
            let st = self.state.lock();
            st.history
                .last()
                .map(|o| Self::family_for(o).cost_estimate(h))
                .unwrap_or(0.0)
        };
        patches as f64 / 40.0 + delegated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::Rect2;
    use samr_partition::validate_partition;

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    fn h(levels: &[Vec<Rect2>]) -> GridHierarchy<2> {
        GridHierarchy::from_level_rects(Rect2::from_extents(32, 32), 2, levels)
    }

    #[test]
    fn produces_valid_partitions_and_tracks_octants() {
        let baseline = OctantMetaPartitioner::<2>::new();
        let seq = [
            h(&[vec![], vec![r(4, 4, 19, 19)]]),
            h(&[vec![], vec![r(8, 8, 23, 23)]]),
            h(&[vec![], vec![r(40, 40, 55, 55)]]),
        ];
        for hh in &seq {
            let part = baseline.partition(hh, 4);
            assert_eq!(validate_partition(hh, &part), Ok(()));
        }
        let hist = baseline.history();
        assert_eq!(hist.len(), 3);
        // The jump at step 3 must read as high dynamics.
        assert_eq!(hist[2].dynamics, samr_core::octant::Axis3::HighDynamics);
    }

    #[test]
    fn select_then_partitioning_the_choice_is_partition() {
        let by_partition = OctantMetaPartitioner::<2>::new();
        let by_select = OctantMetaPartitioner::<2>::new();
        let seq = [
            h(&[vec![], vec![r(4, 4, 19, 19)]]),
            h(&[vec![], vec![r(40, 40, 55, 55)]]),
            h(&[vec![], vec![r(40, 40, 55, 55)]]),
        ];
        for hh in &seq {
            let choice = by_select
                .select(hh, 4)
                .expect("the baseline always selects");
            assert_eq!(choice.partition(hh, 4), by_partition.partition(hh, 4));
            assert_eq!(by_select.cost_estimate(hh), by_partition.cost_estimate(hh));
        }
        assert_eq!(by_select.history(), by_partition.history());
    }

    #[test]
    fn discrete_selection_has_no_configuration_gradations() {
        // The baseline can only emit default-configured families — the
        // §3 limitation. Two different-but-same-octant states must yield
        // byte-identical partitioner choices.
        let baseline = OctantMetaPartitioner::<2>::new();
        let a = h(&[vec![], vec![r(4, 4, 19, 19)]]);
        let b = h(&[vec![], vec![r(4, 4, 21, 21)]]);
        let pa = baseline.partition(&a, 4);
        let _ = pa;
        let hist1 = baseline.history()[0];
        baseline.partition(&b, 4);
        let hist2 = baseline.history()[1];
        if hist1 == hist2 {
            // Same octant => same (default) configuration by construction.
            assert_eq!(
                OctantMetaPartitioner::<2>::family_for(&hist1),
                OctantMetaPartitioner::<2>::family_for(&hist2)
            );
        }
    }
}
