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
//! be compared against it: the ArMADA-style classifier (box operations
//! only, relative to the previous state) feeding the published
//! octant-to-family mapping, as the [`Classifier`] of a
//! [`SelectingPartitioner`].

use samr_core::octant::{ArmadaClassifier, Octant};
use samr_grid::GridHierarchy;
use samr_partition::PartitionerChoice;

use crate::meta::{Classifier, SelectingPartitioner};

/// ArMADA's octant, mapped onto its family with the default
/// configuration.
impl Classifier for ArmadaClassifier {
    type Decision = Octant;
    const NAME: &'static str = "octant-armada";
    // Simple box operations (ArMADA).
    const PATCHES_PER_COST_UNIT: f64 = 40.0;

    fn classify<const D: usize>(
        &mut self,
        prev: Option<&GridHierarchy<D>>,
        h: &GridHierarchy<D>,
        _nprocs: usize,
    ) -> (Octant, PartitionerChoice) {
        let octant = ArmadaClassifier::classify(self, prev, h);
        let choice = match octant.suggested_family() {
            "domain-based" => PartitionerChoice::domain_sfc(),
            "patch-based" => PartitionerChoice::patch(),
            _ => PartitionerChoice::hybrid(),
        };
        (octant, choice)
    }
}

/// Octant-approach baseline partitioner: classifies each hierarchy into a
/// discrete octant (relative to the previous state, ArMADA-style) and
/// delegates to the mapped family with its default configuration — no
/// fine-grained configuration, exactly the limitation the paper calls
/// out.
pub type OctantMetaPartitioner<const D: usize> = SelectingPartitioner<ArmadaClassifier, D>;

impl<const D: usize> OctantMetaPartitioner<D> {
    /// Fresh baseline.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::Rect2;
    use samr_partition::{validate_partition, Partitioner};

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
        let decisions = baseline.decisions();
        assert_eq!(decisions.len(), 3);
        // The jump at step 3 must read as high dynamics.
        assert_eq!(
            decisions[2].0.dynamics,
            samr_core::octant::Axis3::HighDynamics
        );
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
        assert_eq!(by_select.decisions(), by_partition.decisions());
    }

    #[test]
    fn discrete_selection_has_no_configuration_gradations() {
        // The baseline can only emit default-configured families — the
        // §3 limitation. Two different-but-same-octant states must yield
        // byte-identical partitioner choices.
        let baseline = OctantMetaPartitioner::<2>::new();
        baseline.partition(&h(&[vec![], vec![r(4, 4, 19, 19)]]), 4);
        baseline.partition(&h(&[vec![], vec![r(4, 4, 21, 21)]]), 4);
        let d = baseline.decisions();
        if d[0].0 == d[1].0 {
            // Same octant => same (default) configuration by construction.
            assert_eq!(d[0].1, d[1].1);
        }
    }
}
