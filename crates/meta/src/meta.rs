//! The selecting partitioner: a stateful [`Partitioner`] that classifies
//! the hierarchy at every invocation against the previous one and
//! delegates to the configured technique the classification selects —
//! Figure 2 of the paper as running code. This enables fully dynamic
//! `P(A(t), C(t))` triples: the partitioning technique is a function of
//! the current application state. Both selectors are this mechanism with
//! different [`Classifier`]s: [`MetaPartitioner`] folds samr-core's
//! model, [`OctantMetaPartitioner`](crate::OctantMetaPartitioner) runs
//! the §3 octant baseline.

use samr_core::{ClassificationPoint, ModelAccumulator, ModelConfig};
use samr_grid::GridHierarchy;
use samr_partition::{Partition, Partitioner, PartitionerChoice};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::selector::{Selector, SelectorConfig};

/// How a [`SelectingPartitioner`] classifies a hierarchy, and which
/// configured family each classification selects.
pub trait Classifier {
    /// What one classification records.
    type Decision: Copy;
    /// The partitioner's name in results.
    const NAME: &'static str;
    /// Patches classified per unit of [`Partitioner::cost_estimate`].
    const PATCHES_PER_COST_UNIT: f64;

    /// Classify `h` against the previously classified hierarchy `prev`
    /// (`None` at the first call) for `nprocs` processors, and return the
    /// decision with the choice it selects.
    fn classify<const D: usize>(
        &mut self,
        prev: Option<&GridHierarchy<D>>,
        h: &GridHierarchy<D>,
        nprocs: usize,
    ) -> (Self::Decision, PartitionerChoice);
}

/// The classifier, the last classified hierarchy and the decision
/// record.
struct Selection<C: Classifier, const D: usize> {
    classifier: C,
    prev: Option<GridHierarchy<D>>,
    decisions: Vec<(C::Decision, PartitionerChoice)>,
}

/// A selector as a [`Partitioner`], so it can be dropped in anywhere a
/// static partitioner is used: each invocation classifies the hierarchy
/// against the previous one and runs the selected configured technique.
///
/// Invocations are assumed to arrive in trace order (the partitioner is
/// stateful by design — that is the whole point); interior mutability
/// keeps the [`Partitioner`] interface intact.
pub struct SelectingPartitioner<C: Classifier, const D: usize> {
    state: Mutex<Selection<C, D>>,
}

impl<C: Classifier, const D: usize> SelectingPartitioner<C, D> {
    /// A selector that has classified nothing yet.
    fn with_classifier(classifier: C) -> Self {
        Self {
            state: Mutex::new(Selection {
                classifier,
                prev: None,
                decisions: Vec::new(),
            }),
        }
    }

    /// The selection state. A panic in another holder does not poison
    /// it: each field stays a valid value after a partial update, and the
    /// worst such a panic leaves is one half-recorded classification.
    fn state(&self) -> MutexGuard<'_, Selection<C, D>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The `(decision, choice)` pairs made so far, one per invocation
    /// (for the experiment reports).
    pub fn decisions(&self) -> Vec<(C::Decision, PartitionerChoice)> {
        self.state().decisions.clone()
    }

    /// Classify `h` against the last classified hierarchy, record the
    /// decision, and return the choice.
    fn classify(&self, h: &GridHierarchy<D>, nprocs: usize) -> PartitionerChoice {
        let mut guard = self.state();
        let Selection {
            classifier,
            prev,
            decisions,
        } = &mut *guard;
        let (decision, choice) = classifier.classify(prev.as_ref(), h, nprocs);
        decisions.push((decision, choice));
        *prev = Some(h.clone());
        choice
    }
}

impl<C: Classifier + Default, const D: usize> Default for SelectingPartitioner<C, D> {
    fn default() -> Self {
        Self::with_classifier(C::default())
    }
}

impl<C: Classifier, const D: usize> Partitioner<D> for SelectingPartitioner<C, D> {
    fn name(&self) -> String {
        C::NAME.to_string()
    }

    fn partition(&self, h: &GridHierarchy<D>, nprocs: usize) -> Partition<D> {
        self.classify(h, nprocs).partition(h, nprocs)
    }

    fn select(&self, h: &GridHierarchy<D>, nprocs: usize) -> Option<PartitionerChoice> {
        Some(self.classify(h, nprocs))
    }

    fn cost_estimate(&self, h: &GridHierarchy<D>) -> f64 {
        // Classification cost (one pass over the patches) plus the cost
        // of whatever was selected last.
        let patches: usize = h.levels.iter().map(|l| l.patch_count()).sum();
        let classify = patches as f64 / C::PATCHES_PER_COST_UNIT;
        let delegated = self
            .state()
            .decisions
            .last()
            .map_or(0.0, |(_, c)| c.cost_estimate(h));
        classify + delegated
    }
}

/// The continuous classifier: samr-core's model fold, at each call's
/// processor count and with the classification count as step and time,
/// mapped through the [`Selector`].
pub struct ModelClassifier {
    model: ModelAccumulator,
    selector: Selector,
    classified: u32,
}

impl ModelClassifier {
    /// The paper's model configuration feeding a selector with the given
    /// thresholds.
    fn new(config: SelectorConfig) -> Self {
        Self {
            model: ModelAccumulator::new(ModelConfig::default()),
            selector: Selector::new(config),
            classified: 0,
        }
    }
}

impl Default for ModelClassifier {
    fn default() -> Self {
        Self::new(SelectorConfig::default())
    }
}

impl Classifier for ModelClassifier {
    type Decision = ClassificationPoint;
    const NAME: &'static str = "meta-partitioner";
    // Box intersections over the patches.
    const PATCHES_PER_COST_UNIT: f64 = 20.0;

    fn classify<const D: usize>(
        &mut self,
        prev: Option<&GridHierarchy<D>>,
        h: &GridHierarchy<D>,
        nprocs: usize,
    ) -> (ClassificationPoint, PartitionerChoice) {
        let step = self.classified;
        self.classified += 1;
        let state = self.model.observe(prev, h, step, f64::from(step), nprocs);
        (state.point, self.selector.select(&state))
    }
}

/// The adaptive meta-partitioner: the samr-core model against the
/// previously seen hierarchy, mapped through the [`Selector`] to a
/// configured technique.
pub type MetaPartitioner<const D: usize> = SelectingPartitioner<ModelClassifier, D>;

impl<const D: usize> MetaPartitioner<D> {
    /// Meta-partitioner with default selector thresholds (the balanced
    /// default machine).
    pub fn new() -> Self {
        Self::default()
    }

    /// Meta-partitioner configured for a concrete machine — the system
    /// (C) component of the PAC triple: the selector weighs communication
    /// against computation using the machine's actual cost ratio.
    pub fn for_machine(machine: &samr_sim::MachineModel) -> Self {
        Self::with_config(SelectorConfig {
            comm_cost_ratio: machine.cell_transfer / machine.cell_update.max(1e-12),
            ..SelectorConfig::default()
        })
    }

    /// Meta-partitioner with explicit selector thresholds.
    pub fn with_config(config: SelectorConfig) -> Self {
        Self::with_classifier(ModelClassifier::new(config))
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
    fn produces_valid_partitions_and_records_decisions() {
        let meta = MetaPartitioner::<2>::new();
        let seq = [
            h(&[vec![], vec![r(0, 0, 15, 15)]]),
            h(&[vec![], vec![r(8, 8, 23, 23)]]),
            h(&[vec![], vec![r(40, 40, 55, 55)]]),
        ];
        for hh in &seq {
            let part = meta.partition(hh, 4);
            assert_eq!(validate_partition(hh, &part), Ok(()));
        }
        let d = meta.decisions();
        assert_eq!(d.len(), 3);
        // First step has no previous hierarchy: d3 = 0.
        assert_eq!(d[0].0.d3, 0.0);
        // The relocated refinement at step 3 must register migration
        // pressure.
        assert!(d[2].0.d3 > 0.1);
    }

    #[test]
    fn migration_pressure_changes_selection() {
        // Deep refinement dominating |H|, jumping across the domain every
        // step: β_m is large and the selector must end up on the
        // migration-aware domain-based choice (patience = 2 requires two
        // consecutive votes).
        let meta = MetaPartitioner::<2>::new();
        let a = h(&[vec![], vec![r(0, 0, 31, 31)], vec![r(0, 0, 31, 31)]]);
        let b = h(&[vec![], vec![r(32, 32, 63, 63)], vec![r(64, 64, 95, 95)]]);
        meta.partition(&a, 4);
        meta.partition(&b, 4);
        meta.partition(&a, 4);
        meta.partition(&b, 4);
        let d = meta.decisions();
        // β_m at the jumping steps is 1 - 1024/3072 ≈ 0.67 >> threshold.
        assert!(d[1].0.d3 > 0.5, "d3 = {}", d[1].0.d3);
        let families: Vec<&str> = d.iter().map(|(_, c)| c.family()).collect();
        assert_eq!(
            *families.last().unwrap(),
            "domain-based",
            "decisions: {families:?}"
        );
    }

    #[test]
    fn select_then_partitioning_the_choice_is_partition() {
        // `select` advances the selector exactly as `partition` does, so
        // a driver that selects and partitions the choice itself sees
        // the decisions and partitions of one that calls `partition`.
        let by_partition = MetaPartitioner::<2>::new();
        let by_select = MetaPartitioner::<2>::new();
        let a = h(&[vec![], vec![r(0, 0, 31, 31)], vec![r(0, 0, 31, 31)]]);
        let b = h(&[vec![], vec![r(32, 32, 63, 63)], vec![r(64, 64, 95, 95)]]);
        for hh in [&a, &b, &a, &b, &b] {
            let choice = by_select.select(hh, 4).expect("meta always selects");
            assert_eq!(choice.partition(hh, 4), by_partition.partition(hh, 4));
            assert_eq!(by_select.cost_estimate(hh), by_partition.cost_estimate(hh));
        }
        assert_eq!(by_select.decisions(), by_partition.decisions());
    }

    #[test]
    fn cost_estimate_includes_delegate() {
        let meta = MetaPartitioner::<2>::new();
        let hh = h(&[vec![], vec![r(0, 0, 15, 15)]]);
        let before = meta.cost_estimate(&hh);
        meta.partition(&hh, 4);
        let after = meta.cost_estimate(&hh);
        assert!(after > before);
    }
}
