//! Partition policies — the runtime owner of the "which partitioner"
//! decision.
//!
//! Historically the streaming driver took one `&dyn Partitioner` for the
//! whole run: the choice was a constructor-time constant. A
//! [`PartitionPolicy`] turns it into a streamed, observable object: the
//! driver asks the policy for the *current* partitioner before every
//! repartitioning and feeds every computed [`StepMetrics`] back through
//! [`PartitionPolicy::observe`], giving the policy the chance to switch
//! partitioners mid-stream. A switch is not free — the next snapshot is
//! forcibly repartitioned (no `reuse_unchanged` skip) under the new
//! partitioner, and the resulting migration against the carried previous
//! distribution is exactly the switch's data-movement bill, recorded as a
//! [`SwitchEvent`] in the run's
//! [`StreamStats`](crate::stream::StreamStats).
//!
//! This module holds the driver-facing contract plus the trivial
//! [`StaticPolicy`]; adaptive policies (hysteresis thresholds, patience
//! voting) live upstack in `samr-meta`, next to the selector logic they
//! reuse.

use crate::metrics::StepMetrics;
use samr_partition::Partitioner;

/// A partitioner change requested by a policy, to take effect on the
/// next repartitioning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicySwitch {
    /// Configured name of the partitioner being abandoned.
    pub from: String,
    /// Configured name of the partitioner taking over.
    pub to: String,
}

/// One partitioner switch that took effect, with its charged cost: the
/// first snapshot partitioned under the new partitioner and the data
/// volume that had to move to realize the new distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct SwitchEvent {
    /// Coarse step at which the new partitioner first produced the
    /// distribution.
    pub step: u32,
    /// Configured name of the partitioner switched away from.
    pub from: String,
    /// Configured name of the partitioner switched to.
    pub to: String,
    /// Grid points whose owner changed in the switch step — the switch's
    /// full migration bill (feature motion plus redistribution).
    pub migration_cells: u64,
    /// Invocation cost charged for the switch step's repartitioning.
    pub partition_cost: f64,
}

/// The runtime owner of the partitioner across a streamed simulation.
///
/// The driver contract, in invocation order per snapshot:
///
/// 1. [`current`](Self::current) names the partitioner for this
///    snapshot's (re)partitioning;
/// 2. the step's metrics are computed (migration charged against the
///    previous distribution, whoever produced it);
/// 3. [`observe`](Self::observe) sees those metrics and may return a
///    [`PolicySwitch`] — from then on [`current`](Self::current) must
///    return the new partitioner, and the driver forces a repartition of
///    the next snapshot so the switch materializes and is charged.
pub trait PartitionPolicy<const D: usize> {
    /// Descriptive name of the policy (used as the result's partitioner
    /// label).
    fn name(&self) -> String;

    /// The partitioner currently in charge.
    fn current(&self) -> &(dyn Partitioner<D> + Sync);

    /// Feed one step's observed metrics; a returned switch takes effect
    /// on the next snapshot.
    fn observe(&mut self, m: &StepMetrics) -> Option<PolicySwitch>;

    /// `true` when [`observe`](Self::observe) can never switch — lets
    /// the driver keep the window-parallel pre-partitioning fast path.
    fn is_static(&self) -> bool {
        false
    }
}

/// The do-nothing policy: one partitioner for the whole run.
///
/// Wrapping a partitioner in a `StaticPolicy` reproduces the historical
/// fixed-partitioner driver byte-identically (the stream tests pin this
/// by comparing against the batch driver).
pub struct StaticPolicy<'a, const D: usize> {
    inner: Held<'a, D>,
}

/// A partitioner a [`StaticPolicy`] borrows or owns.
enum Held<'a, const D: usize> {
    Borrowed(&'a (dyn Partitioner<D> + Sync)),
    Owned(Box<dyn Partitioner<D> + Send + Sync>),
}

impl<'a, const D: usize> StaticPolicy<'a, D> {
    /// Wrap one partitioner as the policy for a whole run.
    pub fn new(inner: &'a (dyn Partitioner<D> + Sync)) -> Self {
        Self {
            inner: Held::Borrowed(inner),
        }
    }
}

impl<const D: usize> StaticPolicy<'static, D> {
    /// [`new`](Self::new), owning the partitioner.
    pub fn owning(inner: Box<dyn Partitioner<D> + Send + Sync>) -> Self {
        Self {
            inner: Held::Owned(inner),
        }
    }
}

impl<const D: usize> PartitionPolicy<D> for StaticPolicy<'_, D> {
    fn name(&self) -> String {
        self.current().name()
    }

    fn current(&self) -> &(dyn Partitioner<D> + Sync) {
        match &self.inner {
            Held::Borrowed(p) => *p,
            Held::Owned(p) => p.as_ref(),
        }
    }

    fn observe(&mut self, _m: &StepMetrics) -> Option<PolicySwitch> {
        None
    }

    fn is_static(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_partition::HybridPartitioner;

    #[test]
    fn static_policy_mirrors_its_partitioner_and_never_switches() {
        let p = HybridPartitioner::default();
        let mut policy = StaticPolicy::<2>::new(&p);
        assert_eq!(policy.name(), Partitioner::<2>::name(&p));
        assert!(policy.is_static());
        let owning = StaticPolicy::<2>::owning(Box::new(p));
        assert_eq!(owning.name(), policy.name());
        assert!(owning.is_static());
        let m = StepMetrics {
            step: 0,
            total_points: 1,
            workload: 1,
            load_imbalance: 1.0,
            comm_cells: 0,
            rel_comm: 0.0,
            migration_cells: 0,
            rel_migration: 0.0,
            partition_cost: 0.0,
            fragments: 1,
            step_time: 0.0,
        };
        assert_eq!(policy.observe(&m), None);
    }
}
