//! Static vs. dynamic partitioner selection on a trace — the
//! proof-of-concept experiment (DESIGN.md META1).
//!
//! The paper motivates the meta-partitioner with Figure 1 (a static P
//! leaves execution time on the table) and the ArMADA result ("even with
//! such a simple model, execution times were reduced"). This driver makes
//! that claim measurable: run a trace through every static partitioner
//! and through the [`MetaPartitioner`], under the same machine model, and
//! compare total estimated execution times.

use crate::meta::MetaPartitioner;
use crate::octant_meta::OctantMetaPartitioner;
use samr_partition::{DomainSfcPartitioner, HybridPartitioner, Partitioner, PatchPartitioner};
use samr_sim::{simulate_cohort, CohortMember, SimConfig, SimResult, StaticPolicy};
use samr_trace::io::TraceIoError;
use samr_trace::{HierarchyTrace, MemorySource};
use serde::{Deserialize, Serialize};

/// Result of one partitioner (static or dynamic) over a trace.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Partitioner name.
    pub name: String,
    /// Total estimated execution time.
    pub total_time: f64,
    /// Mean load imbalance over the run.
    pub mean_imbalance: f64,
    /// Mean grid-relative communication.
    pub mean_rel_comm: f64,
    /// Mean grid-relative migration.
    pub mean_rel_migration: f64,
}

/// Outcome of the full comparison.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ComparisonResult {
    /// Static partitioner outcomes.
    pub static_runs: Vec<RunOutcome>,
    /// The meta-partitioner (continuous classification) outcome.
    pub meta_run: RunOutcome,
    /// The octant-approach baseline (discrete ArMADA-style
    /// classification) outcome — the legacy selector §3 critiques.
    pub octant_run: RunOutcome,
}

impl ComparisonResult {
    /// The best static outcome (an *oracle* static choice — stronger than
    /// what a user could pick a priori).
    pub fn best_static(&self) -> &RunOutcome {
        self.static_runs
            .iter()
            .min_by(|a, b| a.total_time.total_cmp(&b.total_time))
            .expect("at least one static partitioner")
    }

    /// The worst static outcome (the cost of picking wrong, once, for the
    /// whole run).
    pub fn worst_static(&self) -> &RunOutcome {
        self.static_runs
            .iter()
            .max_by(|a, b| a.total_time.total_cmp(&b.total_time))
            .expect("at least one static partitioner")
    }

    /// Meta time / best static time (< 1 means the dynamic selection beat
    /// even the oracle static choice).
    pub fn meta_vs_best(&self) -> f64 {
        self.meta_run.total_time / self.best_static().total_time
    }

    /// Meta time / worst static time.
    pub fn meta_vs_worst(&self) -> f64 {
        self.meta_run.total_time / self.worst_static().total_time
    }
}

/// Summarize one run's per-step metrics.
fn outcome(result: SimResult) -> RunOutcome {
    let SimResult {
        partitioner: name,
        steps,
        total_time,
        ..
    } = result;
    let n = steps.len() as f64;
    RunOutcome {
        name,
        total_time,
        mean_imbalance: steps.iter().map(|s| s.load_imbalance).sum::<f64>() / n,
        mean_rel_comm: steps.iter().map(|s| s.rel_comm).sum::<f64>() / n,
        mean_rel_migration: steps.iter().map(|s| s.rel_migration).sum::<f64>() / n,
    }
}

/// Compare the three static partitioner families (default
/// configurations) against the meta-partitioner and the octant baseline
/// on one in-memory trace. The five run as one cohort on the strictly
/// sequential window-1 driver — the selectors' classification depends
/// on the previous hierarchy — so each snapshot is partitioned once per
/// configuration the five need: the selectors pick among the families.
/// An empty trace is an error.
pub fn compare_on_trace<const D: usize>(
    trace: &HierarchyTrace<D>,
    cfg: &SimConfig,
) -> Result<ComparisonResult, TraceIoError> {
    let (domain, patch, hybrid) = (
        DomainSfcPartitioner::default(),
        PatchPartitioner::default(),
        HybridPartitioner::default(),
    );
    let meta = MetaPartitioner::for_machine(&cfg.machine);
    let octant = OctantMetaPartitioner::new();
    let partitioners: [&(dyn Partitioner<D> + Sync); 5] =
        [&domain, &patch, &hybrid, &meta, &octant];
    let mut policies = partitioners.map(StaticPolicy::new);
    let mut members: Vec<CohortMember<'_, D>> = policies
        .iter_mut()
        .map(|policy| CohortMember { policy, cfg: *cfg })
        .collect();
    let mut runs = simulate_cohort(&mut MemorySource::new(trace), &mut members, 1)?
        .into_iter()
        .map(|(result, _)| outcome(result));
    let static_runs = runs.by_ref().take(3).collect();
    let mut next = || runs.next().expect("one run per member");
    Ok(ComparisonResult {
        static_runs,
        meta_run: next(),
        octant_run: next(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_apps::{generate_trace, AppKind, TraceGenConfig};

    fn cfg() -> SimConfig {
        SimConfig {
            nprocs: 8,
            ..SimConfig::default()
        }
    }

    #[test]
    fn comparison_produces_all_outcomes() {
        let trace = generate_trace(AppKind::Tp2d, &TraceGenConfig::smoke());
        let res = compare_on_trace(&trace, &cfg()).unwrap();
        assert_eq!(res.static_runs.len(), 3);
        assert!(res.meta_run.total_time > 0.0);
        for r in &res.static_runs {
            assert!(r.total_time > 0.0);
            assert!(r.mean_imbalance >= 1.0);
        }
    }

    #[test]
    fn meta_is_competitive_with_static_choices() {
        // The proof-of-concept claim: dynamic selection should not lose
        // badly to the oracle static choice and should beat the worst
        // static choice.
        let trace = generate_trace(AppKind::Bl2d, &TraceGenConfig::smoke());
        let res = compare_on_trace(&trace, &cfg()).unwrap();
        assert!(
            res.meta_vs_worst() < 1.0,
            "meta ({}) should beat the worst static ({})",
            res.meta_run.total_time,
            res.worst_static().total_time
        );
        assert!(
            res.meta_vs_best() < 1.6,
            "meta ({}) should stay near the best static ({})",
            res.meta_run.total_time,
            res.best_static().total_time
        );
    }

    #[test]
    fn an_empty_trace_is_an_error() {
        let meta = generate_trace(AppKind::Tp2d, &TraceGenConfig::smoke()).meta;
        let err = compare_on_trace(&HierarchyTrace::new(meta), &cfg()).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
    }
}
