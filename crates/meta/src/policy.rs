//! Adaptive repartitioning policies — time-varying partitioner selection
//! driven by *observed* per-step metrics.
//!
//! The meta-partitioner ([`crate::MetaPartitioner`]) re-classifies the
//! hierarchy before every partitioning, but it still decides from the
//! *predicted* state. An [`AdaptivePolicy`] closes the loop the other
//! way, in the spirit of D'Angelo's self-clustering adaptive
//! repartitioning: it watches the metrics the simulator actually
//! measured — load imbalance, grid-relative communication — and switches
//! between two configured partitioners when a metric crosses a threshold
//! for enough consecutive snapshots. Switching is never free: the
//! streaming driver forces the next snapshot to repartition under the
//! new partitioner and charges that step's full migration volume (see
//! [`samr_sim::policy`]).
//!
//! Two guards keep the policy from thrashing, both *reused* from the
//! selector rather than re-implemented: the enter/exit thresholds form a
//! hysteresis band (switching to the balanced partitioner at
//! `imbalance_enter` but only back at the lower `imbalance_exit`, the
//! same anti-flapping idea as [`SelectorConfig::hysteresis`]), and the
//! consecutive-vote requirement is the selector's own
//! [`PatienceGate`] (the [`SelectorConfig::switch_patience`] mechanism).

use crate::selector::{PatienceGate, SelectorConfig};
use samr_partition::{Partitioner, PartitionerChoice};
use samr_sim::policy::PolicySwitch;
pub use samr_sim::policy::{PartitionPolicy, StaticPolicy, SwitchEvent};
use samr_sim::StepMetrics;
use serde::{Deserialize, Serialize};

/// Thresholds and knobs of one [`AdaptivePolicy`].
///
/// The policy runs a two-mode state machine over the scenario's own
/// partitioner (the *local* mode — whatever the scenario configured,
/// typically the communication-optimal choice) and a *balanced*
/// fallback:
///
/// - in local mode, observing `load_imbalance >= imbalance_enter` votes
///   to switch to the balanced partitioner;
/// - in balanced mode, observing `load_imbalance <= imbalance_exit`
///   (the imbalance episode has passed) **or** `rel_comm >= comm_enter`
///   (the balanced cut's communication bill outgrew its balance win)
///   votes to switch back;
/// - a switch commits only after `switch_patience` consecutive votes
///   (the selector's [`PatienceGate`]); any non-voting step resets the
///   count.
///
/// `imbalance_exit < imbalance_enter` is the hysteresis band: between
/// the two thresholds the policy holds its current mode, so a metric
/// oscillating around one threshold cannot flap the partitioner.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Load imbalance (max/avg, 1.0 = perfect) at which local mode votes
    /// for the balanced partitioner.
    pub imbalance_enter: f64,
    /// Load imbalance at or below which balanced mode votes to return to
    /// the local partitioner. Keep strictly below `imbalance_enter`.
    pub imbalance_exit: f64,
    /// Grid-relative communication at which balanced mode votes to
    /// return to the local partitioner regardless of balance.
    pub comm_enter: f64,
    /// Consecutive agreeing votes required before a switch commits —
    /// the same knob as [`SelectorConfig::switch_patience`].
    pub switch_patience: usize,
    /// The balance-first partitioner the policy falls back to (the
    /// presets use per-level patch-based balancing — the one family
    /// that can split a deeply nested point feature a domain cut must
    /// hand to a single processor).
    pub balanced: PartitionerChoice,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self::balance()
    }
}

impl AdaptiveConfig {
    /// The default preset: switch when imbalance clearly hurts, with the
    /// selector's default patience.
    pub fn balance() -> Self {
        Self {
            imbalance_enter: 1.35,
            imbalance_exit: 1.15,
            comm_enter: 0.9,
            switch_patience: SelectorConfig::default().switch_patience,
            balanced: PartitionerChoice::patch(),
        }
    }

    /// Hair-trigger preset: a single bad snapshot switches. Wins fast on
    /// clean phase changes, thrashes on noisy workloads.
    pub fn eager() -> Self {
        Self {
            imbalance_enter: 1.2,
            imbalance_exit: 1.08,
            comm_enter: 0.9,
            switch_patience: 1,
            balanced: PartitionerChoice::patch(),
        }
    }

    /// Conservative preset: higher thresholds and twice the default
    /// patience — switches only for sustained, severe imbalance.
    pub fn patient() -> Self {
        Self {
            imbalance_enter: 1.6,
            imbalance_exit: 1.2,
            comm_enter: 0.95,
            switch_patience: 2 * SelectorConfig::default().switch_patience,
            balanced: PartitionerChoice::patch(),
        }
    }

    /// Thresholds that can never fire: [`AdaptivePolicy`] under this
    /// config is exactly a static policy (property-tested). Useful as
    /// the identity element when sweeping policy axes.
    pub fn never() -> Self {
        Self {
            imbalance_enter: f64::INFINITY,
            imbalance_exit: f64::NEG_INFINITY,
            comm_enter: f64::INFINITY,
            switch_patience: 1,
            balanced: PartitionerChoice::patch(),
        }
    }
}

/// The named adaptive presets, in presentation order — the source of the
/// `samr partitioners` listing and the engine's `adaptive:NAME` policy
/// slugs.
pub fn adaptive_presets() -> Vec<(&'static str, AdaptiveConfig)> {
    vec![
        ("balance", AdaptiveConfig::balance()),
        ("eager", AdaptiveConfig::eager()),
        ("patient", AdaptiveConfig::patient()),
    ]
}

/// Which of the policy's two partitioners is in charge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Local,
    Balanced,
}

/// A two-mode adaptive repartitioning policy over observed metrics; see
/// [`AdaptiveConfig`] for the state machine and its guards.
pub struct AdaptivePolicy<const D: usize> {
    cfg: AdaptiveConfig,
    local: Box<dyn Partitioner<D> + Send + Sync>,
    balanced: Box<dyn Partitioner<D> + Send + Sync>,
    mode: Mode,
    gate: PatienceGate<Mode>,
}

impl<const D: usize> AdaptivePolicy<D> {
    /// A policy starting in local mode on `local` (the scenario's own
    /// partitioner — stateful selectors work too), with the balanced
    /// fallback built from `cfg.balanced`.
    pub fn new(local: Box<dyn Partitioner<D> + Send + Sync>, cfg: AdaptiveConfig) -> Self {
        Self {
            local,
            balanced: cfg.balanced.boxed::<D>(),
            cfg,
            mode: Mode::Local,
            gate: PatienceGate::new(),
        }
    }

    /// The policy's thresholds.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }
}

impl<const D: usize> PartitionPolicy<D> for AdaptivePolicy<D> {
    fn name(&self) -> String {
        format!("adaptive({} | {})", self.local.name(), self.balanced.name())
    }

    fn current(&self) -> &(dyn Partitioner<D> + Sync) {
        match self.mode {
            Mode::Local => self.local.as_ref(),
            Mode::Balanced => self.balanced.as_ref(),
        }
    }

    fn observe(&mut self, m: &StepMetrics) -> Option<PolicySwitch> {
        let want = match self.mode {
            Mode::Local if m.load_imbalance >= self.cfg.imbalance_enter => Mode::Balanced,
            Mode::Balanced
                if m.load_imbalance <= self.cfg.imbalance_exit
                    || m.rel_comm >= self.cfg.comm_enter =>
            {
                Mode::Local
            }
            _ => {
                // The current mode is re-affirmed: votes must be
                // consecutive, exactly as in the selector.
                self.gate.reset();
                return None;
            }
        };
        if !self.gate.vote(want, self.cfg.switch_patience) {
            return None;
        }
        let from = self.current().name();
        self.mode = want;
        Some(PolicySwitch {
            from,
            to: self.current().name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::Rect2;
    use samr_grid::GridHierarchy;
    use samr_partition::DomainSfcPartitioner;
    use samr_sim::migration::naive_migration_cells;
    use samr_sim::{simulate_policy_source_stats, SimConfig, SimResult, StaticPolicy};
    use samr_trace::{HierarchyTrace, MemorySource, Snapshot, TraceMeta};

    /// The local partitioner alone, unchanged for the whole run.
    fn static_domain(t: &HierarchyTrace<2>, cfg: &SimConfig) -> SimResult {
        let p = DomainSfcPartitioner::default();
        let source = &mut MemorySource::new(t);
        simulate_policy_source_stats(source, &mut StaticPolicy::new(&p), cfg, 1)
            .unwrap()
            .0
    }

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    /// A two-regime trace: a broad, well-spread shallow refinement for
    /// the first half, then a deeply nested point singularity — the
    /// subtree under two base cells carries so much workload that any
    /// domain cut must hand it to one processor, while per-level
    /// balancing can split the fine levels.
    fn phase_change_trace(steps: u32) -> HierarchyTrace<2> {
        let meta = TraceMeta {
            app: "SYN".into(),
            description: "two-regime".into(),
            base_domain: Rect2::from_extents(32, 32),
            ratio: 2,
            max_levels: 4,
            regrid_interval: 1,
            min_block: 2,
            seed: 0,
        };
        let mut t = HierarchyTrace::new(meta);
        for i in 0..steps {
            let levels = if i < steps / 2 {
                // Spread: most of the domain refined one level.
                vec![
                    vec![],
                    vec![r(0, 0, 27 + (i as i64 % 4), 27)],
                    vec![],
                    vec![],
                ]
            } else {
                // Point singularity: three nested levels over a 2x2
                // base-cell corner.
                let l1 = r(0, 0, 1, 1);
                let l2 = l1.refine(2);
                let l3 = l2.refine(2);
                vec![vec![], vec![l1], vec![l2], vec![l3]]
            };
            t.push(Snapshot {
                step: i,
                time: i as f64,
                hierarchy: GridHierarchy::from_level_rects(Rect2::from_extents(32, 32), 2, &levels),
            });
        }
        t
    }

    /// Compute-bound machine: the setting where paying communication for
    /// balance is the right trade, so adaptation has something to win.
    fn cfg() -> SimConfig {
        SimConfig {
            nprocs: 16,
            machine: samr_sim::MachineModel::slow_cpu(),
            ..SimConfig::default()
        }
    }

    #[test]
    fn never_config_is_exactly_static() {
        let t = phase_change_trace(12);
        let cfg = cfg();
        let mut policy = AdaptivePolicy::<2>::new(
            Box::new(DomainSfcPartitioner::default()),
            AdaptiveConfig::never(),
        );
        let (adaptive, stats) =
            simulate_policy_source_stats(&mut MemorySource::new(&t), &mut policy, &cfg, 1).unwrap();
        let stat = static_domain(&t, &cfg);
        assert!(stats.switch_events.is_empty());
        assert_eq!(adaptive.steps, stat.steps);
        assert_eq!(adaptive.total_time, stat.total_time);
    }

    #[test]
    fn imbalance_episode_switches_and_is_charged() {
        let t = phase_change_trace(16);
        let cfg = cfg();
        // Sixteen processors over a point singularity: the domain cut's
        // imbalance spikes in the second regime.
        let mut policy = AdaptivePolicy::<2>::new(
            Box::new(DomainSfcPartitioner::default()),
            AdaptiveConfig::eager(),
        );
        let (res, stats) =
            simulate_policy_source_stats(&mut MemorySource::new(&t), &mut policy, &cfg, 1).unwrap();
        assert!(
            !stats.switch_events.is_empty(),
            "the phase change must trigger at least one switch"
        );
        assert_eq!(stats.switches(), stats.switch_events.len());
        for ev in &stats.switch_events {
            // The switch step's metrics carry its charge.
            let step = res.steps.iter().find(|s| s.step == ev.step).unwrap();
            assert_eq!(step.migration_cells, ev.migration_cells);
            assert_eq!(step.partition_cost, ev.partition_cost);
            assert!(ev.partition_cost > 0.0, "a switch step never reuses");
        }
    }

    #[test]
    fn switch_charge_meets_the_moved_volume_oracle() {
        // Every switch event's charged migration is at least the
        // all-pairs moved-volume oracle between the distributions the
        // old and new partitioners produce on the surrounding snapshots.
        // (Partitioners are pure functions of the hierarchy, and the
        // driver forces a repartition on switch steps, so the effective
        // partitions are reconstructible from the event's names.)
        let t = phase_change_trace(16);
        let cfg = cfg();
        let local = DomainSfcPartitioner::default();
        let acfg = AdaptiveConfig::eager();
        let mut policy = AdaptivePolicy::<2>::new(Box::new(local), acfg);
        let (_, stats) =
            simulate_policy_source_stats(&mut MemorySource::new(&t), &mut policy, &cfg, 1).unwrap();
        assert!(!stats.switch_events.is_empty());
        let by_name = |name: &str| -> Box<dyn samr_partition::Partitioner<2> + Sync> {
            if name == Partitioner::<2>::name(&DomainSfcPartitioner::default()) {
                Box::new(DomainSfcPartitioner::default())
            } else {
                assert_eq!(name, acfg.balanced.name());
                acfg.balanced.boxed::<2>()
            }
        };
        for ev in &stats.switch_events {
            let prev = &t.snapshots[ev.step as usize - 1];
            let cur = &t.snapshots[ev.step as usize];
            let prev_part = by_name(&ev.from).partition(&prev.hierarchy, cfg.nprocs);
            let cur_part = by_name(&ev.to).partition(&cur.hierarchy, cfg.nprocs);
            let oracle =
                naive_migration_cells(&prev.hierarchy, &prev_part, &cur.hierarchy, &cur_part);
            assert!(
                ev.migration_cells >= oracle,
                "switch at step {} charged {} < oracle {}",
                ev.step,
                ev.migration_cells,
                oracle
            );
            assert!(oracle > 0, "a real switch moves data");
        }
    }

    #[test]
    fn adaptation_beats_static_local_on_the_phase_change() {
        // The point of the exercise: on a two-regime trace the adaptive
        // policy's total estimated time beats staying on the local
        // partitioner for the whole run, even with the switch charged.
        let t = phase_change_trace(24);
        let cfg = cfg();
        let static_run = static_domain(&t, &cfg);
        let mut policy = AdaptivePolicy::<2>::new(
            Box::new(DomainSfcPartitioner::default()),
            AdaptiveConfig::balance(),
        );
        let (adaptive, stats) =
            simulate_policy_source_stats(&mut MemorySource::new(&t), &mut policy, &cfg, 1).unwrap();
        assert!(stats.switches() >= 1);
        assert!(
            adaptive.total_time < static_run.total_time,
            "adaptive {} should beat static {}",
            adaptive.total_time,
            static_run.total_time
        );
    }

    #[test]
    fn presets_are_named_and_ordered() {
        let presets = adaptive_presets();
        let names: Vec<&str> = presets.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["balance", "eager", "patient"]);
        for (_, c) in &presets {
            assert!(c.imbalance_exit < c.imbalance_enter, "hysteresis band");
            assert!(c.switch_patience >= 1);
        }
        assert_eq!(AdaptiveConfig::default(), AdaptiveConfig::balance());
    }
}
