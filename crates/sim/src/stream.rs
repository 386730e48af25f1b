//! Windowed streaming simulation driver — bounded-memory execution of a
//! snapshot stream through a partitioner.
//!
//! [`simulate_policy_source_stats`] pulls snapshots from a
//! [`SnapshotSource`] into a ring of at most `window` snapshots,
//! partitions the window rayon-parallel under a static policy
//! (partitioners are pure functions of the hierarchy), then folds the
//! window's step metrics in order, carrying exactly one
//! `(snapshot, partition)` pair across window boundaries (step metrics
//! need the predecessor for migration). Peak residency is therefore
//! `window` in-flight snapshots plus the single carried predecessor —
//! `O(window)`, never `O(steps)` — and the result is identical for any
//! thread count and window size.
//!
//! With `window == 1` the driver degrades to the strictly sequential
//! regime stateful partitioner selectors require: partitioners are
//! invoked one snapshot at a time, in step order, and *not* invoked at
//! all on steps whose hierarchy is unchanged under `reuse_unchanged`,
//! so selector state evolves exactly as in a live run.
//!
//! The machine model only prices a step — it turns the per-processor
//! loads, communication volumes and migration into a step time — so
//! one pass serves several machines:
//! [`simulate_policy_source_machines`] partitions and accounts each
//! snapshot once and times it once per machine.

use crate::index::MetricScratch;
use crate::metrics::StepMetrics;
use crate::policy::{PartitionPolicy, PolicySwitch, SwitchEvent};
use crate::simulate::{step_metrics, SimConfig, SimResult};
use rayon::prelude::*;
use samr_partition::{Partition, PartitionScratch};
use samr_trace::io::TraceIoError;
use samr_trace::{Snapshot, SnapshotSource};

/// The default window, resolved once per process: twice the rayon pool
/// width — every worker has a snapshot to partition plus one queued —
/// clamped to `2..=64` so residency stays bounded on very wide machines
/// where more queueing buys no throughput.
pub fn default_window() -> usize {
    static WINDOW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WINDOW.get_or_init(|| (2 * rayon::current_num_threads()).clamp(2, 64))
}

/// Residency and adaptation accounting of one
/// [`simulate_policy_source_stats`] run, for tests and capacity
/// planning.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamStats {
    /// Most snapshots ever live in the driver at once: the filled window
    /// plus the carried predecessor (so at most `window + 1`).
    pub peak_resident: usize,
    /// Total snapshots consumed from the source.
    pub snapshots: usize,
    /// Every partitioner switch that took effect, in step order, with
    /// its charged migration volume. Always empty for a static policy.
    pub switch_events: Vec<SwitchEvent>,
}

impl StreamStats {
    /// Number of partitioner switches that took effect.
    pub fn switches(&self) -> usize {
        self.switch_events.len()
    }

    /// Total grid points moved by switch steps — the adaptation bill.
    pub fn switch_migration_cells(&self) -> u64 {
        self.switch_events.iter().map(|e| e.migration_cells).sum()
    }
}

/// Run a snapshot stream under a [`PartitionPolicy`] on `cfg.nprocs`
/// processors — the policy owns the partitioner and may switch it
/// mid-stream; wrap a single partitioner in a
/// [`StaticPolicy`](crate::policy::StaticPolicy) to run it unchanged.
/// See the module docs for the windowing contract. This is the
/// one-machine case of [`simulate_policy_source_machines`].
///
/// Per snapshot the driver (1) repartitions with the policy's *current*
/// partitioner (or reuses the previous distribution when the hierarchy
/// is unchanged and no switch is pending), (2) computes the step's
/// metrics against the carried predecessor, then (3) feeds the metrics
/// to [`PartitionPolicy::observe`]. A returned [`PolicySwitch`] forces
/// the next snapshot to repartition — even an unchanged one — so the
/// switch materializes; that step's migration volume against the old
/// distribution is the switch's charged cost, recorded as a
/// [`SwitchEvent`] in the returned [`StreamStats`]. A switch requested
/// on the final snapshot never takes effect and is charged nothing.
///
/// The window-parallel pre-partitioning fast path only applies to
/// static policies (`window > 1` with a switching policy would
/// pre-partition with a stale partitioner); adaptive policies run the
/// strictly sequential regime regardless of `window`.
pub fn simulate_policy_source_stats<const D: usize>(
    source: &mut (dyn SnapshotSource<D> + '_),
    policy: &mut (dyn PartitionPolicy<D> + '_),
    cfg: &SimConfig,
    window: usize,
) -> Result<(SimResult, StreamStats), TraceIoError> {
    let (mut results, stats) =
        simulate_policy_source_machines(source, policy, std::slice::from_ref(cfg), window)?;
    Ok((results.pop().expect("one result per config"), stats))
}

/// Run a snapshot stream once for a group of configurations that differ
/// only in their [`SimConfig::machine`]: every snapshot is partitioned
/// and accounted (communication and migration) once, and only
/// [`MachineModel::step_time`](crate::MachineModel::step_time) runs per
/// machine, over the same per-processor loads, volumes and migration.
/// Returns one [`SimResult`] per config, in order, plus the stream
/// statistics the group shares; each result is bit for bit what
/// [`simulate_policy_source_stats`] returns under that config alone.
///
/// That equality has two conditions the caller owns: the policy's
/// partitioners must not depend on the machine, and its decisions must
/// not read [`StepMetrics::step_time`](crate::StepMetrics::step_time) —
/// the policy observes the first config's metrics, whose other fields
/// every machine shares. [`StaticPolicy`](crate::policy::StaticPolicy)
/// never decides, and `samr_meta::AdaptivePolicy` reads only
/// `load_imbalance` and `rel_comm`.
///
/// # Panics
///
/// If `cfgs` is empty, or two configs differ in anything but the
/// machine.
pub fn simulate_policy_source_machines<const D: usize>(
    source: &mut (dyn SnapshotSource<D> + '_),
    policy: &mut (dyn PartitionPolicy<D> + '_),
    cfgs: &[SimConfig],
    window: usize,
) -> Result<(Vec<SimResult>, StreamStats), TraceIoError> {
    let cfg = cfgs.first().expect("at least one simulation config");
    assert!(
        cfgs.iter().all(|c| SimConfig {
            machine: cfg.machine,
            ..*c
        } == *cfg),
        "configs of one simulation may differ only in the machine"
    );
    let window = window.max(1);
    let capacity = source.len_hint().unwrap_or(0);
    let mut runs: Vec<SimResult> = cfgs
        .iter()
        .map(|c| SimResult {
            partitioner: String::new(),
            nprocs: c.nprocs,
            steps: Vec::with_capacity(capacity),
            total_time: 0.0,
        })
        .collect();
    let mut carry: Option<(Snapshot<D>, Partition<D>)> = None;
    let mut peak_resident = 0usize;
    let mut consumed = 0usize;
    // A switch the policy requested on the previous snapshot, waiting to
    // materialize (and be charged) on the next repartitioning.
    let mut pending: Option<PolicySwitch> = None;
    let mut switch_events: Vec<SwitchEvent> = Vec::new();
    // Arenas reused across every snapshot of the stream: the sequential
    // partitioning path and the per-step metric walks are allocation-free
    // at steady state. Both arenas are partitioner-agnostic (pure
    // geometry buffers), so reuse stays correct across a mid-stream
    // partitioner change.
    let mut pscratch = PartitionScratch::<D>::default();
    let mut mscratch = MetricScratch::<D>::default();
    loop {
        let mut buf: Vec<Snapshot<D>> = Vec::with_capacity(window);
        while buf.len() < window {
            match source.next_snapshot()? {
                Some(s) => buf.push(s),
                None => break,
            }
        }
        if buf.is_empty() {
            break;
        }
        consumed += buf.len();
        peak_resident = peak_resident.max(buf.len() + usize::from(carry.is_some()));
        // Pre-partition the whole window in parallel — except in the
        // sequential (window 1) regime, where partitioners run on demand
        // so stateful selectors see exactly the live invocation order,
        // and under switching policies, where the current partitioner is
        // only known once the preceding step's metrics were observed.
        let mut pre: Vec<Option<Partition<D>>> = if window > 1 && policy.is_static() {
            let partitioner = policy.current();
            buf.par_iter()
                .map(|s| Some(partitioner.partition(&s.hierarchy, cfg.nprocs)))
                .collect()
        } else {
            vec![None; buf.len()]
        };
        let mut eff: Vec<Partition<D>> = Vec::with_capacity(buf.len());
        for i in 0..buf.len() {
            // A pending switch suppresses the unchanged-hierarchy skip:
            // the new partitioner must actually produce (and pay for) a
            // distribution before any reuse may resume.
            let unchanged = pending.is_none() && cfg.reuse_unchanged && {
                let prev_h = if i == 0 {
                    carry.as_ref().map(|(s, _)| &s.hierarchy)
                } else {
                    Some(&buf[i - 1].hierarchy)
                };
                prev_h.is_some_and(|ph| *ph == buf[i].hierarchy)
            };
            let (part, cost) = if unchanged {
                let prev_part = if i == 0 {
                    &carry.as_ref().expect("unchanged implies a predecessor").1
                } else {
                    &eff[i - 1]
                };
                (prev_part.clone(), 0.0)
            } else {
                let part = match pre[i].take() {
                    Some(p) => p,
                    None => policy.current().partition_with(
                        &buf[i].hierarchy,
                        cfg.nprocs,
                        &mut pscratch,
                    ),
                };
                (part, policy.current().cost_estimate(&buf[i].hierarchy))
            };
            eff.push(part);
            let prev_pair = if i == 0 {
                carry.as_ref().map(|(s, p)| (&s.hierarchy, p))
            } else {
                Some((&buf[i - 1].hierarchy, &eff[i - 1]))
            };
            let h = &buf[i].hierarchy;
            let m = step_metrics(buf[i].step, h, &eff[i], prev_pair, cfg, cost, &mut mscratch);
            if let Some(sw) = pending.take() {
                switch_events.push(SwitchEvent {
                    step: buf[i].step,
                    from: sw.from,
                    to: sw.to,
                    migration_cells: m.migration_cells,
                    partition_cost: cost,
                });
            }
            if let Some(sw) = policy.observe(&m) {
                pending = Some(sw);
            }
            // The first machine's metrics are `m`; every other machine
            // only re-times the step over the loads, volumes and
            // migration this step's accounting left in the scratch.
            let loads = if cfgs.len() > 1 {
                eff[i].loads(h.ratio)
            } else {
                Vec::new()
            };
            for (k, (run, c)) in runs.iter_mut().zip(cfgs).enumerate() {
                let step_time = if k == 0 {
                    m.step_time
                } else {
                    c.machine.step_time(
                        &loads,
                        mscratch.per_proc_vols(),
                        mscratch.per_proc_mig(),
                        cost,
                    )
                };
                run.total_time += step_time;
                run.steps.push(StepMetrics { step_time, ..m });
            }
        }
        // Carry the window's last pair; everything else is dropped here,
        // which is what keeps residency O(window).
        let last_part = eff.pop().expect("window is non-empty");
        let last_snap = buf.pop().expect("window is non-empty");
        carry = Some((last_snap, last_part));
    }
    if consumed == 0 {
        return Err(TraceIoError::Format(
            "cannot simulate an empty snapshot stream".into(),
        ));
    }
    let name = policy.name();
    for run in &mut runs {
        run.partitioner.clone_from(&name);
    }
    Ok((
        runs,
        StreamStats {
            peak_resident,
            snapshots: consumed,
            switch_events,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StaticPolicy;
    use crate::MachineModel;
    use samr_geom::{AABox, Box3, Rect2};
    use samr_grid::GridHierarchy;
    use samr_partition::{DomainSfcPartitioner, HybridPartitioner, Partitioner, PatchPartitioner};
    use samr_trace::{HierarchyTrace, MemorySource, TraceMeta};

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    /// Run a whole trace through one partitioner at `window`.
    fn run(
        t: &HierarchyTrace<2>,
        p: &(dyn Partitioner<2> + Sync),
        cfg: &SimConfig,
        window: usize,
    ) -> Result<(SimResult, StreamStats), TraceIoError> {
        let source = &mut MemorySource::new(t);
        simulate_policy_source_stats(source, &mut StaticPolicy::new(p), cfg, window)
    }

    /// A moving-box trace with an unchanged-hierarchy plateau in the
    /// middle, so the reuse path crosses window boundaries: `level1`
    /// places the refined box at each step's offset.
    fn moving_trace<const D: usize>(
        base: AABox<D>,
        steps: u32,
        level1: impl Fn(i64) -> AABox<D>,
    ) -> HierarchyTrace<D> {
        let meta = TraceMeta {
            app: "SYN".into(),
            description: "windowed driver test".into(),
            base_domain: base,
            ratio: 2,
            max_levels: 2,
            regrid_interval: 4,
            min_block: 2,
            seed: 0,
        };
        let mut t = HierarchyTrace::new(meta);
        for i in 0..steps {
            let off = if (3..6).contains(&i) {
                6
            } else {
                (i as i64) * 2
            } % 16;
            t.push(samr_trace::Snapshot {
                step: i,
                time: i as f64,
                hierarchy: GridHierarchy::from_level_rects(base, 2, &[vec![], vec![level1(off)]]),
            });
        }
        t
    }

    fn trace(steps: u32) -> HierarchyTrace<2> {
        moving_trace(Rect2::from_extents(32, 32), steps, |off| {
            r(off, 0, off + 15, 15)
        })
    }

    fn trace_3d(steps: u32) -> HierarchyTrace<3> {
        moving_trace(Box3::from_extents(8, 8, 8), steps, |off| {
            Box3::from_coords(off / 2, 2, 2, off / 2 + 5, 9, 7)
        })
    }

    #[test]
    fn every_window_size_gives_the_sequential_result() {
        let t = trace(11);
        let cfg = SimConfig {
            nprocs: 4,
            ..SimConfig::default()
        };
        let p = DomainSfcPartitioner::default();
        let (sequential, _) = run(&t, &p, &cfg, 1).unwrap();
        for window in [1usize, 2, 3, 5, 11, 64] {
            let (streamed, stats) = run(&t, &p, &cfg, window).unwrap();
            assert_eq!(streamed, sequential, "window {window} diverged");
            assert_eq!(stats.snapshots, t.len());
            assert!(
                stats.switch_events.is_empty(),
                "static policies never switch"
            );
            assert!(
                stats.peak_resident <= window + 1,
                "window {window} held {} snapshots",
                stats.peak_resident
            );
        }
    }

    #[test]
    fn window_one_is_strictly_sequential() {
        // A partitioner that records its invocation order proves the
        // sequential regime never reorders or over-invokes.
        use samr_partition::Partition;
        use std::sync::Mutex;
        struct Recording {
            inner: HybridPartitioner,
            calls: Mutex<Vec<u64>>,
        }
        impl Partitioner<2> for Recording {
            fn name(&self) -> String {
                Partitioner::<2>::name(&self.inner)
            }
            fn partition(&self, h: &GridHierarchy<2>, nprocs: usize) -> Partition<2> {
                self.calls.lock().unwrap().push(h.total_points());
                self.inner.partition(h, nprocs)
            }
            fn cost_estimate(&self, h: &GridHierarchy<2>) -> f64 {
                Partitioner::<2>::cost_estimate(&self.inner, h)
            }
        }
        let t = trace(8);
        let cfg = SimConfig {
            nprocs: 4,
            ..SimConfig::default()
        };
        let rec = Recording {
            inner: HybridPartitioner::default(),
            calls: Mutex::new(Vec::new()),
        };
        let (res, stats) = run(&t, &rec, &cfg, 1).unwrap();
        assert_eq!(res.steps.len(), 8);
        assert!(stats.peak_resident <= 2, "{}", stats.peak_resident);
        // Steps 4 and 5 repeat step 3's hierarchy: exactly 6 invocations,
        // in step order.
        let calls = rec.calls.into_inner().unwrap();
        let expected: Vec<u64> = t
            .snapshots
            .iter()
            .enumerate()
            .filter(|(i, s)| *i == 0 || t.snapshots[i - 1].hierarchy != s.hierarchy)
            .map(|(_, s)| s.hierarchy.total_points())
            .collect();
        assert_eq!(calls, expected);
        assert!(calls.len() < t.len(), "the plateau must be reused");
    }

    /// A policy that switches from domain-SFC to hybrid once it sees a
    /// given step, for driving the switch-charging machinery.
    struct FlipAfter {
        at: u32,
        flipped: bool,
        a: DomainSfcPartitioner,
        b: HybridPartitioner,
    }

    impl FlipAfter {
        fn new(at: u32) -> Self {
            Self {
                at,
                flipped: false,
                a: DomainSfcPartitioner::default(),
                b: HybridPartitioner::default(),
            }
        }
    }

    impl<const D: usize> crate::policy::PartitionPolicy<D> for FlipAfter {
        fn name(&self) -> String {
            "flip".into()
        }
        fn current(&self) -> &(dyn Partitioner<D> + Sync) {
            if self.flipped {
                &self.b
            } else {
                &self.a
            }
        }
        fn observe(&mut self, m: &crate::StepMetrics) -> Option<crate::policy::PolicySwitch> {
            if !self.flipped && m.step == self.at {
                self.flipped = true;
                Some(crate::policy::PolicySwitch {
                    from: "domain".into(),
                    to: "hybrid".into(),
                })
            } else {
                None
            }
        }
    }

    #[test]
    fn a_switch_forces_repartitioning_and_is_charged() {
        // The trace's hierarchy is unchanged over steps 3..6; a switch
        // observed at step 3 must still repartition step 4 (the reuse
        // skip is suppressed) and charge that step's cost + migration.
        let t = trace(11);
        let cfg = SimConfig {
            nprocs: 4,
            ..SimConfig::default()
        };
        let (static_run, _) = run(&t, &DomainSfcPartitioner::default(), &cfg, 1).unwrap();
        assert_eq!(static_run.steps[4].partition_cost, 0.0, "plateau reuses");
        let mut policy = FlipAfter::new(3);
        let (res, stats) =
            simulate_policy_source_stats(&mut MemorySource::new(&t), &mut policy, &cfg, 1).unwrap();
        assert_eq!(res.partitioner, "flip");
        assert_eq!(stats.switches(), 1);
        let ev = &stats.switch_events[0];
        assert_eq!(ev.step, 4);
        assert_eq!((ev.from.as_str(), ev.to.as_str()), ("domain", "hybrid"));
        assert!(ev.partition_cost > 0.0, "the switch step repartitions");
        assert_eq!(res.steps[4].partition_cost, ev.partition_cost);
        assert_eq!(res.steps[4].migration_cells, ev.migration_cells);
        // Before the switch the run is byte-identical to the static one.
        assert_eq!(res.steps[..4], static_run.steps[..4]);
        // After the switch step the plateau reuse resumes (step 5 repeats
        // step 4's hierarchy under the now-current partitioner).
        assert_eq!(res.steps[5].partition_cost, 0.0);
        assert_eq!(res.steps[5].migration_cells, 0);
    }

    #[test]
    fn switching_is_window_invariant() {
        // The pending switch must survive window boundaries: the policy
        // path is strictly sequential for every window size.
        let t = trace(11);
        let cfg = SimConfig {
            nprocs: 4,
            ..SimConfig::default()
        };
        let mut p1 = FlipAfter::new(3);
        let (base, base_stats) =
            simulate_policy_source_stats(&mut MemorySource::new(&t), &mut p1, &cfg, 1).unwrap();
        for window in [2usize, 3, 5, 64] {
            let mut p = FlipAfter::new(3);
            let (res, stats) =
                simulate_policy_source_stats(&mut MemorySource::new(&t), &mut p, &cfg, window)
                    .unwrap();
            assert_eq!(res, base, "window {window} diverged");
            assert_eq!(stats.switch_events, base_stats.switch_events);
        }
    }

    #[test]
    fn a_switch_pending_at_stream_end_is_dropped() {
        // A switch requested on the final snapshot never materializes:
        // no event, nothing charged.
        let t = trace(5);
        let cfg = SimConfig {
            nprocs: 4,
            ..SimConfig::default()
        };
        let mut policy = FlipAfter::new(4);
        let (_, stats) =
            simulate_policy_source_stats(&mut MemorySource::new(&t), &mut policy, &cfg, 1).unwrap();
        assert_eq!(stats.switches(), 0);
        assert!(stats.switch_events.is_empty());
    }

    /// One config per registry machine, otherwise identical.
    fn machine_configs() -> Vec<SimConfig> {
        MachineModel::registry()
            .into_iter()
            .map(|(_, machine)| SimConfig {
                nprocs: 5,
                machine,
                ..SimConfig::default()
            })
            .collect()
    }

    /// Assert that one run of `make()`'s policy over every registry
    /// machine equals one run per machine bit for bit, in results and
    /// stream statistics, and that the one-machine entry point is the
    /// one-member group. Returns the group's statistics.
    fn assert_group_matches<const D: usize, P: PartitionPolicy<D>>(
        t: &HierarchyTrace<D>,
        make: impl Fn() -> P,
        window: usize,
        label: &str,
    ) -> StreamStats {
        let cfgs = machine_configs();
        let run = |cfgs: &[SimConfig]| {
            simulate_policy_source_machines(&mut MemorySource::new(t), &mut make(), cfgs, window)
                .unwrap()
        };
        let (group, group_stats) = run(&cfgs);
        assert_eq!(group.len(), cfgs.len(), "{label}");
        for (grouped, cfg) in group.iter().zip(&cfgs) {
            let (single, stats) =
                simulate_policy_source_stats(&mut MemorySource::new(t), &mut make(), cfg, window)
                    .unwrap();
            let machine = cfg.machine.preset_name().unwrap();
            assert_eq!(*grouped, single, "{label}: machine {machine}");
            assert_eq!(stats, group_stats, "{label}: machine {machine}");
        }
        for grouped in &group[1..] {
            assert_ne!(grouped.total_time, group[0].total_time, "{label}");
        }
        let (one, one_stats) = run(&cfgs[..1]);
        assert_eq!(one[..], group[..1], "{label}: one-member group");
        assert_eq!(one_stats, group_stats, "{label}: one-member group");
        group_stats
    }

    fn statics<const D: usize>() -> [Box<dyn Partitioner<D> + Sync>; 3] {
        [
            Box::new(DomainSfcPartitioner::default()),
            Box::new(PatchPartitioner::default()),
            Box::new(HybridPartitioner::default()),
        ]
    }

    #[test]
    fn a_machine_group_equals_one_run_per_machine() {
        for window in [1, 3, default_window()] {
            for p in statics::<2>() {
                let label = format!("2-D {} window {window}", p.name());
                let stats = assert_group_matches(
                    &trace(11),
                    || StaticPolicy::new(p.as_ref()),
                    window,
                    &label,
                );
                assert!(stats.switch_events.is_empty(), "{label}");
            }
            for p in statics::<3>() {
                let label = format!("3-D {} window {window}", p.name());
                assert_group_matches(
                    &trace_3d(11),
                    || StaticPolicy::new(p.as_ref()),
                    window,
                    &label,
                );
            }
        }
    }

    #[test]
    fn a_switch_is_charged_to_every_machine_of_a_group_alike() {
        // The switch observed at step 3 lands on the plateau: step 4 is
        // force-repartitioned in every machine's run.
        for window in [1, 3, default_window()] {
            let stats = assert_group_matches(&trace(11), || FlipAfter::new(3), window, "2-D");
            assert_eq!(stats.switches(), 1);
            assert_eq!(stats.switch_events[0].step, 4);
            let stats = assert_group_matches(&trace_3d(11), || FlipAfter::new(3), window, "3-D");
            assert_eq!(stats.switches(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "differ only in the machine")]
    fn configs_differing_beyond_the_machine_are_refused() {
        let mut cfgs = machine_configs();
        cfgs[1].nprocs = 8;
        let p = HybridPartitioner::default();
        let _ = simulate_policy_source_machines(
            &mut MemorySource::new(&trace(4)),
            &mut StaticPolicy::new(&p),
            &cfgs,
            1,
        );
    }

    #[test]
    fn default_window_is_autotuned_within_bounds() {
        let w = default_window();
        assert!((2..=64).contains(&w), "autotuned window {w} out of range");
    }

    #[test]
    fn empty_stream_is_an_error() {
        let meta = TraceMeta::<2> {
            app: "SYN".into(),
            description: "empty".into(),
            base_domain: Rect2::from_extents(8, 8),
            ratio: 2,
            max_levels: 2,
            regrid_interval: 4,
            min_block: 2,
            seed: 0,
        };
        let t = HierarchyTrace::new(meta);
        let cfg = SimConfig::default();
        let p = DomainSfcPartitioner::default();
        assert!(run(&t, &p, &cfg, 4).is_err());
    }
}
