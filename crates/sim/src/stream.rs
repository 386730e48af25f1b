//! Windowed streaming simulation driver — bounded-memory execution of a
//! snapshot stream for a *cohort* of runs.
//!
//! [`simulate_cohort`] pulls snapshots from a [`SnapshotSource`] into a
//! ring of at most `window` snapshots and runs every member of a cohort
//! over them. A member is a [`PartitionPolicy`] with its own
//! [`SimConfig`]; the members of a cohort differ at most in the machine,
//! so they read the same stream on the same processor count. Per
//! snapshot the driver partitions each distinct configuration the
//! repartitioning members [select](samr_partition::Partitioner::select)
//! once, runs the communication accounting once per distinct
//! distribution and the migration accounting once per distinct
//! (previous, current) pair. Each member then gets its own cost
//! estimate, step time, [`observe`](PartitionPolicy::observe) and switch
//! events. Those are pure functions of the same inputs, so every member's
//! result is bit for bit the result of running it alone;
//! [`simulate_policy_source_stats`] is the one-member cohort.
//!
//! When no member can switch (every policy is static) and `window > 1`,
//! the driver partitions a whole window before folding its step metrics
//! in order. Otherwise it partitions one snapshot at a time, in step
//! order, so selectors and switching policies see exactly the live
//! invocation order. In both regimes one rayon-parallel map computes
//! the batch's distinct fresh partitions, each a serial call that owns
//! its working buffers. Like every rayon operation, that
//! parallelism only exists when the driver is called outside a pool
//! worker: a campaign running several cohorts at once runs each cohort,
//! partitions included, as one serial task. Either way no
//! partitioner is invoked on a step whose hierarchy is unchanged under
//! `reuse_unchanged` while no switch is pending: the member keeps its
//! previous distribution. The driver carries exactly one snapshot across
//! window boundaries (step metrics need the predecessor for migration),
//! so peak residency is `window` in-flight snapshots plus that
//! predecessor — `O(window)`, never `O(steps)` — and the distributions
//! of the current and previous snapshot that some member still holds.
//! The result is identical for any thread count and window size.

use crate::index::MetricScratch;
use crate::migration::migration_accounting;
use crate::policy::{PartitionPolicy, PolicySwitch, SwitchEvent};
use crate::simulate::{Accounted, SimConfig, SimResult};
use rayon::prelude::*;
use samr_grid::GridHierarchy;
use samr_partition::{Partition, Partitioner, PartitionerChoice};
use samr_trace::io::TraceIoError;
use samr_trace::{Snapshot, SnapshotSource};
use std::rc::Rc;

/// The default window for the calling thread: twice the rayon pool
/// width — every worker has a snapshot to partition plus one queued —
/// clamped to `2..=64` so residency stays bounded on very wide machines
/// where more queueing buys no throughput. Inside a pool worker, where a
/// window's partitions run inline, that is 2.
pub fn default_window() -> usize {
    (2 * rayon::current_num_threads()).clamp(2, 64)
}

/// Residency and adaptation accounting of one run of
/// [`simulate_cohort`], for tests and capacity planning.
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

/// One run of a cohort: the policy that owns its partitioner and the
/// configuration it runs under.
pub struct CohortMember<'a, const D: usize> {
    /// The run's policy; a [`StaticPolicy`](crate::policy::StaticPolicy)
    /// runs one partitioner unchanged.
    pub policy: &'a mut (dyn PartitionPolicy<D> + 'a),
    /// The run's configuration. The members of one cohort differ at most
    /// in the machine.
    pub cfg: SimConfig,
}

/// Run a snapshot stream under a [`PartitionPolicy`] on `cfg.nprocs`
/// processors — the policy owns the partitioner and may switch it
/// mid-stream; wrap a single partitioner in a
/// [`StaticPolicy`](crate::policy::StaticPolicy) to run it unchanged.
/// This is the one-member case of [`simulate_cohort`]; see there and
/// the module docs for the windowing contract.
pub fn simulate_policy_source_stats<const D: usize>(
    source: &mut (dyn SnapshotSource<D> + '_),
    policy: &mut (dyn PartitionPolicy<D> + '_),
    cfg: &SimConfig,
    window: usize,
) -> Result<(SimResult, StreamStats), TraceIoError> {
    let mut members = [CohortMember { policy, cfg: *cfg }];
    let mut runs = simulate_cohort(source, &mut members, window)?;
    Ok(runs.pop().expect("one run per member"))
}

/// Run a snapshot stream once for a cohort of members; returns each
/// member's result and stream statistics, in member order.
///
/// Per snapshot every member (1) repartitions with its policy's
/// *current* partitioner, or keeps its previous distribution when the
/// hierarchy is unchanged, `reuse_unchanged` is set and no switch is
/// pending; (2) gets the step's metrics against its carried
/// predecessor; (3) feeds them to [`PartitionPolicy::observe`]. A
/// returned [`PolicySwitch`] forces the member's next snapshot to
/// repartition — even an unchanged one — so the switch materializes;
/// that step's migration volume against the old distribution is the
/// switch's charged cost, recorded as a [`SwitchEvent`] in the member's
/// [`StreamStats`]. A switch requested on the final snapshot never takes
/// effect and is charged nothing.
///
/// Repartitioning members share work: a partitioner that
/// [selects](samr_partition::Partitioner::select) a configuration has
/// that configuration's partition computed once per snapshot for every
/// member selecting it. A partitioner that names none is invoked for
/// each member that repartitions with it, as when the member runs
/// alone. Each member's result is bit for bit what running it alone
/// returns. Peak residency, the one statistic a member's own window
/// decides, is the cohort's.
///
/// The window-parallel pre-partitioning path only applies when every
/// member's policy is static (`window > 1` with a switching policy
/// would pre-partition with a stale partitioner); otherwise the cohort
/// runs the strictly sequential regime regardless of `window`.
///
/// # Panics
///
/// If `members` is empty, or two members' configurations differ in
/// anything but the machine.
pub fn simulate_cohort<const D: usize>(
    source: &mut (dyn SnapshotSource<D> + '_),
    members: &mut [CohortMember<'_, D>],
    window: usize,
) -> Result<Vec<(SimResult, StreamStats)>, TraceIoError> {
    let cfg = members.first().expect("a cohort has members").cfg;
    assert!(
        members.iter().all(|m| SimConfig {
            machine: cfg.machine,
            ..m.cfg
        } == cfg),
        "members of one cohort may differ only in the machine"
    );
    let window = window.max(1);
    let batch = if members.iter().all(|m| m.policy.is_static()) {
        window
    } else {
        1
    };
    let capacity = source.len_hint().unwrap_or(0);
    let mut runs: Vec<Run<D>> = members
        .iter()
        .map(|m| Run::new(m.cfg.nprocs, capacity))
        .collect();
    let mut carry: Option<Snapshot<D>> = None;
    let mut peak_resident = 0usize;
    let mut consumed = 0usize;
    // The metric walks' buffers, reused across every snapshot of the
    // stream: the per-step accounting is allocation-free at steady state.
    let mut mscratch = MetricScratch::<D>::default();
    let no_migration = vec![0u64; cfg.nprocs];
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
        for start in (0..buf.len()).step_by(batch) {
            let end = (start + batch).min(buf.len());
            let prev_h = |i: usize| {
                if i == 0 {
                    carry.as_ref().map(|s| &s.hierarchy)
                } else {
                    Some(&buf[i - 1].hierarchy)
                }
            };
            // Plan the batch in step order, then compute every distinct
            // fresh partition it needs — in parallel (see the module
            // docs) — before any member observes.
            let (plans, parts) = {
                let members = &*members;
                let plans: Vec<Plan<'_, D>> = (start..end)
                    .map(|i| {
                        let same_h = prev_h(i).is_some_and(|ph| *ph == buf[i].hierarchy);
                        plan_snapshot(members, &runs, &buf[i].hierarchy, same_h)
                    })
                    .collect();
                let tasks: Vec<(&GridHierarchy<D>, Origin<'_, D>)> = plans
                    .iter()
                    .zip(&buf[start..end])
                    .flat_map(|(plan, snap)| plan.fresh.iter().map(|o| (&snap.hierarchy, *o)))
                    .collect();
                let parts: Vec<Partition<D>> = tasks
                    .par_iter()
                    .map(|(h, origin)| origin.partition(h, cfg.nprocs))
                    .collect();
                // Keep each plan's sources and fresh count only: the
                // origins borrow the members, which the fold mutates.
                let plans: Vec<(Vec<Source>, usize)> = plans
                    .into_iter()
                    .map(|plan| (plan.sources, plan.fresh.len()))
                    .collect();
                (plans, parts)
            };
            let mut parts = parts.into_iter();
            for (i, (sources, fresh)) in (start..end).zip(plans) {
                let fresh = parts.by_ref().take(fresh).collect();
                fold_snapshot(
                    members,
                    &mut runs,
                    &buf[i],
                    prev_h(i),
                    &sources,
                    fresh,
                    &no_migration,
                    &mut mscratch,
                );
            }
        }
        // Carry the window's last snapshot; everything else is dropped
        // here, which is what keeps residency O(window).
        carry = buf.pop();
    }
    if consumed == 0 {
        return Err(TraceIoError::Format(
            "cannot simulate an empty snapshot stream".into(),
        ));
    }
    Ok(members
        .iter()
        .zip(runs)
        .map(|(member, mut run)| {
            run.result.partitioner = member.policy.name();
            let stats = StreamStats {
                peak_resident,
                snapshots: consumed,
                switch_events: run.switch_events,
            };
            (run.result, stats)
        })
        .collect())
}

/// One member's state across the stream.
struct Run<const D: usize> {
    result: SimResult,
    /// A switch the policy requested on the previous snapshot, waiting
    /// to materialize (and be charged) on the next repartitioning.
    pending: Option<PolicySwitch>,
    switch_events: Vec<SwitchEvent>,
    /// The member's distribution of the previous snapshot.
    held: Option<Rc<Distribution<D>>>,
}

impl<const D: usize> Run<D> {
    fn new(nprocs: usize, capacity: usize) -> Self {
        Self {
            result: SimResult {
                partitioner: String::new(),
                nprocs,
                steps: Vec::with_capacity(capacity),
                total_time: 0.0,
            },
            pending: None,
            switch_events: Vec::new(),
            held: None,
        }
    }
}

/// One distribution of a snapshot, with the accounting every member
/// holding it shares.
struct Distribution<const D: usize> {
    part: Partition<D>,
    accounted: Accounted,
}

/// Where a repartitioning member's partition comes from: a
/// configuration, shared by every member selecting it on the snapshot,
/// or the member's own partitioner when it names none.
#[derive(Clone, Copy)]
enum Origin<'p, const D: usize> {
    Choice(PartitionerChoice),
    Partitioner(&'p (dyn Partitioner<D> + Sync)),
}

impl<const D: usize> Origin<'_, D> {
    fn partition(&self, h: &GridHierarchy<D>, nprocs: usize) -> Partition<D> {
        match self {
            Self::Choice(c) => c.partition(h, nprocs),
            Self::Partitioner(p) => p.partition(h, nprocs),
        }
    }
}

/// How one member obtains a snapshot's distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Source {
    /// Keep its previous distribution, at no cost.
    Reuse,
    /// The snapshot's k-th fresh partition, with the member's cost
    /// estimate when its selection already gave it.
    Fresh(usize, Option<f64>),
}

/// How every member obtains one snapshot's distribution.
struct Plan<'p, const D: usize> {
    /// One source per member.
    sources: Vec<Source>,
    /// The distinct partitions the snapshot needs computed.
    fresh: Vec<Origin<'p, D>>,
}

/// Decide, in member order, how each member obtains the distribution
/// of `h`. With `same_h` (the hierarchy equals its predecessor's) and
/// `reuse_unchanged` on, members without a pending switch keep theirs.
/// Every other member selects: each distinct configuration selected is
/// one fresh partition of the snapshot, and so is each member whose
/// partitioner names none. A configuration's cost is estimated right
/// after its selection, when a selector's estimate describes that
/// selection.
fn plan_snapshot<'p, const D: usize>(
    members: &'p [CohortMember<'_, D>],
    runs: &[Run<D>],
    h: &GridHierarchy<D>,
    same_h: bool,
) -> Plan<'p, D> {
    let cfg = &members[0].cfg;
    let mut fresh: Vec<Origin<'p, D>> = Vec::new();
    let sources = members
        .iter()
        .zip(runs)
        .map(|(member, run)| {
            // A pending switch suppresses the unchanged-hierarchy skip:
            // the new partitioner must actually produce (and pay for) a
            // distribution before any reuse may resume.
            if same_h && cfg.reuse_unchanged && run.pending.is_none() {
                return Source::Reuse;
            }
            let p = member.policy.current();
            let Some(choice) = p.select(h, cfg.nprocs) else {
                fresh.push(Origin::Partitioner(p));
                return Source::Fresh(fresh.len() - 1, None);
            };
            let cost = p.cost_estimate(h);
            let k = fresh
                .iter()
                .position(|o| matches!(o, Origin::Choice(c) if *c == choice))
                .unwrap_or_else(|| {
                    fresh.push(Origin::Choice(choice));
                    fresh.len() - 1
                });
            Source::Fresh(k, Some(cost))
        })
        .collect();
    Plan { sources, fresh }
}

/// Fold one snapshot into every member's run: account each fresh
/// partition once and each distinct (previous, current) pair of
/// distributions once, then price, record and observe the step per
/// member.
#[allow(clippy::too_many_arguments)]
fn fold_snapshot<const D: usize>(
    members: &mut [CohortMember<'_, D>],
    runs: &mut [Run<D>],
    snap: &Snapshot<D>,
    prev_h: Option<&GridHierarchy<D>>,
    sources: &[Source],
    fresh: Vec<Partition<D>>,
    no_migration: &[u64],
    scratch: &mut MetricScratch<D>,
) {
    let h = &snap.hierarchy;
    let cfg = members[0].cfg;
    let fresh: Vec<Rc<Distribution<D>>> = fresh
        .into_iter()
        .map(|part| {
            let accounted = Accounted::new(h, &part, cfg.ghost_width, scratch);
            Rc::new(Distribution { part, accounted })
        })
        .collect();
    // Migration per distinct (previous, current) pair: the cells and the
    // per-processor outbound volumes. The pairs keep the previous
    // snapshot's distributions alive until the snapshot is folded; the
    // ones no member holds any more go then.
    type Moved<const D: usize> = (Rc<Distribution<D>>, Rc<Distribution<D>>, u64, Vec<u64>);
    let mut pairs: Vec<Moved<D>> = Vec::new();
    for ((member, run), source) in members.iter_mut().zip(runs).zip(sources) {
        let previous = run.held.take();
        let (cur, cost) = match *source {
            Source::Reuse => (
                Rc::clone(previous.as_ref().expect("a reused step has a predecessor")),
                0.0,
            ),
            Source::Fresh(j, cost) => (
                Rc::clone(&fresh[j]),
                cost.unwrap_or_else(|| member.policy.current().cost_estimate(h)),
            ),
        };
        let machine = &member.cfg.machine;
        let m = match (&previous, prev_h) {
            // A kept distribution moves nothing.
            (Some(prev), Some(ph)) if Rc::ptr_eq(prev, &cur) => {
                cur.accounted
                    .metrics(snap.step, h, Some((ph, 0)), no_migration, machine, cost)
            }
            (Some(prev), Some(ph)) => {
                let j = pairs
                    .iter()
                    .position(|(a, b, ..)| Rc::ptr_eq(a, prev) && Rc::ptr_eq(b, &cur))
                    .unwrap_or_else(|| {
                        let cells =
                            migration_accounting(ph, &prev.part, h, &cur.part, cfg.nprocs, scratch);
                        let out = scratch.per_proc_mig().to_vec();
                        pairs.push((Rc::clone(prev), Rc::clone(&cur), cells, out));
                        pairs.len() - 1
                    });
                let (_, _, cells, out) = &pairs[j];
                cur.accounted
                    .metrics(snap.step, h, Some((ph, *cells)), out, machine, cost)
            }
            _ => cur
                .accounted
                .metrics(snap.step, h, None, no_migration, machine, cost),
        };
        if let Some(sw) = run.pending.take() {
            run.switch_events.push(SwitchEvent {
                step: snap.step,
                from: sw.from,
                to: sw.to,
                migration_cells: m.migration_cells,
                partition_cost: cost,
            });
        }
        if let Some(sw) = member.policy.observe(&m) {
            run.pending = Some(sw);
        }
        run.result.total_time += m.step_time;
        run.result.steps.push(m);
        run.held = Some(cur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StaticPolicy;
    use crate::MachineModel;
    use samr_geom::{AABox, Box3, Rect2};
    use samr_partition::{DomainSfcPartitioner, HybridPartitioner, PatchPartitioner};
    use samr_trace::{HierarchyTrace, MemorySource, TraceMeta};
    use std::sync::Mutex;

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

    /// A policy that switches from `a` to `b` once it sees a given step,
    /// for driving the switch-charging machinery.
    struct FlipAfter<'a, const D: usize> {
        at: u32,
        flipped: bool,
        a: &'a (dyn Partitioner<D> + Sync),
        b: &'a (dyn Partitioner<D> + Sync),
    }

    impl<'a, const D: usize> FlipAfter<'a, D> {
        fn new(
            at: u32,
            a: &'a (dyn Partitioner<D> + Sync),
            b: &'a (dyn Partitioner<D> + Sync),
        ) -> Self {
            Self {
                at,
                flipped: false,
                a,
                b,
            }
        }
    }

    impl<const D: usize> PartitionPolicy<D> for FlipAfter<'_, D> {
        fn name(&self) -> String {
            "flip".into()
        }
        fn current(&self) -> &(dyn Partitioner<D> + Sync) {
            if self.flipped {
                self.b
            } else {
                self.a
            }
        }
        fn observe(&mut self, m: &crate::StepMetrics) -> Option<PolicySwitch> {
            if !self.flipped && m.step == self.at {
                self.flipped = true;
                Some(PolicySwitch {
                    from: self.a.name(),
                    to: self.b.name(),
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
        let (d, hy) = (
            DomainSfcPartitioner::default(),
            HybridPartitioner::default(),
        );
        let (static_run, _) = run(&t, &d, &cfg, 1).unwrap();
        assert_eq!(static_run.steps[4].partition_cost, 0.0, "plateau reuses");
        let mut policy = FlipAfter::new(3, &d, &hy);
        let (res, stats) =
            simulate_policy_source_stats(&mut MemorySource::new(&t), &mut policy, &cfg, 1).unwrap();
        assert_eq!(res.partitioner, "flip");
        assert_eq!(stats.switches(), 1);
        let ev = &stats.switch_events[0];
        assert_eq!(ev.step, 4);
        assert_eq!(
            (ev.from.clone(), ev.to.clone()),
            (Partitioner::<2>::name(&d), Partitioner::<2>::name(&hy))
        );
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
        let (d, hy) = (
            DomainSfcPartitioner::default(),
            HybridPartitioner::default(),
        );
        let mut p1 = FlipAfter::new(3, &d, &hy);
        let (base, base_stats) =
            simulate_policy_source_stats(&mut MemorySource::new(&t), &mut p1, &cfg, 1).unwrap();
        for window in [2usize, 3, 5, 64] {
            let mut p = FlipAfter::new(3, &d, &hy);
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
        let (d, hy) = (
            DomainSfcPartitioner::default(),
            HybridPartitioner::default(),
        );
        let mut policy = FlipAfter::new(4, &d, &hy);
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

    /// Policies with the configuration each runs under: one cohort.
    type Cohort<'a, const D: usize> = Vec<(Box<dyn PartitionPolicy<D> + 'a>, SimConfig)>;

    /// Run the cohort `make()` builds at `window` and assert that each
    /// member's result and switch events equal that member's run alone,
    /// bit for bit. Returns the cohort's per-member statistics.
    fn assert_cohort_matches<'a, const D: usize>(
        t: &HierarchyTrace<D>,
        make: impl Fn() -> Cohort<'a, D>,
        window: usize,
        label: &str,
    ) -> Vec<StreamStats> {
        let mut cohort = make();
        let mut members: Vec<CohortMember<'_, D>> = cohort
            .iter_mut()
            .map(|(policy, cfg)| CohortMember {
                policy: policy.as_mut(),
                cfg: *cfg,
            })
            .collect();
        let runs = simulate_cohort(&mut MemorySource::new(t), &mut members, window).unwrap();
        assert_eq!(runs.len(), cohort.len(), "{label}");
        for (k, (res, stats)) in runs.iter().enumerate() {
            let (mut policy, cfg) = make().swap_remove(k);
            let (alone, alone_stats) = simulate_policy_source_stats(
                &mut MemorySource::new(t),
                policy.as_mut(),
                &cfg,
                window,
            )
            .unwrap();
            assert_eq!(*res, alone, "{label}: member {k}");
            assert_eq!(
                stats.switch_events, alone_stats.switch_events,
                "{label}: member {k}"
            );
            assert_eq!(stats.snapshots, t.len(), "{label}");
        }
        runs.into_iter().map(|(_, stats)| stats).collect()
    }

    fn statics<const D: usize>() -> [Box<dyn Partitioner<D> + Sync>; 3] {
        [
            Box::new(DomainSfcPartitioner::default()),
            Box::new(PatchPartitioner::default()),
            Box::new(HybridPartitioner::default()),
        ]
    }

    /// Every static partitioner on every registry machine and, unless
    /// `statics_only`, two switching members per switch: domain-SFC →
    /// hybrid at step 3 (onto the plateau) and hybrid → patch at step 6,
    /// each on two machines.
    fn mixed_cohort<'a, const D: usize>(
        ps: &'a [Box<dyn Partitioner<D> + Sync>; 3],
        statics_only: bool,
    ) -> Cohort<'a, D> {
        let cfgs = machine_configs();
        let mut cohort: Cohort<'a, D> = Vec::new();
        for p in ps {
            for cfg in &cfgs {
                cohort.push((Box::new(StaticPolicy::new(p.as_ref())), *cfg));
            }
        }
        if !statics_only {
            let [domain, patch, hybrid] = ps;
            for cfg in &cfgs[..2] {
                let flip = FlipAfter::new(3, domain.as_ref(), hybrid.as_ref());
                cohort.push((Box::new(flip), *cfg));
                let flip = FlipAfter::new(6, hybrid.as_ref(), patch.as_ref());
                cohort.push((Box::new(flip), *cfg));
            }
        }
        cohort
    }

    #[test]
    fn a_cohort_equals_each_member_run_alone() {
        let (ps2, ps3) = (statics::<2>(), statics::<3>());
        for window in [1, 3, default_window()] {
            for statics_only in [true, false] {
                let label = format!("2-D window {window} statics only {statics_only}");
                let stats = assert_cohort_matches(
                    &trace(11),
                    || mixed_cohort(&ps2, statics_only),
                    window,
                    &label,
                );
                let switched: Vec<usize> = stats.iter().map(StreamStats::switches).collect();
                let flips = if statics_only { 0 } else { 4 };
                assert_eq!(switched.iter().sum::<usize>(), flips, "{label}");
                if !statics_only {
                    // The first flip lands on the plateau: step 4 is
                    // force-repartitioned on both machines.
                    assert_eq!(stats[12].switch_events[0].step, 4, "{label}");
                    assert_eq!(stats[12].switch_events, stats[14].switch_events, "{label}");
                }
                let label = format!("3-D window {window} statics only {statics_only}");
                assert_cohort_matches(
                    &trace_3d(11),
                    || mixed_cohort(&ps3, statics_only),
                    window,
                    &label,
                );
            }
        }
    }

    /// A partitioner that records the hierarchy of every invocation.
    /// Unless `names` is set it names no configuration, so a cohort must
    /// invoke it itself.
    struct Counting<P> {
        inner: P,
        names: bool,
        calls: Mutex<Vec<GridHierarchy<2>>>,
    }

    impl<P> Counting<P> {
        fn new(inner: P, names: bool) -> Self {
            Self {
                inner,
                names,
                calls: Mutex::new(Vec::new()),
            }
        }

        fn take(&self) -> Vec<GridHierarchy<2>> {
            std::mem::take(&mut *self.calls.lock().unwrap())
        }
    }

    impl<P: Partitioner<2>> Partitioner<2> for Counting<P> {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn partition(&self, h: &GridHierarchy<2>, nprocs: usize) -> Partition<2> {
            self.calls.lock().unwrap().push(h.clone());
            self.inner.partition(h, nprocs)
        }
        fn select(&self, h: &GridHierarchy<2>, nprocs: usize) -> Option<PartitionerChoice> {
            self.inner.select(h, nprocs).filter(|_| self.names)
        }
        fn cost_estimate(&self, h: &GridHierarchy<2>) -> f64 {
            self.inner.cost_estimate(h)
        }
    }

    #[test]
    fn a_snapshot_is_partitioned_once_per_selected_configuration() {
        // Each static family on every registry machine, plus two members
        // sharing one partitioner that names no configuration.
        let ps = statics::<2>();
        let unnamed = Counting::new(HybridPartitioner::default(), false);
        let cfgs = machine_configs();
        let n = cfgs.len();
        let mut cohort = mixed_cohort(&ps, true);
        for cfg in &cfgs[..2] {
            cohort.push((Box::new(StaticPolicy::new(&unnamed)), *cfg));
        }
        let members: Vec<CohortMember<'_, 2>> = cohort
            .iter_mut()
            .map(|(policy, cfg)| CohortMember {
                policy: policy.as_mut(),
                cfg: *cfg,
            })
            .collect();
        let mut runs: Vec<Run<2>> = members.iter().map(|m| Run::new(m.cfg.nprocs, 0)).collect();
        let t = trace(1);
        let h = &t.snapshots[0].hierarchy;
        // One fresh partition per family, whatever the machine, then one
        // per member whose partitioner names no configuration.
        let plan = plan_snapshot(&members, &runs, h, false);
        assert_eq!(plan.fresh.len(), 3 + 2);
        for (k, p) in ps.iter().enumerate() {
            let choice = p.select(h, 5).expect("static families name themselves");
            assert!(matches!(plan.fresh[k], Origin::Choice(c) if c == choice));
            let cost = p.cost_estimate(h);
            assert!(plan.sources[k * n..(k + 1) * n]
                .iter()
                .all(|s| *s == Source::Fresh(k, Some(cost))));
        }
        assert!(matches!(
            plan.fresh[3..],
            [Origin::Partitioner(_), Origin::Partitioner(_)]
        ));
        assert_eq!(
            plan.sources[3 * n..],
            [Source::Fresh(3, None), Source::Fresh(4, None)]
        );
        // On an unchanged hierarchy every member keeps its distribution
        // unless a switch is pending; then it alone needs a partition.
        let plan = plan_snapshot(&members, &runs, h, true);
        assert!(plan.fresh.is_empty());
        assert!(plan.sources.iter().all(|s| *s == Source::Reuse));
        runs[n].pending = Some(PolicySwitch {
            from: String::new(),
            to: String::new(),
        });
        let plan = plan_snapshot(&members, &runs, h, true);
        assert!(matches!(plan.fresh[..], [Origin::Choice(_)]));
        let cost = ps[1].cost_estimate(h);
        for (k, source) in plan.sources.iter().enumerate() {
            let expected = if k == n {
                Source::Fresh(0, Some(cost))
            } else {
                Source::Reuse
            };
            assert_eq!(*source, expected, "member {k}");
        }
        assert!(unnamed.take().is_empty(), "planning partitions nothing");
    }

    #[test]
    fn a_partitioner_naming_no_configuration_is_invoked_for_each_member() {
        // Three static members on one domain-SFC partitioner that names
        // no configuration, plus a member flipping from it to a hybrid
        // one at step 3: every member invokes its partitioner on each
        // snapshot it repartitions, in step order, as it would alone.
        let t = trace(11);
        let changed: Vec<&Snapshot<2>> = t
            .snapshots
            .iter()
            .enumerate()
            .filter(|(i, s)| *i == 0 || t.snapshots[i - 1].hierarchy != s.hierarchy)
            .map(|(_, s)| s)
            .collect();
        assert_eq!(changed.len(), 9, "steps 4 and 5 repeat step 3");
        // The flip repartitions the plateau's step 4, then the changed
        // snapshots from step 6 on.
        let flipped: Vec<&GridHierarchy<2>> = std::iter::once(&t.snapshots[4])
            .chain(changed[4..].iter().copied())
            .map(|s| &s.hierarchy)
            .collect();
        let a = Counting::new(DomainSfcPartitioner::default(), false);
        let b = Counting::new(HybridPartitioner::default(), false);
        let cfgs = machine_configs();
        for window in [1, 3, default_window()] {
            let make = |flip: bool| {
                let mut cohort: Cohort<'_, 2> = cfgs
                    .iter()
                    .map(|cfg| {
                        let policy: Box<dyn PartitionPolicy<2>> = Box::new(StaticPolicy::new(&a));
                        (policy, *cfg)
                    })
                    .collect();
                if flip {
                    cohort.push((Box::new(FlipAfter::new(3, &a, &b)), cfgs[1]));
                }
                cohort
            };
            for flip in [false, true] {
                let mut cohort = make(flip);
                let mut members: Vec<CohortMember<'_, 2>> = cohort
                    .iter_mut()
                    .map(|(policy, cfg)| CohortMember {
                        policy: policy.as_mut(),
                        cfg: *cfg,
                    })
                    .collect();
                simulate_cohort(&mut MemorySource::new(&t), &mut members, window).unwrap();
                let (a_calls, b_calls) = (a.take(), b.take());
                let label = format!("window {window} flip {flip}");
                // Every static member, and the flip member up to its flip.
                let expected_a: Vec<&GridHierarchy<2>> = changed
                    .iter()
                    .flat_map(|s| {
                        let users = cfgs.len() + usize::from(flip && s.step <= 3);
                        std::iter::repeat_n(&s.hierarchy, users)
                    })
                    .collect();
                if flip || window == 1 {
                    // Strictly sequential: each snapshot's calls before
                    // the next snapshot's.
                    assert!(a_calls.iter().eq(expected_a.iter().copied()), "{label}");
                } else {
                    // Window-parallel: the same calls, in any order.
                    assert_eq!(a_calls.len(), expected_a.len(), "{label}");
                }
                let expected_b: &[&GridHierarchy<2>] = if flip { &flipped } else { &[] };
                assert!(b_calls.iter().eq(expected_b.iter().copied()), "{label}");
            }
        }
        // A partitioner that names its configuration is never invoked:
        // the driver partitions the configuration, with the same result.
        let named = Counting::new(HybridPartitioner::default(), true);
        let cfg = cfgs[0];
        let (res, _) = run(&t, &named, &cfg, 1).unwrap();
        assert!(named.take().is_empty());
        let (direct, _) = run(&t, &HybridPartitioner::default(), &cfg, 1).unwrap();
        assert_eq!(res, direct);
    }

    #[test]
    #[should_panic(expected = "differ only in the machine")]
    fn members_differing_beyond_the_machine_are_refused() {
        let mut cfgs = machine_configs();
        cfgs[1].nprocs = 8;
        let p = HybridPartitioner::default();
        let (mut a, mut b) = (StaticPolicy::new(&p), StaticPolicy::new(&p));
        let mut members = [
            CohortMember {
                policy: &mut a,
                cfg: cfgs[0],
            },
            CohortMember {
                policy: &mut b,
                cfg: cfgs[1],
            },
        ];
        let _ = simulate_cohort(&mut MemorySource::new(&trace(4)), &mut members, 1);
    }

    #[test]
    fn default_window_is_autotuned_within_bounds() {
        let w = default_window();
        assert!((2..=64).contains(&w), "autotuned window {w} out of range");
    }

    #[test]
    fn default_window_does_not_depend_on_the_first_caller() {
        // Twice the pool width outside a worker, 2 inside one, whichever
        // of the two asks first.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let in_workers = || -> Vec<usize> { [0, 1].par_iter().map(|_| default_window()).collect() };
        pool.install(|| {
            assert_eq!(in_workers(), [2, 2], "worker first");
            assert_eq!(default_window(), 8);
            assert_eq!(in_workers(), [2, 2], "outside first");
        });
        let wide = rayon::ThreadPoolBuilder::new()
            .num_threads(100)
            .build()
            .unwrap();
        assert_eq!(wide.install(default_window), 64);
    }

    #[test]
    fn a_kept_distribution_moves_nothing() {
        // The plateau steps 4 and 5 keep step 3's distribution: they
        // report zero migration, as accounting it against itself did.
        let t = trace(11);
        let cfg = SimConfig {
            nprocs: 4,
            ..SimConfig::default()
        };
        let p = HybridPartitioner::default();
        let (res, _) = run(&t, &p, &cfg, 1).unwrap();
        let parts: Vec<Partition<2>> = t
            .snapshots
            .iter()
            .map(|s| p.partition(&s.hierarchy, cfg.nprocs))
            .collect();
        let mut scratch = MetricScratch::default();
        for i in [4, 5] {
            let (ph, h) = (&t.snapshots[i - 1].hierarchy, &t.snapshots[i].hierarchy);
            assert_eq!(ph, h, "step {i} is on the plateau");
            assert_eq!(res.steps[i].partition_cost, 0.0, "step {i} keeps");
            let moved =
                migration_accounting(ph, &parts[i - 1], h, &parts[i], cfg.nprocs, &mut scratch);
            assert_eq!((moved, res.steps[i].migration_cells), (0, 0));
            assert!(scratch.per_proc_mig().iter().all(|&c| c == 0));
        }
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
