//! Simulation configuration, results and the per-step metrics of one
//! distribution.

use crate::comm::{comm_accounting, CommAccounting};
use crate::exec::MachineModel;
use crate::index::MetricScratch;
use crate::metrics::StepMetrics;
use samr_grid::GridHierarchy;
use samr_partition::Partition;
use serde::{Deserialize, Serialize};

/// Simulation configuration.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of processors to distribute over.
    pub nprocs: usize,
    /// Ghost-cell width of the numerical scheme.
    pub ghost_width: i64,
    /// Machine cost model for execution-time estimates.
    pub machine: MachineModel,
    /// Reuse the previous distribution when the hierarchy did not change
    /// between steps (no repartitioning cost, no migration). The paper's
    /// set-up redistributes at every regrid; steps without a regrid keep
    /// the data in place.
    pub reuse_unchanged: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            nprocs: 16,
            ghost_width: 1,
            machine: MachineModel::default(),
            reuse_unchanged: true,
        }
    }
}

/// The outcome of simulating a trace under one partitioner.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SimResult {
    /// Partitioner name (with configuration).
    pub partitioner: String,
    /// Processor count.
    pub nprocs: usize,
    /// Per-step metrics.
    pub steps: Vec<StepMetrics>,
    /// Total estimated execution time (machine-model units).
    pub total_time: f64,
}

/// The part of a step's metrics that depends only on the snapshot and
/// one distribution of it: one communication walk, the per-processor
/// loads and volumes, the load imbalance and the fragment count. Every
/// run that holds the same distribution of a snapshot shares it.
pub(crate) struct Accounted {
    comm: CommAccounting,
    vols: Vec<u64>,
    loads: Vec<u64>,
    load_imbalance: f64,
    fragments: usize,
}

impl Accounted {
    /// Account `part`, a distribution of `h`, with ghost width `ghost`.
    pub(crate) fn new<const D: usize>(
        h: &GridHierarchy<D>,
        part: &Partition<D>,
        ghost: i64,
        scratch: &mut MetricScratch<D>,
    ) -> Self {
        let comm = comm_accounting(h, part, ghost, scratch);
        Self {
            comm,
            vols: scratch.per_proc_vols().to_vec(),
            loads: part.loads(h.ratio),
            load_imbalance: part.load_imbalance(h.ratio),
            fragments: part.fragment_count(),
        }
    }

    /// The metrics of one run's step on `h` with this distribution:
    /// `migration` is the previous hierarchy and the grid points whose
    /// owner changed since it (`None` on the first step), `migration_out`
    /// the points leaving each processor, `partition_cost` zero on steps
    /// that reused the previous distribution.
    pub(crate) fn metrics<const D: usize>(
        &self,
        step: u32,
        h: &GridHierarchy<D>,
        migration: Option<(&GridHierarchy<D>, u64)>,
        migration_out: &[u64],
        machine: &MachineModel,
        partition_cost: f64,
    ) -> StepMetrics {
        let workload = h.workload();
        let (migration_cells, rel_migration) = match migration {
            Some((ph, m)) => (m, m as f64 / ph.total_points().max(1) as f64),
            None => (0, 0.0),
        };
        StepMetrics {
            step,
            total_points: h.total_points(),
            workload,
            load_imbalance: self.load_imbalance,
            comm_cells: self.comm.transfer_volume(),
            // The §4.1 grid-relative metric counts *involved points*, not
            // directed transfers; `comm_cells` keeps the transfer volume
            // for the time model.
            rel_comm: self.comm.involved_points() as f64 / workload.max(1) as f64,
            migration_cells,
            rel_migration,
            partition_cost,
            fragments: self.fragments,
            step_time: machine.step_time(&self.loads, &self.vols, migration_out, partition_cost),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::migration_accounting;
    use crate::policy::StaticPolicy;
    use crate::stream::{default_window, simulate_policy_source_stats};
    use samr_geom::Rect2;
    use samr_partition::{DomainSfcPartitioner, HybridPartitioner, Partitioner, PatchPartitioner};
    use samr_trace::{HierarchyTrace, MemorySource, Snapshot, TraceMeta};

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect2 {
        Rect2::from_coords(x0, y0, x1, y1)
    }

    /// Run a whole trace through one partitioner on the windowed driver.
    fn simulate(
        trace: &HierarchyTrace<2>,
        p: &(dyn Partitioner<2> + Sync),
        cfg: &SimConfig,
    ) -> SimResult {
        let source = &mut MemorySource::new(trace);
        simulate_policy_source_stats(source, &mut StaticPolicy::new(p), cfg, default_window())
            .unwrap()
            .0
    }

    /// A synthetic trace: a refined box sweeping across the domain.
    fn moving_trace(steps: u32) -> HierarchyTrace<2> {
        let meta = TraceMeta {
            app: "SYN".into(),
            description: "moving refinement".into(),
            base_domain: Rect2::from_extents(32, 32),
            ratio: 2,
            max_levels: 3,
            regrid_interval: 4,
            min_block: 2,
            seed: 0,
        };
        let mut t = HierarchyTrace::new(meta);
        for i in 0..steps {
            let off = (i as i64 * 2) % 30;
            let l1 = r(off * 2, 16, off * 2 + 15, 31);
            let l2 = l1.refine(2).shrink(4).unwrap();
            t.push(Snapshot {
                step: i,
                time: i as f64,
                hierarchy: GridHierarchy::from_level_rects(
                    Rect2::from_extents(32, 32),
                    2,
                    &[vec![], vec![l1], vec![l2]],
                ),
            });
        }
        t
    }

    /// A static trace: the same hierarchy at every step.
    fn static_trace(steps: u32) -> HierarchyTrace<2> {
        let meta = TraceMeta {
            app: "SYN".into(),
            description: "static refinement".into(),
            base_domain: Rect2::from_extents(32, 32),
            ratio: 2,
            max_levels: 2,
            regrid_interval: 4,
            min_block: 2,
            seed: 0,
        };
        let mut t = HierarchyTrace::new(meta);
        for i in 0..steps {
            t.push(Snapshot {
                step: i,
                time: i as f64,
                hierarchy: GridHierarchy::from_level_rects(
                    Rect2::from_extents(32, 32),
                    2,
                    &[vec![], vec![r(16, 16, 47, 47)]],
                ),
            });
        }
        t
    }

    #[test]
    fn static_trace_reuses_partition_no_migration() {
        let trace = static_trace(6);
        let cfg = SimConfig {
            nprocs: 4,
            ..SimConfig::default()
        };
        let res = simulate(&trace, &DomainSfcPartitioner::default(), &cfg);
        assert_eq!(res.steps.len(), 6);
        for s in &res.steps[1..] {
            assert_eq!(s.migration_cells, 0, "step {}", s.step);
            assert_eq!(s.partition_cost, 0.0);
        }
        // Step 0 pays the initial partitioning.
        assert!(res.steps[0].partition_cost > 0.0);
    }

    #[test]
    fn moving_trace_migrates() {
        let trace = moving_trace(8);
        let cfg = SimConfig {
            nprocs: 4,
            ..SimConfig::default()
        };
        let res = simulate(&trace, &DomainSfcPartitioner::default(), &cfg);
        let total_mig: u64 = res.steps.iter().map(|s| s.migration_cells).sum();
        assert!(total_mig > 0, "a moving feature must migrate data");
        // Relative metrics are sane.
        for s in &res.steps {
            assert!(s.rel_migration >= 0.0 && s.rel_migration <= 1.5);
            assert!(s.rel_comm >= 0.0);
            assert!(s.load_imbalance >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = moving_trace(6);
        let cfg = SimConfig {
            nprocs: 5,
            ..SimConfig::default()
        };
        let a = simulate(&trace, &HybridPartitioner::default(), &cfg);
        let b = simulate(&trace, &HybridPartitioner::default(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn domain_based_has_no_inter_level_comm() {
        let trace = moving_trace(3);
        let p = DomainSfcPartitioner::default();
        let mut scratch = MetricScratch::default();
        for snap in &trace.snapshots {
            let part = p.partition(&snap.hierarchy, 4);
            let acc = comm_accounting(&snap.hierarchy, &part, 1, &mut scratch);
            assert_eq!(acc.inter, 0);
        }
    }

    #[test]
    fn patch_based_pays_inter_level_comm() {
        let trace = moving_trace(3);
        let p = PatchPartitioner::default();
        let mut scratch = MetricScratch::default();
        let mut any = 0u64;
        for snap in &trace.snapshots {
            let part = p.partition(&snap.hierarchy, 4);
            any += comm_accounting(&snap.hierarchy, &part, 1, &mut scratch).inter;
        }
        assert!(any > 0, "patch-based should split parents from children");
    }

    #[test]
    fn single_proc_trivial_metrics() {
        let trace = moving_trace(4);
        let cfg = SimConfig {
            nprocs: 1,
            ..SimConfig::default()
        };
        let res = simulate(&trace, &PatchPartitioner::default(), &cfg);
        for s in &res.steps {
            assert_eq!(s.comm_cells, 0);
            assert_eq!(s.migration_cells, 0);
            assert!((s.load_imbalance - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn metric_scratch_reuse_is_identical() {
        // One dirty scratch across a whole trace gives exactly the
        // fresh-scratch metrics at every step.
        let trace = moving_trace(6);
        let cfg = SimConfig {
            nprocs: 4,
            ..SimConfig::default()
        };
        let no_migration = vec![0; cfg.nprocs];
        let metrics = |h: &GridHierarchy<2>,
                       part: &Partition<2>,
                       prev: Option<&(GridHierarchy<2>, Partition<2>)>,
                       scratch: &mut MetricScratch<2>| {
            let accounted = Accounted::new(h, part, cfg.ghost_width, scratch);
            let migration = prev.map(|(ph, pp)| {
                (
                    ph,
                    migration_accounting(ph, pp, h, part, cfg.nprocs, scratch),
                )
            });
            let out = match migration {
                Some(_) => scratch.per_proc_mig(),
                None => &no_migration,
            };
            accounted.metrics(0, h, migration, out, &cfg.machine, 1.0)
        };
        let p = HybridPartitioner::default();
        let mut scratch = MetricScratch::default();
        let mut prev: Option<(GridHierarchy<2>, Partition<2>)> = None;
        for snap in &trace.snapshots {
            let h = &snap.hierarchy;
            let part = p.partition(h, cfg.nprocs);
            let fresh = metrics(h, &part, prev.as_ref(), &mut MetricScratch::default());
            let reused = metrics(h, &part, prev.as_ref(), &mut scratch);
            assert_eq!(fresh, reused, "step {}", snap.step);
            prev = Some((h.clone(), part));
        }
    }

    #[test]
    fn step_time_accumulates() {
        let trace = moving_trace(5);
        let cfg = SimConfig {
            nprocs: 4,
            ..SimConfig::default()
        };
        let res = simulate(&trace, &HybridPartitioner::default(), &cfg);
        let sum: f64 = res.steps.iter().map(|s| s.step_time).sum();
        assert!((res.total_time - sum).abs() < 1e-9);
        assert!(res.total_time > 0.0);
    }
}
