//! One fully described pipeline run and its measured outcome.

use crate::policy::PolicySpec;
use crate::spec::PartitionerSpec;
use crate::store::{cached_model, cached_source, cached_trace};
use crate::validation::ShapeStats;
use samr_apps::{AppKind, TraceGenConfig};
use samr_core::ModelState;
use samr_partition::PartitionerChoice;
use samr_sim::{simulate_cohort, CohortMember, PartitionPolicy, SimConfig, SimResult, StreamStats};
use samr_trace::io::TraceIoError;
use samr_trace::{shared_source, AnySnapshotSource, SnapshotSource};
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// A statically described experiment: everything needed to reproduce one
/// trace → model → partition → simulate run. Serializable, so scenarios
/// can be stored next to their artifacts and re-run from the description
/// alone.
///
/// Serde is hand-written so the `policy` field is omitted when it is
/// the default [`PolicySpec::Static`] (and tolerated when missing):
/// static scenarios' JSON artifacts stay byte-identical to the
/// pre-policy era, and pre-policy artifacts still parse.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Which application kernel produces the trace.
    pub app: AppKind,
    /// Spatial dimension of the scenario's index space (derived from the
    /// application; recorded explicitly so artifacts are self-describing
    /// and mixed-dimension campaigns are visible at a glance).
    pub dim: usize,
    /// Trace-generation configuration (steps, levels, clustering, seed).
    pub trace: TraceGenConfig,
    /// Which partitioner to run.
    pub partitioner: PartitionerSpec,
    /// How the partitioner is driven over time (static, or adaptive
    /// repartitioning that may switch mid-run).
    pub policy: PolicySpec,
    /// Simulation configuration (processor count, ghost width, machine).
    pub sim: SimConfig,
}

impl Serialize for Scenario {
    fn serialize(&self) -> Value {
        let mut entries = vec![
            ("app".to_string(), self.app.serialize()),
            ("dim".to_string(), self.dim.serialize()),
            ("trace".to_string(), self.trace.serialize()),
            ("partitioner".to_string(), self.partitioner.serialize()),
        ];
        if self.policy != PolicySpec::Static {
            entries.push(("policy".to_string(), self.policy.serialize()));
        }
        entries.push(("sim".to_string(), self.sim.serialize()));
        Value::Map(entries)
    }
}

impl Deserialize for Scenario {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            app: serde::field(v, "app")?,
            dim: serde::field(v, "dim")?,
            trace: serde::field(v, "trace")?,
            partitioner: serde::field(v, "partitioner")?,
            policy: match v.get("policy") {
                Some(p) => Deserialize::deserialize(p)
                    .map_err(|e| serde::Error::msg(format!("field `policy`: {e}")))?,
                None => PolicySpec::Static,
            },
            sim: serde::field(v, "sim")?,
        })
    }
}

impl Scenario {
    /// Build a scenario, deriving the dimension from the application.
    pub fn new(
        app: AppKind,
        trace: TraceGenConfig,
        partitioner: PartitionerSpec,
        sim: SimConfig,
    ) -> Self {
        Self {
            app,
            dim: app.dim(),
            trace,
            partitioner,
            policy: PolicySpec::Static,
            sim,
        }
    }

    /// The scenario with its repartitioning policy replaced.
    pub fn with_policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// The machine tag of the scenario's slug: empty for the default
    /// (`uniform`) machine so historical artifact paths stay stable, the
    /// preset name for every other registry machine, `custom` otherwise.
    pub fn machine_name(&self) -> &'static str {
        self.sim.machine.preset_name().unwrap_or("custom")
    }

    /// Stable slug identifying the scenario inside its campaign, used
    /// for artifact file names: `bl2d_hybrid_p16_g1`. Non-default
    /// machines append `_m<machine>`, 3-D scenarios `_d3`, non-static
    /// policies `_a<preset>` (e.g. `_abalance`); default-machine 2-D
    /// static-policy slugs are unchanged from the 2-D-only era, so
    /// existing artifact paths stay stable.
    pub fn slug(&self) -> String {
        let machine_suffix = if self.sim.machine == samr_sim::MachineModel::default() {
            String::new()
        } else {
            format!("_m{}", self.machine_name())
        };
        let dim_suffix = if self.dim == 3 { "_d3" } else { "" };
        format!(
            "{}_{}_p{}_g{}{}{}{}",
            self.app.name().to_lowercase(),
            self.partitioner.slug(),
            self.sim.nprocs,
            self.sim.ghost_width,
            machine_suffix,
            dim_suffix,
            self.policy.slug_suffix(),
        )
    }

    /// The configuration of a scenario that can never switch: a static
    /// partitioner under the static policy. `None` for every scenario
    /// that can switch — adaptive policies, `meta` and `octant-meta`.
    pub fn static_choice(&self) -> Option<PartitionerChoice> {
        match (self.partitioner, self.policy) {
            (PartitionerSpec::Static(choice), PolicySpec::Static) => Some(choice),
            _ => None,
        }
    }

    /// `true` when both scenarios run in one cohort
    /// ([`Scenario::run_cohort`]): the same snapshot stream (application
    /// and trace configuration), processor count, ghost width and reuse
    /// flag, and the same [static choice](Scenario::static_choice).
    /// Scenarios that never switch therefore share a cohort only across
    /// machines; every scenario that can switch on one stream shares the
    /// stream's one switching cohort.
    pub fn same_cohort(&self, other: &Scenario) -> bool {
        self.app == other.app
            && self.dim == other.dim
            && self.trace == other.trace
            && self.sim.nprocs == other.sim.nprocs
            && self.sim.ghost_width == other.sim.ghost_width
            && self.sim.reuse_unchanged == other.sim.reuse_unchanged
            && self.static_choice() == other.static_choice()
    }

    /// Execute the scenario against the shared trace/model store via the
    /// streaming path: the trace arrives as a snapshot stream (in-memory
    /// when the store's byte budget admits it, straight from the spill
    /// file otherwise), is windowed through the partitioner, and never
    /// needs to be whole in this scenario's memory. A spill-file I/O
    /// failure retries from the in-memory store (identical output)
    /// rather than aborting the campaign. The one-member case of
    /// [`Scenario::run_cohort`].
    pub fn run(&self) -> ScenarioOutcome {
        Self::run_cohort(&[self])
            .pop()
            .expect("one outcome per member")
    }

    /// Execute a cohort of scenarios ([`Scenario::same_cohort`]) in one
    /// pass over their stream ([`samr_sim::simulate_cohort`]): each
    /// snapshot is partitioned once per configuration the members need
    /// and accounted once per distinct distribution, then priced,
    /// recorded and observed per member. Returns one outcome per member,
    /// in order, each equal to the member's own [`Scenario::run`].
    ///
    /// # Panics
    ///
    /// If `cohort` is empty or a member is not in the first member's
    /// cohort.
    pub fn run_cohort(cohort: &[&Scenario]) -> Vec<ScenarioOutcome> {
        let first = *cohort.first().expect("a cohort has members");
        assert!(
            cohort.iter().all(|s| first.same_cohort(s)),
            "scenarios of one cohort must share their stream, processor count and static choice"
        );
        assert_eq!(
            first.dim,
            first.app.dim(),
            "scenario dim {} does not match {}'s dimension",
            first.dim,
            first.app.name()
        );
        let model = cached_model(first.app, &first.trace);
        // Every member of a cohort runs at this window: the spec window
        // for a static choice, 1 for the members that can switch.
        let window = first.policy.window(&first.partitioner);
        let simulate = |source: &mut AnySnapshotSource| match source {
            AnySnapshotSource::D2(s) => simulate_members::<2>(cohort, s, window),
            AnySnapshotSource::D3(s) => simulate_members::<3>(cohort, s, window),
        };
        let runs = cached_source(first.app, &first.trace)
            .and_then(|mut source| simulate(&mut source))
            .unwrap_or_else(|_| {
                // Disk trouble (full temp dir, reaped spill file) must
                // not kill a multi-scenario sweep: regenerate in memory.
                let mut source = shared_source(cached_trace(first.app, &first.trace));
                simulate(&mut source).expect("in-memory snapshot sources cannot fail")
            });
        cohort
            .iter()
            .zip(runs)
            .map(|(scenario, (sim, stats))| outcome_from(scenario, sim, stats, Arc::clone(&model)))
            .collect()
    }
}

/// Simulate a cohort's members over one stream: one policy per member,
/// built for the member's machine.
fn simulate_members<const D: usize>(
    cohort: &[&Scenario],
    source: &mut (dyn SnapshotSource<D> + '_),
    window: usize,
) -> Result<Vec<(SimResult, StreamStats)>, TraceIoError> {
    let mut policies: Vec<Box<dyn PartitionPolicy<D> + Send>> = cohort
        .iter()
        .map(|s| s.policy.build::<D>(&s.partitioner, &s.sim.machine))
        .collect();
    let mut members: Vec<CohortMember<'_, D>> = policies
        .iter_mut()
        .zip(cohort)
        .map(|(policy, s)| CohortMember {
            policy: policy.as_mut(),
            cfg: s.sim,
        })
        .collect();
    simulate_cohort(source, &mut members, window)
}

/// Assemble a scenario outcome from its simulation result, streaming
/// statistics and shared model series.
fn outcome_from(
    scenario: &Scenario,
    sim: SimResult,
    stats: StreamStats,
    model: Arc<Vec<ModelState>>,
) -> ScenarioOutcome {
    // Step 0 has neither a migration measurement nor a β_m (no previous
    // hierarchy); shape statistics compare from step 1 on.
    let beta_c: Vec<f64> = model.iter().skip(1).map(|s| s.beta_c).collect();
    let beta_m: Vec<f64> = model.iter().skip(1).map(|s| s.beta_m).collect();
    let rel_comm: Vec<f64> = sim.steps.iter().skip(1).map(|s| s.rel_comm).collect();
    let rel_mig: Vec<f64> = sim.steps.iter().skip(1).map(|s| s.rel_migration).collect();
    ScenarioOutcome {
        comm_shape: ShapeStats::compare(&beta_c, &rel_comm),
        migration_shape: ShapeStats::compare(&beta_m, &rel_mig),
        scenario: scenario.clone(),
        sim,
        stats,
        model,
    }
}

/// The measured outcome of one scenario.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The scenario that produced this outcome.
    pub scenario: Scenario,
    /// Per-step simulation metrics under the scenario's partitioner.
    pub sim: SimResult,
    /// Streaming-driver statistics: peak residency plus the policy's
    /// switch events (empty under the static policy).
    pub stats: StreamStats,
    /// Per-step model states over the same trace (shared across the
    /// scenarios of one application).
    pub model: Arc<Vec<ModelState>>,
    /// Shape statistics: β_c vs. measured relative communication.
    pub comm_shape: ShapeStats,
    /// Shape statistics: β_m vs. measured relative migration.
    pub migration_shape: ShapeStats,
}

impl ScenarioOutcome {
    /// Render the per-step series as CSV: model penalties next to the
    /// measured metrics, one row per coarse step.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "step,beta_l,beta_c,beta_m,rel_comm,rel_migration,load_imbalance,comm_cells,migration_cells,step_time,total_points\n",
        );
        for (m, s) in self.model.iter().zip(&self.sim.steps) {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{},{},{:.1},{}\n",
                m.step,
                m.beta_l,
                m.beta_c,
                m.beta_m,
                s.rel_comm,
                s.rel_migration,
                s.load_imbalance,
                s.comm_cells,
                s.migration_cells,
                s.step_time,
                s.total_points,
            ));
        }
        out
    }

    /// The serializable summary recorded as the scenario's JSON artifact.
    pub fn summary(&self) -> ScenarioSummary {
        let n = self.sim.steps.len().max(1) as f64;
        ScenarioSummary {
            scenario: self.scenario.clone(),
            partitioner_name: self.sim.partitioner.clone(),
            steps: self.sim.steps.len(),
            total_time: self.sim.total_time,
            mean_imbalance: self.sim.steps.iter().map(|s| s.load_imbalance).sum::<f64>() / n,
            mean_rel_comm: self.sim.steps.iter().map(|s| s.rel_comm).sum::<f64>() / n,
            mean_rel_migration: self.sim.steps.iter().map(|s| s.rel_migration).sum::<f64>() / n,
            mean_partition_cost: self.sim.steps.iter().map(|s| s.partition_cost).sum::<f64>() / n,
            switches: self.stats.switches(),
            switch_migration_cells: self.stats.switch_migration_cells(),
            comm_shape: self.comm_shape,
            migration_shape: self.migration_shape,
        }
    }

    /// One-line human-readable digest (printed by the CLI). Scenarios
    /// under a non-static policy append their switch count.
    pub fn digest(&self) -> String {
        let s = self.summary();
        let switches = if self.scenario.policy.is_static() {
            String::new()
        } else {
            format!(" switches={}", s.switches)
        };
        format!(
            "{:24} total_time={:10.0} imbalance={:.3} rel_comm={:.4} rel_mig={:.4} comm_r={:.3} mig_r={:.3}{}",
            self.scenario.slug(),
            s.total_time,
            s.mean_imbalance,
            s.mean_rel_comm,
            s.mean_rel_migration,
            s.comm_shape.correlation,
            s.migration_shape.correlation,
            switches,
        )
    }
}

/// Aggregate summary of a scenario outcome — the JSON artifact schema.
///
/// Serde is hand-written for the same artifact-stability reason as
/// [`Scenario`]'s: the switch fields are emitted only for non-static
/// policies (a static policy cannot switch, so recording `0` would just
/// churn every historical artifact) and default to zero when absent.
#[derive(Clone, Debug)]
pub struct ScenarioSummary {
    /// The scenario description (reproducible from this alone).
    pub scenario: Scenario,
    /// Full configured partitioner name.
    pub partitioner_name: String,
    /// Number of simulated coarse steps.
    pub steps: usize,
    /// Total estimated execution time (machine-model units).
    pub total_time: f64,
    /// Mean load imbalance over the run.
    pub mean_imbalance: f64,
    /// Mean grid-relative communication.
    pub mean_rel_comm: f64,
    /// Mean grid-relative migration.
    pub mean_rel_migration: f64,
    /// Mean partitioner-invocation cost per coarse step (machine-model
    /// units; the regrid-overhead axis of the Pareto analysis).
    pub mean_partition_cost: f64,
    /// How many times the policy switched partitioners mid-run (always
    /// `0` under the static policy).
    pub switches: usize,
    /// Total migration volume charged on switch steps (cells).
    pub switch_migration_cells: u64,
    /// β_c vs. measured communication shape statistics.
    pub comm_shape: ShapeStats,
    /// β_m vs. measured migration shape statistics.
    pub migration_shape: ShapeStats,
}

impl Serialize for ScenarioSummary {
    fn serialize(&self) -> Value {
        let mut entries = vec![
            ("scenario".to_string(), self.scenario.serialize()),
            (
                "partitioner_name".to_string(),
                self.partitioner_name.serialize(),
            ),
            ("steps".to_string(), self.steps.serialize()),
            ("total_time".to_string(), self.total_time.serialize()),
            (
                "mean_imbalance".to_string(),
                self.mean_imbalance.serialize(),
            ),
            ("mean_rel_comm".to_string(), self.mean_rel_comm.serialize()),
            (
                "mean_rel_migration".to_string(),
                self.mean_rel_migration.serialize(),
            ),
            (
                "mean_partition_cost".to_string(),
                self.mean_partition_cost.serialize(),
            ),
        ];
        if self.scenario.policy != PolicySpec::Static {
            entries.push(("switches".to_string(), self.switches.serialize()));
            entries.push((
                "switch_migration_cells".to_string(),
                self.switch_migration_cells.serialize(),
            ));
        }
        entries.push(("comm_shape".to_string(), self.comm_shape.serialize()));
        entries.push((
            "migration_shape".to_string(),
            self.migration_shape.serialize(),
        ));
        Value::Map(entries)
    }
}

impl Deserialize for ScenarioSummary {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let optional_u64 = |name: &str| -> Result<u64, serde::Error> {
            match v.get(name) {
                Some(f) => Deserialize::deserialize(f)
                    .map_err(|e| serde::Error::msg(format!("field `{name}`: {e}"))),
                None => Ok(0),
            }
        };
        Ok(Self {
            scenario: serde::field(v, "scenario")?,
            partitioner_name: serde::field(v, "partitioner_name")?,
            steps: serde::field(v, "steps")?,
            total_time: serde::field(v, "total_time")?,
            mean_imbalance: serde::field(v, "mean_imbalance")?,
            mean_rel_comm: serde::field(v, "mean_rel_comm")?,
            mean_rel_migration: serde::field(v, "mean_rel_migration")?,
            mean_partition_cost: serde::field(v, "mean_partition_cost")?,
            switches: optional_u64("switches")? as usize,
            switch_migration_cells: optional_u64("switch_migration_cells")?,
            comm_shape: serde::field(v, "comm_shape")?,
            migration_shape: serde::field(v, "migration_shape")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario::new(
            AppKind::Bl2d,
            TraceGenConfig::smoke(),
            PartitionerSpec::parse("hybrid").unwrap(),
            SimConfig {
                nprocs: 4,
                ..SimConfig::default()
            },
        )
    }

    fn scenario_3d() -> Scenario {
        Scenario::new(
            AppKind::Sp3d,
            TraceGenConfig {
                base_cells: 16,
                steps: 6,
                ..TraceGenConfig::smoke()
            },
            PartitionerSpec::parse("hybrid").unwrap(),
            SimConfig {
                nprocs: 4,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn scenario_roundtrips_through_json() {
        let s = scenario();
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn slug_is_stable_and_file_safe() {
        assert_eq!(scenario().slug(), "bl2d_hybrid_p4_g1");
        assert_eq!(scenario_3d().slug(), "sp3d_hybrid_p4_g1_d3");
    }

    #[test]
    fn non_default_machines_tag_the_slug() {
        use samr_sim::MachineModel;
        let mut s = scenario();
        assert_eq!(s.machine_name(), "uniform");
        s.sim.machine = MachineModel::slow_network();
        assert_eq!(s.machine_name(), "slow-net");
        assert_eq!(s.slug(), "bl2d_hybrid_p4_g1_mslow-net");
        s.sim.machine = MachineModel {
            cell_update: 42.0,
            ..MachineModel::default()
        };
        assert_eq!(s.slug(), "bl2d_hybrid_p4_g1_mcustom");
        let mut s3 = scenario_3d();
        s3.sim.machine = MachineModel::fast_network();
        assert_eq!(s3.slug(), "sp3d_hybrid_p4_g1_mfast-net_d3");
    }

    #[test]
    fn preset_partitioners_slug_file_safely_inside_scenarios() {
        let mut s = scenario();
        s.partitioner = PartitionerSpec::parse("domain-sfc:morton").unwrap();
        assert_eq!(s.slug(), "bl2d_domain-sfc-morton_p4_g1");
    }

    #[test]
    fn outcome_rows_match_trace_length() {
        let out = scenario().run();
        assert_eq!(out.sim.steps.len(), out.model.len());
        // Header plus one row per step.
        assert_eq!(out.to_csv().lines().count(), out.model.len() + 1);
    }

    #[test]
    fn three_d_scenario_runs_end_to_end() {
        let out = scenario_3d().run();
        assert_eq!(out.scenario.dim, 3);
        assert!(out.sim.total_time > 0.0);
        assert_eq!(out.sim.steps.len(), out.model.len());
        assert_eq!(out.to_csv().lines().count(), out.model.len() + 1);
        // Metrics stay in their defined ranges in 3-D too.
        for s in &out.sim.steps {
            assert!(s.load_imbalance >= 1.0 - 1e-12);
            assert!(s.rel_comm >= 0.0);
            assert!(s.rel_migration >= 0.0);
        }
    }

    #[test]
    fn stateful_and_static_specs_both_run() {
        let mut meta = scenario();
        meta.partitioner = PartitionerSpec::Meta;
        let out = meta.run();
        assert!(out.sim.total_time > 0.0);
        assert_eq!(out.sim.nprocs, 4);
    }

    #[test]
    fn summary_roundtrips_through_json() {
        let out = scenario().run();
        let json = serde_json::to_string_pretty(&out.summary()).unwrap();
        let back: ScenarioSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.scenario, out.scenario);
        assert_eq!(back.steps, out.sim.steps.len());
    }
}
