//! Cartesian campaign specs and the plan → execute → merge front end.
//!
//! [`CampaignSpec`] declares the sweep; [`Campaign`] is the convenience
//! runner gluing the three explicit layers together: a spec is expanded
//! by the planner ([`crate::plan`]) into a deterministic
//! [`crate::plan::CampaignPlan`], executed by an executor
//! ([`crate::exec`]) and — when sharded — reassembled by the merger
//! ([`crate::merge`]). `Campaign::run`/`run_to_dir` are thin wrappers
//! over the single-shard in-process path.

use crate::atomic::atomic_write;
use crate::exec::RayonExecutor;
use crate::merge::{CampaignManifest, CAMPAIGN_CSV};
use crate::plan::{CampaignPlan, ShardStrategy};
use crate::policy::PolicySpec;
use crate::scenario::{Scenario, ScenarioOutcome};
use crate::spec::PartitionerSpec;
use samr_apps::{AppKind, ConfigError, TraceGenConfig};
use samr_sim::{MachineModel, SimConfig};
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A declarative sweep: the cartesian product of applications,
/// partitioner specifications, repartitioning policies, processor
/// counts, ghost widths and machine models over one trace
/// configuration. The `dims` axis filters which spatial dimensions
/// participate, so one campaign can sweep 2-D and 3-D workloads
/// together (`dims: [2, 3]`) or pin either; the `machines` axis makes
/// PAC-triple studies (application × partitioner × machine) one
/// campaign instead of one per machine; the `policies` axis pits
/// static partitioner assignment against adaptive mid-run switching
/// ([`PolicySpec`]) without multiplying campaigns.
///
/// Serde is hand-written so `policies` is omitted when it is the
/// default `[Static]` (and tolerated when missing): the serialized
/// spec feeds the plan hash, and every pre-policy campaign must keep
/// its hash — and therefore its resumability and golden artifacts —
/// byte-identical.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Applications to sweep.
    pub apps: Vec<AppKind>,
    /// Spatial dimensions to sweep (applications whose dimension is not
    /// listed are skipped during expansion).
    pub dims: Vec<usize>,
    /// Partitioner specifications to sweep.
    pub partitioners: Vec<PartitionerSpec>,
    /// Processor counts to sweep.
    pub nprocs: Vec<usize>,
    /// Ghost-cell widths to sweep.
    pub ghost_widths: Vec<i64>,
    /// Trace-generation configuration shared by every scenario.
    pub trace: TraceGenConfig,
    /// Machine cost models to sweep (use the
    /// [`MachineModel::registry`] presets for named slugs; non-default
    /// machines tag their scenario slugs).
    pub machines: Vec<MachineModel>,
    /// Reuse the previous distribution on unchanged hierarchies (the
    /// paper's set-up; see [`SimConfig::reuse_unchanged`]).
    pub reuse_unchanged: bool,
    /// Repartitioning policies to sweep (default `[Static]`; non-static
    /// policies tag their scenario slugs `_a<preset>`).
    pub policies: Vec<PolicySpec>,
}

impl Serialize for CampaignSpec {
    fn serialize(&self) -> Value {
        let mut entries = vec![
            ("apps".to_string(), self.apps.serialize()),
            ("dims".to_string(), self.dims.serialize()),
            ("partitioners".to_string(), self.partitioners.serialize()),
            ("nprocs".to_string(), self.nprocs.serialize()),
            ("ghost_widths".to_string(), self.ghost_widths.serialize()),
            ("trace".to_string(), self.trace.serialize()),
            ("machines".to_string(), self.machines.serialize()),
            (
                "reuse_unchanged".to_string(),
                self.reuse_unchanged.serialize(),
            ),
        ];
        if self.policies != vec![PolicySpec::Static] {
            entries.push(("policies".to_string(), self.policies.serialize()));
        }
        Value::Map(entries)
    }
}

/// Every spec file, manifest and worker hand-off enters the program
/// here, so a spec the planner cannot run is refused with the offending
/// field ([`CampaignSpec::validate`]) before anything is planned or
/// written.
impl Deserialize for CampaignSpec {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let spec = Self {
            apps: serde::field(v, "apps")?,
            dims: serde::field(v, "dims")?,
            partitioners: serde::field(v, "partitioners")?,
            nprocs: serde::field(v, "nprocs")?,
            ghost_widths: serde::field(v, "ghost_widths")?,
            trace: serde::field(v, "trace")?,
            machines: serde::field(v, "machines")?,
            reuse_unchanged: serde::field(v, "reuse_unchanged")?,
            policies: match v.get("policies") {
                Some(p) => Deserialize::deserialize(p)
                    .map_err(|e| serde::Error::msg(format!("field `policies`: {e}")))?,
                None => vec![PolicySpec::Static],
            },
        };
        spec.validate()
            .map_err(|e| serde::Error::msg(e.to_string()))?;
        Ok(spec)
    }
}

impl CampaignSpec {
    /// A campaign over the paper's four 2-D applications with the default
    /// hybrid partitioner, 16 processors and ghost width 1; extend with
    /// the builder methods (add [`AppKind::Sp3d`] and `dims([2, 3])` for
    /// a mixed-dimension sweep).
    pub fn new(trace: TraceGenConfig) -> Self {
        Self {
            apps: AppKind::ALL.to_vec(),
            dims: vec![2, 3],
            partitioners: vec![PartitionerSpec::parse("hybrid").expect("registry name")],
            nprocs: vec![16],
            ghost_widths: vec![1],
            trace,
            machines: vec![MachineModel::default()],
            reuse_unchanged: true,
            policies: vec![PolicySpec::Static],
        }
    }

    /// Check every value the planner cannot run and name the first one
    /// out of range: a trace-config field ([`TraceGenConfig::validate`]),
    /// a processor count below 1 or a negative ghost width.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.trace.validate()?;
        if let Some(&n) = self.nprocs.iter().find(|&&n| n < 1) {
            return Err(ConfigError::new("nprocs", ">= 1".into(), n));
        }
        if let Some(&g) = self.ghost_widths.iter().find(|&&g| g < 0) {
            return Err(ConfigError::new("ghost_widths", ">= 0".into(), g));
        }
        Ok(())
    }

    /// Replace the application axis (duplicates dropped, order kept).
    /// The dimension axis defaults to `[2, 3]` (no filtering), so
    /// `.apps([Sp3d])` alone already sweeps 3-D; only an explicit
    /// [`CampaignSpec::dims`] call narrows it, and builder-call order
    /// does not matter.
    pub fn apps(mut self, apps: impl IntoIterator<Item = AppKind>) -> Self {
        self.apps = dedup_axis(apps);
        self
    }

    /// Replace the dimension axis (duplicates dropped, order kept):
    /// applications whose dimension is not listed are skipped during
    /// expansion.
    pub fn dims(mut self, dims: impl IntoIterator<Item = usize>) -> Self {
        self.dims = dedup_axis(dims);
        self
    }

    /// Replace the partitioner axis (duplicates dropped, order kept).
    pub fn partitioners(mut self, specs: impl IntoIterator<Item = PartitionerSpec>) -> Self {
        self.partitioners = dedup_axis(specs);
        self
    }

    /// Replace the processor-count axis (duplicates dropped, order
    /// kept).
    pub fn nprocs(mut self, nprocs: impl IntoIterator<Item = usize>) -> Self {
        self.nprocs = dedup_axis(nprocs);
        self
    }

    /// Replace the ghost-width axis (duplicates dropped, order kept).
    pub fn ghost_widths(mut self, widths: impl IntoIterator<Item = i64>) -> Self {
        self.ghost_widths = dedup_axis(widths);
        self
    }

    /// Pin the machine axis to a single model.
    pub fn machine(self, machine: MachineModel) -> Self {
        self.machines([machine])
    }

    /// Replace the machine-model axis (duplicates dropped, order kept).
    pub fn machines(mut self, machines: impl IntoIterator<Item = MachineModel>) -> Self {
        self.machines = dedup_axis(machines);
        self
    }

    /// Replace the repartitioning-policy axis (duplicates dropped,
    /// order kept).
    pub fn policies(mut self, policies: impl IntoIterator<Item = PolicySpec>) -> Self {
        self.policies = dedup_axis(policies);
        self
    }

    /// The applications that actually expand: those whose dimension is on
    /// the `dims` axis.
    fn active_apps(&self) -> Vec<AppKind> {
        self.apps
            .iter()
            .copied()
            .filter(|a| self.dims.contains(&a.dim()))
            .collect()
    }

    /// Number of scenarios the spec expands to.
    pub fn len(&self) -> usize {
        self.active_apps().len()
            * self.partitioners.len()
            * self.policies.len()
            * self.nprocs.len()
            * self.ghost_widths.len()
            * self.machines.len()
    }

    /// `true` when at least one axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand the cartesian product into concrete scenarios, in a
    /// deterministic app-major order (apps, then partitioners, then
    /// policies, then processor counts, then ghost widths, then
    /// machines). With the default `[Static]` policy axis the order is
    /// byte-identical to the pre-policy expansion.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.len());
        for app in self.active_apps() {
            for &partitioner in &self.partitioners {
                for &policy in &self.policies {
                    for &nprocs in &self.nprocs {
                        for &ghost_width in &self.ghost_widths {
                            for &machine in &self.machines {
                                out.push(
                                    Scenario::new(
                                        app,
                                        self.trace.clone(),
                                        partitioner,
                                        SimConfig {
                                            nprocs,
                                            ghost_width,
                                            machine,
                                            reuse_unchanged: self.reuse_unchanged,
                                        },
                                    )
                                    .with_policy(policy),
                                );
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Drop exact duplicates from a sweep axis, preserving first-appearance
/// order (a repeated value would expand to identical scenarios whose
/// artifacts overwrite each other).
fn dedup_axis<T: PartialEq>(values: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    for v in values {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// The campaign runner: thin wrappers over plan → execute (→ artifact
/// write) for the common single-process case. Sharded and
/// multi-process execution use the layers directly (see
/// [`crate::exec::ShardExecutor`], [`crate::exec::WorkerExecutor`] and
/// [`crate::merge::merge_shards`]).
pub struct Campaign;

impl Campaign {
    /// Expand and execute a campaign spec in-process, rayon-parallel
    /// over scenarios, returning outcomes in plan order.
    ///
    /// Traces and model series are generated once per application up
    /// front (in parallel) and shared through the process-wide store, so
    /// the scenario sweep itself is pure partition-and-simulate work.
    pub fn run(spec: &CampaignSpec) -> Vec<ScenarioOutcome> {
        let plan = CampaignPlan::new(spec, 1, ShardStrategy::default());
        RayonExecutor::default().run_plan(&plan)
    }

    /// Run a campaign and write its artifacts into `dir`: one CSV
    /// (per-step series) and one JSON summary per scenario (named by
    /// the plan's unique slugs, each pair stamped with a completion
    /// record), the canonical concatenated `campaign.csv`, and the
    /// audit `campaign.manifest.json`. Returns the outcomes and every
    /// path written.
    pub fn run_to_dir(
        spec: &CampaignSpec,
        dir: &Path,
    ) -> std::io::Result<(Vec<ScenarioOutcome>, Vec<PathBuf>)> {
        Self::run_to_dir_resume(spec, dir, false).map(|run| (run.outcomes, run.paths))
    }

    /// [`Campaign::run_to_dir`] with resumption: when `resume` is set,
    /// scenarios whose completion records in `dir` validate against the
    /// re-planned campaign (same plan hash, artifact bytes matching
    /// their recorded digests) are skipped, only the remainder
    /// executes, and the canonical `campaign.csv` is reassembled from
    /// the artifacts on disk — byte-identical to an uninterrupted run.
    pub fn run_to_dir_resume(
        spec: &CampaignSpec,
        dir: &Path,
        resume: bool,
    ) -> std::io::Result<CampaignRun> {
        let start = Instant::now();
        let plan = CampaignPlan::new(spec, 1, ShardStrategy::default());
        std::fs::create_dir_all(dir)?;
        // The executor writes and stamps each scenario's artifacts the
        // moment it finishes, so a kill mid-sweep banks every completed
        // scenario for the next --resume.
        let (executed, skipped) = RayonExecutor { resume }.run_remaining(&plan, dir)?;
        let mut paths = Vec::with_capacity(2 * plan.len() + 2);
        // Move each rendered CSV out of the executed triples: the bytes
        // are held once, then moved again into the campaign.csv parts.
        let mut fresh_csv: std::collections::HashMap<usize, String> =
            std::collections::HashMap::with_capacity(executed.len());
        let mut outcomes = Vec::with_capacity(executed.len());
        for (planned, outcome, csv) in executed {
            paths.push(dir.join(format!("{}.csv", planned.slug)));
            paths.push(dir.join(format!("{}.json", planned.slug)));
            fresh_csv.insert(planned.id, csv);
            outcomes.push(outcome);
        }
        // Assemble campaign.csv in plan order: freshly rendered parts
        // for what ran, validated on-disk artifacts for what was
        // skipped (their digests were just checked against the records).
        let mut parts: Vec<(String, String)> = Vec::with_capacity(plan.len());
        for planned in &plan.scenarios {
            let csv = match fresh_csv.remove(&planned.id) {
                Some(csv) => csv,
                None => {
                    let path = dir.join(format!("{}.csv", planned.slug));
                    paths.push(path.clone());
                    paths.push(dir.join(format!("{}.json", planned.slug)));
                    std::fs::read_to_string(&path)?
                }
            };
            parts.push((planned.slug.clone(), csv));
        }
        let campaign_csv = crate::merge::assemble_campaign_csv(
            parts.iter().map(|(s, c)| (s.as_str(), c.as_str())),
        );
        let csv_path = dir.join(CAMPAIGN_CSV);
        atomic_write(&csv_path, campaign_csv.as_bytes())?;
        paths.push(csv_path);
        let manifest = CampaignManifest {
            plan_hash: plan.plan_hash.clone(),
            scenario_count: plan.len(),
            shards: 1,
            elapsed_seconds: start.elapsed().as_secs_f64(),
            spec: plan.spec.clone(),
        };
        paths.push(manifest.write(dir)?);
        // The trade-off front over the summaries just written: read the
        // artifacts back in plan order (executed and resumed alike went
        // through the same serializer) so the merged-shard path, which
        // also parses the on-disk bytes, produces the identical front.
        if !plan.is_empty() {
            let entries = plan
                .scenarios
                .iter()
                .map(|p| {
                    let path = dir.join(format!("{}.json", p.slug));
                    let bytes = std::fs::read(&path)?;
                    crate::pareto::entry_from_json(p.id, &p.slug, &path, &bytes)
                        .map_err(std::io::Error::from)
                })
                .collect::<std::io::Result<Vec<_>>>()?;
            let front = crate::pareto::compute_front(
                &plan.plan_hash,
                &crate::pareto::Objective::ALL,
                &entries,
            )?;
            paths.push(crate::pareto::write_front(dir, &front)?);
        }
        Ok(CampaignRun {
            outcomes,
            skipped,
            paths,
        })
    }
}

/// What one (possibly resumed) in-process campaign run did.
#[derive(Debug)]
pub struct CampaignRun {
    /// Outcomes of the scenarios executed this invocation, in plan
    /// order (a resumed run omits the skipped ones).
    pub outcomes: Vec<ScenarioOutcome>,
    /// Scenarios skipped because their completion records validated.
    pub skipped: usize,
    /// Every artifact path of the campaign (executed and skipped).
    pub paths: Vec<PathBuf>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_the_full_cartesian_product() {
        let spec = CampaignSpec::new(TraceGenConfig::smoke())
            .apps([AppKind::Rm2d, AppKind::Bl2d])
            .partitioners([
                PartitionerSpec::parse("hybrid").unwrap(),
                PartitionerSpec::parse("domain-sfc").unwrap(),
                PartitionerSpec::parse("meta").unwrap(),
            ])
            .nprocs([8, 16])
            .ghost_widths([1, 2]);
        assert_eq!(spec.len(), 2 * 3 * 2 * 2);
        let scenarios = spec.scenarios();
        assert_eq!(scenarios.len(), spec.len());
        // Every slug unique: the product has no duplicate cells.
        let mut slugs: Vec<String> = scenarios.iter().map(Scenario::slug).collect();
        slugs.sort();
        slugs.dedup();
        assert_eq!(slugs.len(), scenarios.len());
        // Deterministic app-major ordering.
        assert_eq!(scenarios[0].slug(), "rm2d_hybrid_p8_g1");
        assert_eq!(scenarios[1].slug(), "rm2d_hybrid_p8_g2");
        assert_eq!(scenarios[2].slug(), "rm2d_hybrid_p16_g1");
    }

    #[test]
    fn empty_axis_means_empty_campaign() {
        let spec = CampaignSpec::new(TraceGenConfig::smoke()).nprocs([]);
        assert!(spec.is_empty());
        assert!(Campaign::run(&spec).is_empty());
    }

    #[test]
    fn repeated_axis_values_are_deduplicated() {
        // `--nprocs 16,16` must not expand to colliding duplicate
        // scenarios whose artifacts would overwrite each other.
        let spec = CampaignSpec::new(TraceGenConfig::smoke())
            .apps([AppKind::Tp2d, AppKind::Tp2d])
            .nprocs([16, 16, 8]);
        assert_eq!(spec.apps, vec![AppKind::Tp2d]);
        assert_eq!(spec.nprocs, vec![16, 8]);
        assert_eq!(spec.len(), 2);
    }

    #[test]
    fn dims_axis_filters_applications() {
        let mixed = CampaignSpec::new(TraceGenConfig::smoke())
            .apps([AppKind::Tp2d, AppKind::Sp3d])
            .nprocs([4]);
        // The default dims axis covers both dimensions.
        assert_eq!(mixed.dims, vec![2, 3]);
        assert_eq!(mixed.len(), 2);
        // Pinning dims to 2 drops the 3-D app from the expansion…
        let flat = mixed.clone().dims([2]);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat.scenarios()[0].app, AppKind::Tp2d);
        // …and pinning to 3 keeps only SP3D.
        let solid = mixed.clone().dims([3]);
        assert_eq!(solid.len(), 1);
        assert_eq!(solid.scenarios()[0].app, AppKind::Sp3d);
        assert_eq!(solid.scenarios()[0].dim, 3);
        // A dims pin survives a later .apps call: builder order must not
        // silently widen an explicit filter.
        let pinned_first = CampaignSpec::new(TraceGenConfig::smoke())
            .dims([2])
            .apps([AppKind::Tp2d, AppKind::Sp3d])
            .nprocs([4]);
        assert_eq!(pinned_first.dims, vec![2]);
        assert_eq!(pinned_first.len(), 1);
    }

    #[test]
    fn mixed_dimension_campaign_runs_both_workload_families() {
        let spec = CampaignSpec::new(TraceGenConfig {
            base_cells: 16,
            steps: 4,
            ..TraceGenConfig::smoke()
        })
        .apps([AppKind::Tp2d, AppKind::Sp3d])
        .nprocs([4]);
        let outcomes = Campaign::run(&spec);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].scenario.dim, 2);
        assert_eq!(outcomes[1].scenario.dim, 3);
        for o in &outcomes {
            assert!(o.sim.total_time > 0.0);
            assert_eq!(o.sim.steps.len(), o.model.len());
        }
    }

    #[test]
    fn colliding_slugs_get_distinct_artifact_names() {
        use samr_partition::{HybridParams, PartitionerChoice};
        // Two hybrid configurations share the "hybrid" slug (the second
        // is not a named registry preset); artifacts must not silently
        // overwrite each other.
        let spec = CampaignSpec::new(TraceGenConfig::smoke())
            .apps([AppKind::Tp2d])
            .partitioners([
                PartitionerSpec::Static(PartitionerChoice::hybrid()),
                PartitionerSpec::Static(PartitionerChoice::Hybrid(HybridParams {
                    hue_blocks_per_proc: 3,
                    ..HybridParams::default()
                })),
            ])
            .nprocs([4]);
        let dir = std::env::temp_dir().join(format!("samr-engine-slugs-{}", std::process::id()));
        let (outcomes, paths) = Campaign::run_to_dir(&spec, &dir).unwrap();
        assert_eq!(outcomes.len(), 2);
        let names: Vec<String> = paths
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert!(names.contains(&"tp2d_hybrid_p4_g1.csv".to_string()));
        assert!(
            names.contains(&"tp2d_hybrid_p4_g1-2.csv".to_string()),
            "{names:?}"
        );
        for p in &paths {
            assert!(p.exists());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = CampaignSpec::new(TraceGenConfig::smoke()).nprocs([4, 32]);
        let json = serde_json::to_string(&spec).unwrap();
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn machine_axis_expands_and_tags_slugs() {
        let spec = CampaignSpec::new(TraceGenConfig::smoke())
            .apps([AppKind::Tp2d])
            .nprocs([4])
            .machines([
                MachineModel::default(),
                MachineModel::slow_network(),
                MachineModel::slow_network(), // duplicates dropped
                MachineModel::slow_cpu(),
            ]);
        assert_eq!(spec.machines.len(), 3);
        assert_eq!(spec.len(), 3);
        let slugs: Vec<String> = spec.scenarios().iter().map(Scenario::slug).collect();
        assert_eq!(
            slugs,
            vec![
                "tp2d_hybrid_p4_g1",
                "tp2d_hybrid_p4_g1_mslow-net",
                "tp2d_hybrid_p4_g1_mslow-cpu",
            ]
        );
        // The sweep actually runs under each machine, and slower
        // machines cost more estimated time.
        let outcomes = Campaign::run(&spec);
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[1].sim.total_time > outcomes[0].sim.total_time);
    }
}
