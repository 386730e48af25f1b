//! The traced replay: one child confined to one CPU that re-runs a
//! workload's scenario list through public layer entry points, with a
//! span around every call into a layer, and writes the same artifacts
//! the engine writes.
//!
//! - Set-up mirrors the engine's trace store: generate each trace as a
//!   stream straight into a binary spill file, decode it into memory,
//!   fold the model over it.
//! - Static scenarios run a replica of the streaming driver's loop
//!   (`partition_with` → `comm_accounting` → `migration_accounting` →
//!   `MachineModel::step_time`), so partitioning, communication and
//!   migration accounting get spans of their own.
//! - Stateful selectors and adaptive policies run the public window-1
//!   driver with the partitioner and policy wrapped in delegates that
//!   time each call; their accounting stays inside the driver's span.
//! - Every artifact must equal, byte for byte, the one an untraced run
//!   of the same workload wrote (`campaign.manifest.json`, which records
//!   elapsed time, excepted): that is how the replica's step metrics
//!   are shown to be the engine's.
//!
//! The PDE kernels cannot be timed from outside the trace generator, so
//! after the campaign the replay re-runs each kernel alone
//! (`make_kernel` + `advance_coarse_step`); regrid time is trace
//! generation minus that.

use crate::spans::{self, scenario_span, span, Span};
use crate::workloads;
use samr_apps::tracegen::make_kernel;
use samr_apps::{trace_source_any, AppKind, Sp3d, TraceGenConfig};
use samr_core::{ModelPipeline, ModelState};
use samr_engine::merge::{CAMPAIGN_CSV, CAMPAIGN_MANIFEST};
use samr_engine::pareto::entry_from_json;
use samr_engine::{
    atomic_write, build_thread_pool, compute_front, write_front, CampaignManifest, CampaignPlan,
    CampaignSpec, CompletionRecord, Objective, PolicySpec, Scenario, ScenarioOutcome, ShapeStats,
    ShardStrategy,
};
use samr_grid::GridHierarchy;
use samr_meta::AdaptivePolicy;
use samr_partition::{Partition, PartitionScratch, Partitioner};
use samr_sim::comm::comm_accounting;
use samr_sim::migration::migration_accounting;
use samr_sim::{
    simulate_policy_source_stats, MetricScratch, PartitionPolicy, PolicySwitch, SimConfig,
    SimResult, StaticPolicy, StepMetrics, StreamStats,
};
use samr_trace::io::{open_trace_source, write_binary_source, TraceIoError};
use samr_trace::{shared_source, AnySnapshotSource, AnyTrace, Snapshot, SnapshotSource, TraceMeta};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric and its unit. The traced child reports all of
/// them but the last three, which the parent derives from untraced
/// repetitions.
pub const METRICS: [(&str, &str); 41] = [
    ("apps.tracegen_s", "s"),
    ("apps.kernel_s", "s"),
    ("apps.regrid_s", "s"),
    ("apps.snapshots", "count"),
    ("apps.patches", "count"),
    ("apps.points", "count"),
    ("trace.encode_s", "s"),
    ("trace.decode_s", "s"),
    ("trace.bytes", "bytes"),
    ("model.fold_s", "s"),
    ("model.steps", "count"),
    ("partition.s", "s"),
    ("partition.calls", "count"),
    ("partition.reused", "count"),
    ("partition.reuse_ratio", "fraction"),
    ("partition.fragments", "count"),
    ("partition.call_p50_us", "us"),
    ("partition.call_p99_us", "us"),
    ("sim.comm_s", "s"),
    ("sim.migration_s", "s"),
    ("sim.driver_s", "s"),
    ("sim.transfer_cells", "cells"),
    ("sim.migration_cells", "cells"),
    ("sim.steps", "count"),
    ("meta.policy_s", "s"),
    ("meta.switches", "count"),
    ("meta.switch_migration_cells", "cells"),
    ("engine.scenario_s", "s"),
    ("engine.scenario_p50_ms", "ms"),
    ("engine.scenario_p90_ms", "ms"),
    ("engine.scenario_max_ms", "ms"),
    ("engine.render_s", "s"),
    ("engine.write_s", "s"),
    ("engine.files", "count"),
    ("engine.bytes_written", "bytes"),
    ("engine.pareto_s", "s"),
    ("unattributed_s", "s"),
    ("traced_wall_s", "s"),
    ("tracing_overhead", "fraction"),
    ("engine.setup_efficiency", "fraction"),
    ("engine.sweep_efficiency", "fraction"),
];

/// Spans that structure the replay but belong to no layer; their self
/// time is the unattributed time.
const STRUCTURAL: [&str; 3] = ["campaign", "setup", "sweep"];

/// Work counts gathered at the same boundaries as the spans.
#[derive(Default)]
struct Tally {
    snapshots: u64,
    patches: u64,
    points: u64,
    trace_bytes: u64,
    model_steps: u64,
    partition_calls: u64,
    partition_reused: u64,
    fragments: u64,
    transfer_cells: u64,
    migration_cells: u64,
    sim_steps: u64,
    switches: u64,
    switch_migration_cells: u64,
    files: u64,
    bytes_written: u64,
}

/// `(layer, share of traced wall time)`, largest first.
pub type Shares = Vec<(String, f64)>;

/// What the traced child reports: per-layer metrics and each layer's
/// share of the traced wall time.
pub struct Traced {
    /// `(name, value)` for the metrics the child measures.
    pub metrics: Vec<(&'static str, f64)>,
    /// Each layer's share of the traced wall time.
    pub shares: Shares,
    /// Every span recorded.
    pub spans: Vec<Span>,
}

/// Run the traced replay of `spec` into `out` on one CPU, then check
/// its artifacts against `reference` (an untraced run's directory).
pub fn child(spec: &CampaignSpec, out: &Path, reference: &Path) -> Result<Traced, String> {
    crate::campaign::confine_to_cpus(1)?;
    let pool = build_thread_pool(1)?;
    pool.install(|| {
        spans::take();
        let mut tally = Tally::default();
        replay(spec, out, &mut tally)?;
        for app in workloads::apps(spec) {
            replay_kernel(app, &spec.trace);
        }
        let spans = spans::take();
        spans::check_well_formed(&spans)?;
        compare_dirs(out, reference)?;
        let (metrics, shares) = summarize(&spans, &tally);
        Ok(Traced {
            metrics,
            shares,
            spans,
        })
    })
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn trace_err(e: TraceIoError) -> String {
    format!("trace I/O: {e}")
}

fn replay(spec: &CampaignSpec, out: &Path, tally: &mut Tally) -> Result<(), String> {
    let _campaign = span("campaign");
    let plan = CampaignPlan::new(spec, 1, ShardStrategy::default());
    std::fs::create_dir_all(out).map_err(io_err("create output dir"))?;
    let spill_dir = std::env::temp_dir().join("samr-trace-cache");
    std::fs::create_dir_all(&spill_dir).map_err(io_err("create spill dir"))?;
    let mut store: Vec<(AppKind, Arc<AnyTrace>, Arc<Vec<ModelState>>)> = Vec::new();
    {
        let _setup = span("setup");
        for app in workloads::apps(spec) {
            let trace = spill_and_load(app, &spec.trace, &spill_dir, tally)?;
            let model = {
                let _fold = span("model.fold");
                ModelPipeline::new()
                    .run_any_source(&mut shared_source(Arc::clone(&trace)))
                    .map_err(trace_err)?
            };
            tally.model_steps += model.len() as u64;
            store.push((app, trace, Arc::new(model)));
        }
    }
    let sweep_start = Instant::now();
    {
        let _sweep = span("sweep");
        let mut parts: Vec<(&str, String)> = Vec::with_capacity(plan.len());
        for p in &plan.scenarios {
            let (_, trace, model) = store
                .iter()
                .find(|(app, ..)| *app == p.scenario.app)
                .expect("the store holds every planned application");
            let _scenario = scenario_span("engine.scenario", p.id);
            let (csv, json) = run_scenario(&p.scenario, trace, model, tally)?;
            {
                let _write = span("engine.write");
                write_file(&out.join(format!("{}.csv", p.slug)), csv.as_bytes(), tally)?;
                write_file(
                    &out.join(format!("{}.json", p.slug)),
                    json.as_bytes(),
                    tally,
                )?;
                let record = CompletionRecord::stamp(
                    out,
                    p.id,
                    &p.slug,
                    &plan.plan_hash,
                    csv.as_bytes(),
                    json.as_bytes(),
                )
                .map_err(io_err("stamp"))?;
                count_written(&record, tally)?;
            }
            parts.push((p.slug.as_str(), csv));
        }
        let _write = span("engine.write");
        let mut campaign_csv = String::new();
        for (slug, csv) in &parts {
            campaign_csv.push_str("# ");
            campaign_csv.push_str(slug);
            campaign_csv.push('\n');
            campaign_csv.push_str(csv);
        }
        write_file(&out.join(CAMPAIGN_CSV), campaign_csv.as_bytes(), tally)?;
        let manifest = CampaignManifest {
            plan_hash: plan.plan_hash.clone(),
            scenario_count: plan.len(),
            shards: 1,
            elapsed_seconds: sweep_start.elapsed().as_secs_f64(),
            spec: plan.spec.clone(),
        };
        let path = manifest.write(out).map_err(io_err("write manifest"))?;
        count_written(&path, tally)?;
    }
    let _pareto = span("engine.pareto");
    let entries = plan
        .scenarios
        .iter()
        .map(|p| {
            let path = out.join(format!("{}.json", p.slug));
            let bytes = std::fs::read(&path).map_err(io_err("read summary"))?;
            entry_from_json(p.id, &p.slug, &path, &bytes).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    let front =
        compute_front(&plan.plan_hash, &Objective::ALL, &entries).map_err(|e| e.to_string())?;
    let path = write_front(out, &front).map_err(|e| e.to_string())?;
    count_written(&path, tally)
}

fn write_file(path: &Path, bytes: &[u8], tally: &mut Tally) -> Result<(), String> {
    atomic_write(path, bytes).map_err(io_err("write artifact"))?;
    tally.files += 1;
    tally.bytes_written += bytes.len() as u64;
    Ok(())
}

fn count_written(path: &Path, tally: &mut Tally) -> Result<(), String> {
    tally.files += 1;
    tally.bytes_written += std::fs::metadata(path)
        .map_err(io_err("stat artifact"))?
        .len();
    Ok(())
}

/// Generate one application's trace into a binary spill file and decode
/// it back into memory, as the engine's store does for a trace that fits
/// its memory budget.
fn spill_and_load(
    app: AppKind,
    cfg: &TraceGenConfig,
    dir: &Path,
    tally: &mut Tally,
) -> Result<Arc<AnyTrace>, String> {
    let path = dir.join(format!("{}.trc", app.name().to_lowercase()));
    {
        let _encode = span("trace.encode");
        let source = {
            let _gen = span("apps.tracegen");
            trace_source_any(app, cfg)
        };
        let tmp = path.with_extension("tmp");
        let file = std::fs::File::create(&tmp).map_err(io_err("create spill file"))?;
        let mut w = std::io::BufWriter::new(file);
        match source {
            AnySnapshotSource::D2(inner) => {
                write_binary_source::<2, _>(&mut CountedSource { inner, tally }, &mut w)
            }
            AnySnapshotSource::D3(inner) => {
                write_binary_source::<3, _>(&mut CountedSource { inner, tally }, &mut w)
            }
        }
        .map_err(trace_err)?;
        w.flush().map_err(io_err("flush spill file"))?;
        drop(w);
        std::fs::rename(&tmp, &path).map_err(io_err("rename spill file"))?;
    }
    tally.trace_bytes += std::fs::metadata(&path)
        .map_err(io_err("stat spill file"))?
        .len();
    let _decode = span("trace.decode");
    let trace = open_trace_source(&path)
        .and_then(|s| s.collect())
        .map_err(trace_err)?;
    Ok(Arc::new(trace))
}

/// A generator stream with a span around every pull, counting what it
/// yields.
struct CountedSource<'a, const D: usize> {
    inner: Box<dyn SnapshotSource<D>>,
    tally: &'a mut Tally,
}

impl<const D: usize> SnapshotSource<D> for CountedSource<'_, D> {
    fn meta(&self) -> &TraceMeta<D> {
        self.inner.meta()
    }

    fn next_snapshot(&mut self) -> Result<Option<Snapshot<D>>, TraceIoError> {
        let snap = {
            let _gen = span("apps.tracegen");
            self.inner.next_snapshot()?
        };
        if let Some(s) = &snap {
            self.tally.snapshots += 1;
            self.tally.patches += s
                .hierarchy
                .levels
                .iter()
                .map(|l| l.patch_count() as u64)
                .sum::<u64>();
            self.tally.points += s.hierarchy.total_points();
        }
        Ok(snap)
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }
}

/// Simulate one scenario over its in-memory trace and render its CSV
/// and JSON summary artifacts.
fn run_scenario(
    scenario: &Scenario,
    trace: &Arc<AnyTrace>,
    model: &Arc<Vec<ModelState>>,
    tally: &mut Tally,
) -> Result<(String, String), String> {
    let (sim, stats) = match shared_source(Arc::clone(trace)) {
        AnySnapshotSource::D2(mut source) => simulate::<2>(scenario, source.as_mut(), tally),
        AnySnapshotSource::D3(mut source) => simulate::<3>(scenario, source.as_mut(), tally),
    }
    .map_err(trace_err)?;
    tally.sim_steps += sim.steps.len() as u64;
    for m in &sim.steps {
        tally.transfer_cells += m.comm_cells;
        tally.migration_cells += m.migration_cells;
    }
    tally.switches += stats.switches() as u64;
    tally.switch_migration_cells += stats.switch_migration_cells();
    let outcome = outcome(scenario, sim, stats, Arc::clone(model));
    let _render = span("engine.render");
    let json = serde_json::to_string_pretty(&outcome.summary()).expect("summary serializes");
    Ok((outcome.to_csv(), json))
}

/// The scenario outcome the engine assembles from a simulation: shape
/// statistics compare the model and the measurement from step 1 on.
fn outcome(
    scenario: &Scenario,
    sim: SimResult,
    stats: StreamStats,
    model: Arc<Vec<ModelState>>,
) -> ScenarioOutcome {
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

fn simulate<const D: usize>(
    scenario: &Scenario,
    source: &mut dyn SnapshotSource<D>,
    tally: &mut Tally,
) -> Result<(SimResult, StreamStats), TraceIoError> {
    let _driver = span("sim.driver");
    let cfg = &scenario.sim;
    let local = scenario.partitioner.build::<D>(&cfg.machine);
    let (result, calls, fragments) = match scenario.policy {
        PolicySpec::Static if !scenario.partitioner.stateful() => {
            return replica(source, local.as_ref(), cfg, tally);
        }
        PolicySpec::Static => {
            let mut policy = Timed::new(StaticPolicy::new(local.as_ref()));
            let window = scenario.partitioner.window();
            let result = simulate_policy_source_stats(source, &mut policy, cfg, window)?;
            (result, policy.calls(), policy.fragments())
        }
        PolicySpec::Adaptive(acfg) => {
            let mut policy = Timed::new(AdaptivePolicy::<D>::new(local, acfg));
            let result = simulate_policy_source_stats(source, &mut policy, cfg, 1)?;
            (result, policy.calls(), policy.fragments())
        }
    };
    // The window-1 driver either partitions a step or reuses the
    // previous distribution.
    tally.partition_calls += calls;
    tally.partition_reused += result.0.steps.len() as u64 - calls;
    tally.fragments += fragments;
    Ok(result)
}

/// A replica of the streaming driver's per-snapshot loop for a static
/// partitioner under the static policy, with a span around each layer
/// call. Produces the driver's `StepMetrics` exactly.
fn replica<const D: usize>(
    source: &mut dyn SnapshotSource<D>,
    partitioner: &(dyn Partitioner<D> + Sync),
    cfg: &SimConfig,
    tally: &mut Tally,
) -> Result<(SimResult, StreamStats), TraceIoError> {
    let mut policy = StaticPolicy::new(partitioner);
    let mut pscratch = PartitionScratch::<D>::default();
    let mut mscratch = MetricScratch::<D>::default();
    let no_migration = vec![0u64; cfg.nprocs];
    let mut prev: Option<(Snapshot<D>, Partition<D>)> = None;
    let mut steps: Vec<StepMetrics> = Vec::with_capacity(source.len_hint().unwrap_or(0));
    let mut total_time = 0.0;
    while let Some(snap) = source.next_snapshot()? {
        let h = &snap.hierarchy;
        let (part, cost) = match &prev {
            Some((ps, pp)) if cfg.reuse_unchanged && ps.hierarchy == *h => {
                tally.partition_reused += 1;
                (pp.clone(), 0.0)
            }
            _ => {
                let part = {
                    let _partition = span("partition");
                    policy
                        .current()
                        .partition_with(h, cfg.nprocs, &mut pscratch)
                };
                tally.partition_calls += 1;
                tally.fragments += part.fragment_count() as u64;
                let cost = policy.current().cost_estimate(h);
                (part, cost)
            }
        };
        let acc = {
            let _comm = span("sim.comm");
            comm_accounting(h, &part, cfg.ghost_width, &mut mscratch)
        };
        let (migration, rel_migration) = match &prev {
            Some((ps, pp)) => {
                let _migration = span("sim.migration");
                let m =
                    migration_accounting(&ps.hierarchy, pp, h, &part, cfg.nprocs, &mut mscratch);
                (m, m as f64 / ps.hierarchy.total_points().max(1) as f64)
            }
            None => (0, 0.0),
        };
        let migration_out = if prev.is_some() {
            mscratch.per_proc_mig()
        } else {
            &no_migration
        };
        let workload = h.workload();
        let m = StepMetrics {
            step: snap.step,
            total_points: h.total_points(),
            workload,
            load_imbalance: part.load_imbalance(h.ratio),
            comm_cells: acc.transfer_volume(),
            rel_comm: acc.involved_points() as f64 / workload.max(1) as f64,
            migration_cells: migration,
            rel_migration,
            partition_cost: cost,
            fragments: part.fragment_count(),
            step_time: cfg.machine.step_time(
                &part.loads(h.ratio),
                mscratch.per_proc_vols(),
                migration_out,
                cost,
            ),
        };
        total_time += m.step_time;
        {
            let _policy = span("meta.policy");
            policy.observe(&m);
        }
        steps.push(m);
        prev = Some((snap, part));
    }
    if steps.is_empty() {
        return Err(TraceIoError::Format(
            "cannot simulate an empty snapshot stream".into(),
        ));
    }
    let snapshots = steps.len();
    Ok((
        SimResult {
            partitioner: policy.name(),
            nprocs: cfg.nprocs,
            steps,
            total_time,
        },
        StreamStats {
            peak_resident: 2,
            snapshots,
            switch_events: Vec::new(),
        },
    ))
}

/// A policy delegate that is also the partitioner it hands the driver:
/// every partition call and every `observe` runs inside a span.
struct Timed<P> {
    inner: P,
    calls: AtomicU64,
    fragments: AtomicU64,
}

impl<P> Timed<P> {
    fn new(inner: P) -> Self {
        Self {
            inner,
            calls: AtomicU64::new(0),
            fragments: AtomicU64::new(0),
        }
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn fragments(&self) -> u64 {
        self.fragments.load(Ordering::Relaxed)
    }

    fn count<const D: usize>(&self, part: Partition<D>) -> Partition<D> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.fragments
            .fetch_add(part.fragment_count() as u64, Ordering::Relaxed);
        part
    }
}

impl<const D: usize, P: PartitionPolicy<D> + Sync> Partitioner<D> for Timed<P> {
    fn name(&self) -> String {
        self.inner.current().name()
    }

    fn partition(&self, h: &GridHierarchy<D>, nprocs: usize) -> Partition<D> {
        let _partition = span("partition");
        self.count(self.inner.current().partition(h, nprocs))
    }

    fn partition_with(
        &self,
        h: &GridHierarchy<D>,
        nprocs: usize,
        scratch: &mut PartitionScratch<D>,
    ) -> Partition<D> {
        let _partition = span("partition");
        self.count(self.inner.current().partition_with(h, nprocs, scratch))
    }

    fn cost_estimate(&self, h: &GridHierarchy<D>) -> f64 {
        self.inner.current().cost_estimate(h)
    }
}

impl<const D: usize, P: PartitionPolicy<D> + Sync> PartitionPolicy<D> for Timed<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn current(&self) -> &(dyn Partitioner<D> + Sync) {
        self
    }

    fn observe(&mut self, m: &StepMetrics) -> Option<PolicySwitch> {
        let _policy = span("meta.policy");
        self.inner.observe(m)
    }

    fn is_static(&self) -> bool {
        self.inner.is_static()
    }
}

/// Re-run an application's kernel alone for the trace's steps: the PDE
/// work of trace generation without the regridding.
fn replay_kernel(app: AppKind, cfg: &TraceGenConfig) {
    let _kernel = span("apps.kernel");
    if app.dim() == 2 {
        let mut kernel = make_kernel(app, cfg);
        for _ in 1..cfg.steps {
            kernel.advance_coarse_step();
        }
        std::hint::black_box(kernel.time());
    } else {
        let mut sphere = Sp3d::new(cfg.steps, cfg.seed);
        for _ in 1..cfg.steps {
            sphere.advance_coarse_step();
        }
        std::hint::black_box(sphere.center());
    }
}

/// Every artifact of `out` must equal the reference run's, except the
/// manifest, which records elapsed time.
fn compare_dirs(out: &Path, reference: &Path) -> Result<(), String> {
    let names = |dir: &Path| -> Result<Vec<String>, String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .map_err(|e| format!("list {}: {e}", dir.display()))?
            .map(|e| e.map(|e| e.file_name().to_string_lossy().into_owned()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("list {}: {e}", dir.display()))?;
        names.sort();
        Ok(names)
    };
    let ours = names(out)?;
    if ours != names(reference)? {
        return Err("the traced replay wrote a different set of artifacts".into());
    }
    for name in ours.iter().filter(|n| *n != CAMPAIGN_MANIFEST) {
        let read = |dir: &Path| std::fs::read(dir.join(name)).map_err(io_err("read artifact"));
        if read(out)? != read(reference)? {
            return Err(format!(
                "traced artifact {name} differs from the untraced run"
            ));
        }
    }
    Ok(())
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Aggregate spans and counts into the per-layer metrics and each
/// layer's share of the traced wall time.
fn summarize(spans: &[Span], t: &Tally) -> (Vec<(&'static str, f64)>, Shares) {
    let selfs = spans::self_times_ns(spans);
    // The root of every span: the campaign replay or a kernel replay.
    let mut root = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root[i] = s.parent.map_or(i, |p| root[p]);
    }
    let campaign = spans.iter().position(|s| s.name == "campaign");
    let in_campaign = |i: usize| Some(root[i]) == campaign;
    let secs = |ns: u64| ns as f64 * 1e-9;
    let self_s = |name: &str| {
        secs(
            spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.name == name)
                .map(|(_, &t)| t)
                .sum(),
        )
    };
    let sorted_ns = |name: &str| {
        let mut d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect();
        d.sort_by(f64::total_cmp);
        d
    };
    let total_s = |name: &str| sorted_ns(name).iter().sum::<f64>() * 1e-9;
    let traced_wall = campaign.map_or(0.0, |c| secs(spans[c].duration_ns()));
    let tracegen = total_s("apps.tracegen");
    let kernel = total_s("apps.kernel");
    let calls = sorted_ns("partition");
    let scenarios = sorted_ns("engine.scenario");
    let mut layers: Vec<(String, f64)> = Vec::new();
    for (i, s) in spans.iter().enumerate().filter(|&(i, _)| in_campaign(i)) {
        let layer = if STRUCTURAL.contains(&s.name) {
            "unattributed"
        } else {
            s.name.split('.').next().unwrap_or(s.name)
        };
        match layers.iter_mut().find(|(l, _)| l == layer) {
            Some((_, v)) => *v += secs(selfs[i]),
            None => layers.push((layer.to_string(), secs(selfs[i]))),
        }
    }
    let unattributed = layers
        .iter()
        .find(|(l, _)| l == "unattributed")
        .map_or(0.0, |(_, v)| *v);
    let mut shares: Vec<(String, f64)> = layers
        .into_iter()
        .map(|(l, v)| (l, v / traced_wall))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let reuse_total = t.partition_calls + t.partition_reused;
    let metrics = vec![
        ("apps.tracegen_s", tracegen),
        ("apps.kernel_s", kernel),
        ("apps.regrid_s", tracegen - kernel),
        ("apps.snapshots", t.snapshots as f64),
        ("apps.patches", t.patches as f64),
        ("apps.points", t.points as f64),
        ("trace.encode_s", self_s("trace.encode")),
        ("trace.decode_s", self_s("trace.decode")),
        ("trace.bytes", t.trace_bytes as f64),
        ("model.fold_s", self_s("model.fold")),
        ("model.steps", t.model_steps as f64),
        ("partition.s", self_s("partition")),
        ("partition.calls", t.partition_calls as f64),
        ("partition.reused", t.partition_reused as f64),
        (
            "partition.reuse_ratio",
            t.partition_reused as f64 / reuse_total.max(1) as f64,
        ),
        ("partition.fragments", t.fragments as f64),
        ("partition.call_p50_us", percentile(&calls, 0.50) * 1e-3),
        ("partition.call_p99_us", percentile(&calls, 0.99) * 1e-3),
        ("sim.comm_s", self_s("sim.comm")),
        ("sim.migration_s", self_s("sim.migration")),
        ("sim.driver_s", self_s("sim.driver")),
        ("sim.transfer_cells", t.transfer_cells as f64),
        ("sim.migration_cells", t.migration_cells as f64),
        ("sim.steps", t.sim_steps as f64),
        ("meta.policy_s", self_s("meta.policy")),
        ("meta.switches", t.switches as f64),
        (
            "meta.switch_migration_cells",
            t.switch_migration_cells as f64,
        ),
        ("engine.scenario_s", total_s("engine.scenario")),
        (
            "engine.scenario_p50_ms",
            percentile(&scenarios, 0.50) * 1e-6,
        ),
        (
            "engine.scenario_p90_ms",
            percentile(&scenarios, 0.90) * 1e-6,
        ),
        ("engine.scenario_max_ms", percentile(&scenarios, 1.0) * 1e-6),
        ("engine.render_s", self_s("engine.render")),
        ("engine.write_s", self_s("engine.write")),
        ("engine.files", t.files as f64),
        ("engine.bytes_written", t.bytes_written as f64),
        ("engine.pareto_s", self_s("engine.pareto")),
        ("unattributed_s", unattributed),
        ("traced_wall_s", traced_wall),
    ];
    (metrics, shares)
}

/// The unit of a per-layer metric.
pub fn unit(name: &str) -> Option<&'static str> {
    METRICS.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn every_summarized_metric_has_a_unit() {
        let (metrics, _) = summarize(&[], &Tally::default());
        for (name, _) in metrics {
            assert!(unit(name).is_some(), "{name} has no unit");
        }
    }
}
