//! `samr` — command-line front end for the SAMR meta-partitioner
//! reproduction.
//!
//! ```text
//! samr generate <app> [--config paper|reduced|smoke] [--seed N] [--binary] [--out FILE]
//! samr analyze  <trace-file>
//! samr simulate <trace-file> [--partitioner NAME] [--nprocs N]
//! samr compare  <trace-file> [--nprocs N]
//! samr campaign [--apps A,B] [--dims 2,3] [--partitioners P,Q] [--nprocs N,M]
//!               [--ghost-widths G,H] [--config paper|reduced|smoke]
//!               [--policies static,adaptive:balance,…]
//!               [--machines uniform,fast-net,slow-net,slow-cpu] [--out DIR]
//!               [--spec FILE] [--threads N] [--shard I/N] [--resume]
//! samr campaign-merge DIR… [--out DIR]
//! samr pareto DIR [--objectives imbalance,comm,migration,overhead] [--predict]
//! samr apps
//! samr partitioners
//! ```
//!
//! `generate` runs an application kernel and **streams** its hierarchy
//! trace to disk snapshot by snapshot (JSON-lines by default, compact
//! binary with `--binary`) — the trace is never whole in memory;
//! `analyze` folds the paper's model over a trace stream and prints the
//! per-step penalties; `simulate` runs a trace stream through the
//! windowed partitioning driver and prints the measured per-step
//! metrics; `compare` runs the META1 static-vs-dynamic comparison,
//! draining the trace stream once and replaying it per partitioner;
//! `campaign` expands a cartesian sweep (apps × partitioners × policies
//! × nprocs × ghost widths × machines) into a deterministic plan and
//! executes it through
//! `samr-engine` in one process, on a rayon pool `--threads` caps:
//! the whole plan by default, or one shard of it with `--shard I/N`
//! (per-shard artifact directory plus JSON manifest), so many hosts
//! can each run one; a shard holds whole cohorts, the scenarios that
//! share one simulation;
//! `campaign-merge` validates independently produced shard directories
//! (same plan hash, every scenario exactly once, every artifact stamped
//! by a matching completion record) and reassembles the canonical
//! campaign artifacts, byte-identical to the unsharded run; `pareto`
//! (see [`pareto`]) prints the multi-objective trade-off front of a
//! finished campaign directory and, with `--predict`, scores the same
//! scenarios through the paper's model to report predicted-vs-observed
//! front agreement.
//!
//! Every command refuses a flag it does not define and a positional it
//! does not take, naming it, so a misspelled flag or a stray argument
//! cannot silently run with a default instead.
//!
//! Campaign execution is crash-consistent: every artifact is written
//! tmp-then-rename and every finished scenario is stamped with a
//! completion record, so `--resume` re-runs exactly the scenarios a
//! killed or crashed campaign or shard had not finished.

#![forbid(unsafe_code)]

use samr::apps::{trace_source_any, AppKind, ConfigError, TraceGenConfig};
use samr::engine::{
    build_thread_pool, configs, find_shard_dirs, merge_shards, Campaign, CampaignPlan,
    CampaignSpec, PartitionerSpec, PolicySpec, ShardExecutor, ShardStrategy,
};
use samr::meta::compare_on_trace;
use samr::model::{ModelAccumulator, ModelConfig};
use samr::sim::{MachineModel, SimConfig};
use samr::trace::io::{open_trace_source, write_binary_source, JsonlSnapshotWriter, TraceIoError};
use samr::trace::{AnySnapshotSource, AnyTrace, Snapshot, SnapshotSource};
use std::fs::File;

mod pareto;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  samr generate <app> [--config paper|reduced|smoke] [--seed N] [--binary] [--out FILE]\n  samr analyze  <trace-file>\n  samr simulate <trace-file> [--partitioner NAME] [--nprocs N]\n  samr compare  <trace-file> [--nprocs N]\n  samr campaign [--apps A,B] [--dims 2,3] [--partitioners P,Q] [--nprocs N,M] [--ghost-widths G,H]\n                [--config paper|reduced|smoke] [--policies static,adaptive:balance,...]\n                [--machines uniform,fast-net,slow-net,slow-cpu] [--out DIR]\n                [--spec FILE] [--threads N] [--shard I/N] [--resume]\n  samr campaign-merge DIR... [--out DIR]\n  samr pareto DIR [--objectives imbalance,comm,migration,overhead] [--predict]\n  samr apps\n  samr partitioners"
    );
    ExitCode::from(2)
}

/// Value of `--flag V` in `args`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The positional arguments of a command, after refusing every `--flag`
/// it does not define: `values` take the next argument, `switches` none.
fn positionals<'a>(
    args: &'a [String],
    values: &[&str],
    switches: &[&str],
) -> Result<Vec<&'a str>, String> {
    let mut out = Vec::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if values.contains(&a.as_str()) {
            if rest.next().is_none() {
                return Err(format!("{a} expects a value"));
            }
        } else if !a.starts_with("--") {
            out.push(a.as_str());
        } else if !switches.contains(&a.as_str()) {
            return Err(format!("unknown flag '{a}'"));
        }
    }
    Ok(out)
}

/// The one trace-file argument of `analyze`, `simulate` and `compare`.
fn trace_arg<'a>(args: &'a [String], values: &[&str]) -> Result<&'a str, String> {
    match positionals(args, values, &[])?[..] {
        [path] => Ok(path),
        _ => Err("expected a trace file".into()),
    }
}

/// The trace configuration `--config` names, or the command's `default`.
fn parse_config(args: &[String], default: &str) -> Result<TraceGenConfig, String> {
    match flag_value(args, "--config").as_deref().unwrap_or(default) {
        "paper" => Ok(configs::paper()),
        "reduced" => Ok(configs::reduced()),
        "smoke" => Ok(TraceGenConfig::smoke()),
        other => Err(format!("unknown config '{other}'")),
    }
}

/// Parse a comma-separated list through `parse`, or return the default.
fn parse_list<T>(
    args: &[String],
    flag: &str,
    default: Vec<T>,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(list) => list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(parse)
            .collect(),
    }
}

/// Open a trace file as a streaming snapshot source (format and
/// dimension sniffed from the header).
fn load_source(path: &str) -> Result<AnySnapshotSource, String> {
    open_trace_source(Path::new(path)).map_err(|e| format!("open {path}: {e}"))
}

/// Stream a generator source to a writer, one snapshot at a time.
fn stream_out<const D: usize>(
    src: &mut (dyn SnapshotSource<D> + '_),
    out: &str,
    binary: bool,
) -> Result<usize, TraceIoError> {
    let file = File::create(out)?;
    if binary {
        return write_binary_source(src, BufWriter::new(file)).map(|n| n as usize);
    }
    let mut n = 0usize;
    let mut w = JsonlSnapshotWriter::new(BufWriter::new(file), src.meta())?;
    while let Some(snap) = src.next_snapshot()? {
        w.write_snapshot(&snap)?;
        n += 1;
    }
    w.finish()?;
    Ok(n)
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let app = match positionals(args, &["--config", "--seed", "--out"], &["--binary"])?[..] {
        [app] => AppKind::parse(app),
        _ => None,
    }
    .ok_or("expected an application: TP2D | BL2D | SC2D | RM2D | PC2D | SP3D")?;
    let mut cfg = parse_config(args, "paper")?;
    if let Some(seed) = flag_value(args, "--seed") {
        cfg.seed = seed.parse().map_err(|e| format!("bad seed: {e}"))?;
    }
    eprintln!(
        "generating {} trace ({}-D): {} steps, base {:?}, {} levels …",
        app.name(),
        app.dim(),
        cfg.steps,
        cfg.base_cells,
        cfg.max_levels
    );
    let out =
        flag_value(args, "--out").unwrap_or_else(|| format!("{}.trace", app.name().to_lowercase()));
    let binary = has_flag(args, "--binary");
    // The generator streams straight to disk: one batch of segments
    // resident at a time, whatever the trace length, regridded across
    // the pool.
    let n = match trace_source_any(app, &cfg) {
        AnySnapshotSource::D2(mut s) => stream_out::<2>(&mut s, &out, binary),
        AnySnapshotSource::D3(mut s) => stream_out::<3>(&mut s, &out, binary),
    }
    .map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("wrote {n} snapshots to {out}");
    Ok(())
}

/// Fold the model over a snapshot stream, printing one CSV row per step
/// as it is produced (two snapshots resident at most).
fn analyze_source<const D: usize>(
    src: &mut (dyn SnapshotSource<D> + '_),
) -> Result<(), TraceIoError> {
    let mut acc = ModelAccumulator::new(ModelConfig::default());
    let mut prev: Option<Snapshot<D>> = None;
    while let Some(snap) = src.next_snapshot()? {
        let s = acc.step(prev.as_ref().map(|p| &p.hierarchy), &snap);
        println!(
            "{},{:.6},{:.6},{:.6},{:.4},{:.4},{:.4},{:.4},{:.4},{},{}",
            s.step,
            s.beta_l,
            s.beta_c,
            s.beta_m,
            s.point.d1,
            s.point.d2,
            s.point.d3,
            s.tradeoff2.request,
            s.tradeoff2.offer,
            snap.hierarchy.total_points(),
            snap.hierarchy.workload()
        );
        prev = Some(snap);
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let path = trace_arg(args, &[])?;
    let mut source = load_source(path)?;
    println!("step,beta_l,beta_c,beta_m,d1,d2,d3,request,offer,points,workload");
    match &mut source {
        AnySnapshotSource::D2(s) => analyze_source::<2>(s),
        AnySnapshotSource::D3(s) => analyze_source::<3>(s),
    }
    .map_err(|e| format!("analyze {path}: {e}"))
}

/// `--nprocs N` of `simulate` and `compare` (default 16), at least 1.
fn parse_nprocs(args: &[String]) -> Result<usize, String> {
    let nprocs: usize = flag_value(args, "--nprocs")
        .map(|v| v.parse().map_err(|e| format!("bad nprocs: {e}")))
        .transpose()?
        .unwrap_or(16);
    if nprocs < 1 {
        return Err(ConfigError::new("nprocs", ">= 1".into(), nprocs).to_string());
    }
    Ok(nprocs)
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let path = trace_arg(args, &["--partitioner", "--nprocs"])?;
    let nprocs = parse_nprocs(args)?;
    let mut source = load_source(path)?;
    let spec = match flag_value(args, "--partitioner") {
        None => PartitionerSpec::parse("hybrid")?,
        Some(name) => PartitionerSpec::parse(&name)?,
    };
    let cfg = SimConfig {
        nprocs,
        ..SimConfig::default()
    };
    let (res, _) = match &mut source {
        AnySnapshotSource::D2(s) => PolicySpec::Static.simulate_source::<2>(&spec, s, &cfg),
        AnySnapshotSource::D3(s) => PolicySpec::Static.simulate_source::<3>(&spec, s, &cfg),
    }
    .map_err(|e| format!("simulate {path}: {e}"))?;
    println!(
        "# partitioner: {} on {} processors",
        res.partitioner, nprocs
    );
    println!("step,load_imbalance,rel_comm,rel_migration,comm_cells,migration_cells,step_time");
    for s in &res.steps {
        println!(
            "{},{:.6},{:.6},{:.6},{},{},{:.1}",
            s.step,
            s.load_imbalance,
            s.rel_comm,
            s.rel_migration,
            s.comm_cells,
            s.migration_cells,
            s.step_time
        );
    }
    eprintln!("total estimated execution time: {:.0}", res.total_time);
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let path = trace_arg(args, &["--nprocs"])?;
    let nprocs = parse_nprocs(args)?;
    let cfg = SimConfig {
        nprocs,
        ..SimConfig::default()
    };
    // The comparison drains the stream once into a trace and replays it
    // per partitioner.
    let res = load_source(path)?
        .collect()
        .and_then(|trace| match trace {
            AnyTrace::D2(t) => compare_on_trace(&t, &cfg),
            AnyTrace::D3(t) => compare_on_trace(&t, &cfg),
        })
        .map_err(|e| format!("compare {path}: {e}"))?;
    println!("partitioner,total_time,mean_imbalance,mean_rel_comm,mean_rel_migration");
    for r in res
        .static_runs
        .iter()
        .chain([&res.octant_run, &res.meta_run])
    {
        println!(
            "{},{:.0},{:.4},{:.4},{:.4}",
            r.name, r.total_time, r.mean_imbalance, r.mean_rel_comm, r.mean_rel_migration
        );
    }
    eprintln!(
        "meta vs best static: {:.3}; meta vs worst static: {:.3}",
        res.meta_vs_best(),
        res.meta_vs_worst()
    );
    Ok(())
}

/// The flags of `samr campaign` that set an axis of the campaign.
const AXIS_FLAGS: [&str; 8] = [
    "--apps",
    "--dims",
    "--partitioners",
    "--policies",
    "--nprocs",
    "--ghost-widths",
    "--config",
    "--machines",
];

/// The other flags of `samr campaign` that take a value.
const RUN_FLAGS: [&str; 4] = ["--spec", "--out", "--threads", "--shard"];

/// The campaign spec from CLI arguments: loaded whole from `--spec
/// FILE` (the form a multi-host launcher hands every shard, so each
/// plans the exact same campaign), or assembled from the axis flags.
fn parse_campaign_spec(args: &[String]) -> Result<CampaignSpec, String> {
    if let Some(path) = flag_value(args, "--spec") {
        // The spec file defines every campaign axis; silently ignoring
        // an axis flag next to it would run a different campaign than
        // the command line reads.
        if let Some(conflict) = AXIS_FLAGS.iter().find(|f| has_flag(args, f)) {
            return Err(format!(
                "{conflict} conflicts with --spec: the spec file defines every campaign axis"
            ));
        }
        let json = std::fs::read_to_string(&path).map_err(|e| format!("read spec {path}: {e}"))?;
        return serde_json::from_str(&json).map_err(|e| format!("parse spec {path}: {e}"));
    }
    let apps = parse_list(args, "--apps", AppKind::ALL.to_vec(), |name| {
        AppKind::parse(name).ok_or_else(|| format!("unknown app '{name}'"))
    })?;
    let default_dims: Vec<usize> = {
        let mut d: Vec<usize> = apps.iter().map(|a| a.dim()).collect();
        d.dedup();
        d
    };
    let dims = parse_list(args, "--dims", default_dims, |v| {
        v.parse().map_err(|e| format!("bad dim '{v}': {e}"))
    })?;
    let partitioners = parse_list(
        args,
        "--partitioners",
        vec![PartitionerSpec::parse("hybrid")?],
        PartitionerSpec::parse,
    )?;
    let policies = parse_list(
        args,
        "--policies",
        vec![PolicySpec::Static],
        PolicySpec::parse,
    )?;
    let nprocs = parse_list(args, "--nprocs", vec![16usize], |v| {
        v.parse().map_err(|e| format!("bad nprocs '{v}': {e}"))
    })?;
    let ghost_widths = parse_list(args, "--ghost-widths", vec![1i64], |v| {
        v.parse().map_err(|e| format!("bad ghost width '{v}': {e}"))
    })?;
    // Campaigns default to the reduced configuration: the full paper
    // config is available with `--config paper` but generates each
    // 100-step 5-level trace in tens of seconds.
    let trace = parse_config(args, "reduced")?;
    let machines = parse_list(
        args,
        "--machines",
        vec![MachineModel::default()],
        MachineModel::parse,
    )?;
    let spec = CampaignSpec::new(trace)
        .apps(apps)
        .dims(dims)
        .partitioners(partitioners)
        .policies(policies)
        .nprocs(nprocs)
        .ghost_widths(ghost_widths)
        .machines(machines);
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// Parse `--shard I/N` into `(shard, nshards)`.
fn parse_shard(args: &[String]) -> Result<Option<(usize, usize)>, String> {
    let Some(value) = flag_value(args, "--shard") else {
        return Ok(None);
    };
    let err = || format!("bad --shard '{value}' (expected I/N with I < N, e.g. 0/3)");
    let (i, n) = value.split_once('/').ok_or_else(err)?;
    let shard: usize = i.parse().map_err(|_| err())?;
    let nshards: usize = n.parse().map_err(|_| err())?;
    if nshards == 0 || shard >= nshards {
        return Err(err());
    }
    Ok(Some((shard, nshards)))
}

/// Refuse every argument of a command that takes no positional: an
/// undefined flag by [`positionals`], a stray positional here.
fn no_positionals(args: &[String], values: &[&str], switches: &[&str]) -> Result<(), String> {
    match positionals(args, values, switches)?[..] {
        [extra, ..] => Err(format!("unexpected argument '{extra}'")),
        [] => Ok(()),
    }
}

fn cmd_campaign(args: &[String]) -> Result<(), String> {
    no_positionals(
        args,
        &[&AXIS_FLAGS[..], &RUN_FLAGS[..]].concat(),
        &["--resume"],
    )?;
    let spec = parse_campaign_spec(args)?;
    if spec.is_empty() {
        return Err("campaign expands to zero scenarios".into());
    }
    let threads: Option<usize> = flag_value(args, "--threads")
        .map(|v| v.parse().map_err(|e| format!("bad --threads '{v}': {e}")))
        .transpose()?;
    let shard = parse_shard(args)?;
    let resume = has_flag(args, "--resume");
    let out_dir =
        PathBuf::from(flag_value(args, "--out").unwrap_or_else(|| "results/campaign".into()));
    let active_apps = spec
        .apps
        .iter()
        .filter(|a| spec.dims.contains(&a.dim()))
        .count();
    eprintln!(
        "campaign: {} scenarios ({} apps x {} partitioners x {} policies x {} nprocs x {} ghost widths x {} machines, dims {:?}) -> {}",
        spec.len(),
        active_apps,
        spec.partitioners.len(),
        spec.policies.len(),
        spec.nprocs.len(),
        spec.ghost_widths.len(),
        spec.machines.len(),
        spec.dims,
        out_dir.display()
    );

    let run_in_process = || -> Result<(), String> {
        if let Some((shard, nshards)) = shard {
            // One shard of the plan: per-shard artifact directory plus
            // manifest; a later `samr campaign-merge` reassembles.
            let plan = CampaignPlan::new(&spec, nshards, ShardStrategy);
            let executor = ShardExecutor { shard, resume };
            let run = executor
                .run_shard(&plan, &out_dir)
                .map_err(|e| format!("write artifacts: {e}"))?;
            for digest in &run.digests {
                println!("{digest}");
            }
            eprintln!(
                "shard {shard}/{nshards}: wrote {} of {} scenarios to {} ({} resumed as \
                 already complete, plan {})",
                run.digests.len(),
                plan.len(),
                run.dir.display(),
                run.skipped,
                plan.plan_hash
            );
            return Ok(());
        }
        let run = Campaign::run_to_dir_resume(&spec, &out_dir, resume)
            .map_err(|e| format!("write artifacts: {e}"))?;
        for digest in &run.digests {
            println!("{digest}");
        }
        eprintln!(
            "wrote {} artifacts ({} scenarios executed, {} resumed as already complete) to {}",
            run.paths.len(),
            run.digests.len(),
            run.skipped,
            out_dir.display()
        );
        Ok(())
    };
    match threads {
        // A scoped rayon pool caps campaign parallelism without
        // affecting the rest of the process, so a campaign can leave
        // cores of its host to other work.
        Some(t) => {
            let pool = build_thread_pool(t)?;
            pool.install(run_in_process)
        }
        None => run_in_process(),
    }
}

fn cmd_campaign_merge(args: &[String]) -> Result<(), String> {
    // Positional arguments are shard directories — or one campaign
    // directory whose `shard-*-of-*` children are the shards.
    let dirs: Vec<PathBuf> = positionals(args, &["--out"], &[])?
        .into_iter()
        .map(PathBuf::from)
        .collect();
    if dirs.is_empty() {
        return Err("expected shard directories (or one campaign directory) to merge".into());
    }
    let (shard_dirs, default_out) =
        if dirs.len() == 1 && !dirs[0].join("shard.manifest.json").exists() {
            // One campaign directory: discover its shard children.
            let found = find_shard_dirs(&dirs[0])
                .map_err(|e| format!("scan {}: {e}", dirs[0].display()))?;
            if found.is_empty() {
                return Err(format!(
                    "{} contains no shard-*-of-* directories",
                    dirs[0].display()
                ));
            }
            (found, dirs[0].clone())
        } else {
            let parent = dirs[0]
                .parent()
                .map(Path::to_path_buf)
                .unwrap_or_else(|| PathBuf::from("."));
            (dirs, parent)
        };
    let out_dir = flag_value(args, "--out").map_or(default_out, PathBuf::from);
    let report = merge_shards(&shard_dirs, &out_dir).map_err(|e| e.to_string())?;
    eprintln!(
        "merged {} scenarios from {} shards into {} (plan {})",
        report.scenario_count,
        report.shards,
        out_dir.display(),
        report.plan_hash
    );
    println!("{}", report.csv_path.display());
    Ok(())
}

fn cmd_apps(args: &[String]) -> Result<(), String> {
    no_positionals(args, &[], &[])?;
    let cfg = configs::paper();
    println!("app,dim,description");
    for kind in AppKind::EVERY {
        println!("{},{},{}", kind.name(), kind.dim(), kind.describe(&cfg));
    }
    Ok(())
}

fn cmd_partitioners(args: &[String]) -> Result<(), String> {
    no_positionals(args, &[], &[])?;
    let machine = MachineModel::default();
    println!("name,stateful,configured_name");
    for (name, spec) in PartitionerSpec::registry() {
        println!("{},{},{}", name, spec.stateful(), spec.name(&machine));
    }
    // The repartitioning-policy registry: every `--policies` value with
    // the hysteresis thresholds the adaptive presets switch on.
    println!();
    println!("policy,imbalance_enter,imbalance_exit,comm_enter,patience,balanced");
    for (name, spec) in PolicySpec::registry() {
        match spec {
            PolicySpec::Static => println!("{name},-,-,-,-,-"),
            PolicySpec::Adaptive(cfg) => println!(
                "{},{},{},{},{},{}",
                name,
                cfg.imbalance_enter,
                cfg.imbalance_exit,
                cfg.comm_enter,
                cfg.switch_patience,
                cfg.balanced.name(),
            ),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "generate" => cmd_generate(rest),
        "analyze" => cmd_analyze(rest),
        "simulate" => cmd_simulate(rest),
        "compare" => cmd_compare(rest),
        "campaign" => cmd_campaign(rest),
        "campaign-merge" => cmd_campaign_merge(rest),
        "pareto" => pareto::cmd_pareto(rest),
        "apps" => cmd_apps(rest),
        "partitioners" => cmd_partitioners(rest),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
