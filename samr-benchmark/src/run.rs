//! `run`: repeat each workload's cold campaigns in child processes,
//! check every output, optionally add the traced breakdown, and report.

use crate::campaign::{self, ChildOutput, Finished};
use crate::report::{BenchSpec, Json, Measured, MetricDef, Stats, WorkloadReport};
use crate::traced;
use crate::workloads::{self, Scale};
use serde::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed the pinned digests belong to.
pub const PINNED_SEED: u64 = 2004;

/// Options of one `run` invocation.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Workloads to run, in order.
    pub workloads: Vec<String>,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget per workload, used when `reps` is unset.
    pub seconds: f64,
    /// A fixed number of timed repetitions per workload.
    pub reps: Option<usize>,
    /// Add the traced per-layer breakdown.
    pub trace: bool,
    /// How large the campaigns are.
    pub scale: Scale,
    /// Where the report goes; trace files land next to it.
    pub out: PathBuf,
    /// The pinned digests file.
    pub digests: PathBuf,
    /// Pin the digests of this run (seed 2004, clean tree only).
    pub pin: bool,
}

/// Default location of the pinned digests.
pub fn default_digests_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("digests.json")
}

/// Default scratch and report directory.
pub fn default_work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// Named values, in order.
type Named = Vec<(String, f64)>;

/// `(campaign.csv, campaign.pareto.json)` digests.
type Digests = (String, String);

/// Pinned digests: workload key (`paper`, `paper@smoke`) → seed →
/// digests.
type Pins = Vec<(String, Vec<(u64, Digests)>)>;

/// The key a workload's digests are pinned under.
fn digest_key(workload: &str, scale: Scale) -> String {
    match scale {
        Scale::Bench => workload.to_string(),
        _ => format!("{workload}@{}", scale.name()),
    }
}

fn load_pins(path: &Path) -> Result<Pins, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let bad = |what: &str| format!("{}: {what}", path.display());
    let v = serde_json::value_from_slice(text.as_bytes()).map_err(|e| bad(&e.to_string()))?;
    let Some(Value::Map(workloads)) = v.get("workloads") else {
        return Err(bad("no `workloads` map"));
    };
    workloads
        .iter()
        .map(|(key, seeds)| {
            let Value::Map(seeds) = seeds else {
                return Err(bad(&format!("{key} is not a map of seeds")));
            };
            let seeds = seeds
                .iter()
                .map(|(seed, d)| {
                    let field = |name: &str| match d.get(name) {
                        Some(Value::Str(s)) => Ok(s.clone()),
                        _ => Err(bad(&format!("{key}/{seed} lacks {name}"))),
                    };
                    let seed = seed.parse().map_err(|_| bad(&format!("bad seed {seed}")))?;
                    Ok((
                        seed,
                        (field("campaign.csv")?, field("campaign.pareto.json")?),
                    ))
                })
                .collect::<Result<_, String>>()?;
            Ok((key.clone(), seeds))
        })
        .collect()
}

fn write_pins(path: &Path, pins: &Pins) -> Result<(), String> {
    let digest = |(csv, pareto): &Digests| {
        Value::Map(vec![
            ("campaign.csv".into(), Value::Str(csv.clone())),
            ("campaign.pareto.json".into(), Value::Str(pareto.clone())),
        ])
    };
    let workloads = pins
        .iter()
        .map(|(key, seeds)| {
            let seeds = seeds
                .iter()
                .map(|(seed, d)| (seed.to_string(), digest(d)))
                .collect();
            (key.clone(), Value::Map(seeds))
        })
        .collect();
    let v = Value::Map(vec![("workloads".into(), Value::Map(workloads))]);
    let text = serde_json::to_string_pretty(&Json(&v)).expect("digests serialize") + "\n";
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// `git describe --always --dirty` of the benchmark's checkout, confined
/// to that checkout.
fn git_describe() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository");
    let mut cmd = std::process::Command::new("git");
    cmd.current_dir(root)
        .args(["describe", "--always", "--dirty"])
        .stderr(std::process::Stdio::null());
    if let Some(above) = root.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", above);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where and how the run was measured.
fn provenance(opts: &RunOptions, threads: usize, describe: &str) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
    let cpus_online = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    Value::Map(vec![
        ("git_describe".into(), Value::Str(describe.to_string())),
        ("dirty".into(), Value::Bool(describe.ends_with("-dirty"))),
        ("cpu_model".into(), Value::Str(cpu_model)),
        (
            "batch_isa".into(),
            Value::Str(format!("{:?}", samr_geom::sfc::BatchIsa::detect())),
        ),
        ("rustc".into(), Value::Str(rustc_version())),
        ("cpus_online".into(), Value::U64(cpus_online as u64)),
        (
            "available_parallelism".into(),
            Value::U64(available_parallelism() as u64),
        ),
        ("threads".into(), Value::U64(threads as u64)),
        ("seed".into(), Value::U64(opts.seed)),
        ("scale".into(), Value::Str(opts.scale.name().into())),
        ("seconds".into(), Value::F64(opts.seconds)),
    ])
}

/// Checks each campaign's digests against the ones pinned for its seed,
/// or against the first repetition's when nothing is pinned.
struct DigestCheck {
    expected: Vec<(u64, Digests)>,
    pinned: bool,
}

impl DigestCheck {
    fn check(&mut self, seed: u64, out: &ChildOutput) -> Result<(), String> {
        let got = (out.csv_digest.clone(), out.pareto_digest.clone());
        match self.expected.iter().find(|(s, _)| *s == seed) {
            None => {
                self.expected.push((seed, got));
                Ok(())
            }
            Some((_, want)) if *want == got => Ok(()),
            Some((_, want)) => Err(format!(
                "seed {seed}: digests {}/{} differ from the {} {}/{}",
                got.0,
                got.1,
                if self.pinned {
                    "pinned"
                } else {
                    "first repetition's"
                },
                want.0,
                want.1
            )),
        }
    }
}

/// One timed repetition: the campaigns of every repetition seed, summed
/// (peak memory is averaged over the children: each child's peak
/// depends on its seed).
#[derive(Clone, Debug, Default)]
struct Repetition {
    wall_s: f64,
    setup_s: f64,
    sweep_s: f64,
    setup_cpu_s: f64,
    sweep_cpu_s: f64,
    threads: usize,
    campaigns: usize,
    peak_rss_kib: u64,
}

impl Repetition {
    fn add(&mut self, c: &Finished) {
        self.wall_s += c.wall_s;
        self.setup_s += c.out.setup_s;
        self.sweep_s += c.out.sweep_s;
        self.setup_cpu_s += c.out.setup_cpu_s;
        self.sweep_cpu_s += c.out.sweep_cpu_s;
        self.threads = c.out.threads;
        self.campaigns += 1;
        self.peak_rss_kib += c.out.peak_rss_kib;
    }
}

/// Run every requested workload; writes the report and trace files and
/// returns one report per workload.
pub fn run(spec: &BenchSpec, opts: &RunOptions) -> Result<Vec<WorkloadReport>, String> {
    let describe = git_describe();
    if opts.pin
        && (opts.seed != PINNED_SEED || describe.ends_with("-dirty") || describe == "unknown")
    {
        return Err(format!(
            "--pin needs --seed {PINNED_SEED} and a clean git tree (this tree: {describe})"
        ));
    }
    let mut pins = load_pins(&opts.digests)?;
    let threads = available_parallelism().min(2);
    let report_dir = opts.out.parent().unwrap_or(Path::new(".")).to_path_buf();
    let work = report_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let mut reports = Vec::new();
    let mut result = Ok(());
    for name in &opts.workloads {
        let key = digest_key(name, opts.scale);
        let pinned = match pins.iter().find(|(k, _)| *k == key) {
            Some((_, seeds)) if opts.seed == PINNED_SEED && !opts.pin => seeds.clone(),
            _ => Vec::new(),
        };
        match run_workload(name, opts, threads, pinned, &work, &report_dir) {
            Ok(r) => {
                if opts.pin && r.failed == 0 {
                    pins.retain(|(k, _)| *k != key);
                    pins.push((key, r.digests.clone()));
                }
                reports.push(r);
            }
            Err(e) => {
                result = Err(e);
                break;
            }
        }
    }
    std::fs::remove_dir_all(&work).ok();
    result?;
    let report = crate::report::report_value(provenance(opts, threads, &describe), &reports);
    let text = serde_json::to_string_pretty(&Json(&report)).expect("report serializes") + "\n";
    std::fs::write(&opts.out, text).map_err(|e| format!("write {}: {e}", opts.out.display()))?;
    if opts.pin {
        pins.sort();
        write_pins(&opts.digests, &pins)?;
    }
    check_declared(spec, &reports, opts.trace)?;
    Ok(reports)
}

/// Every metric `BENCHMARK.json` declares must have been measured with
/// the declared unit (per-layer ones only on a traced run) by every
/// workload that did not fail outright.
fn check_declared(spec: &BenchSpec, reports: &[WorkloadReport], trace: bool) -> Result<(), String> {
    for r in reports.iter().filter(|r| r.failed < r.attempted) {
        let mut wanted: Vec<(&Vec<Measured>, &MetricDef)> =
            spec.end_to_end.iter().map(|d| (&r.end_to_end, d)).collect();
        if trace {
            wanted.extend(spec.per_layer.iter().map(|d| (&r.per_layer, d)));
        }
        for (measured, def) in wanted {
            match measured.iter().find(|m| m.name == def.name) {
                Some(m) if m.unit == def.unit => {}
                Some(m) => {
                    return Err(format!(
                        "{}: {} is measured in {}, BENCHMARK.json says {}",
                        r.name, def.name, m.unit, def.unit
                    ))
                }
                None => return Err(format!("{}: {} was not measured", r.name, def.name)),
            }
        }
    }
    Ok(())
}

fn measured(name: &str, unit: &str, values: &[f64]) -> Measured {
    Measured {
        name: name.to_string(),
        unit: unit.to_string(),
        stats: Stats::of(values),
    }
}

fn fail(name: &str, report: &mut WorkloadReport, why: String) {
    eprintln!("{name}: FAILED: {why}");
    report.failed += 1;
    report.failures.push(why);
}

/// Run one workload.
fn run_workload(
    name: &str,
    opts: &RunOptions,
    threads: usize,
    pinned: Vec<(u64, Digests)>,
    work: &Path,
    report_dir: &Path,
) -> Result<WorkloadReport, String> {
    // Reject an unknown workload before spawning anything.
    workloads::spec(name, opts.seed, opts.scale)?;
    let seeds = workloads::seeds(name, opts.seed, opts.scale);
    let mut report = WorkloadReport {
        name: name.to_string(),
        seeds: seeds.clone(),
        ..WorkloadReport::default()
    };
    let mut digests = DigestCheck {
        pinned: !pinned.is_empty(),
        expected: pinned,
    };
    // A traced run needs one timed repetition for the efficiencies; an
    // untraced run repeats until the budget is spent, at least three
    // times.
    let min_reps = if opts.trace { 1 } else { 3 };
    let start = Instant::now();
    let mut timed: Vec<Repetition> = Vec::new();
    let mut last_wall = 0.0;
    loop {
        let k = report.attempted;
        let done = match opts.reps {
            Some(n) => k >= n,
            None => {
                k >= min_reps
                    && (opts.trace || start.elapsed().as_secs_f64() + last_wall > opts.seconds)
            }
        };
        if done {
            break;
        }
        report.attempted += 1;
        let rep_start = Instant::now();
        let mut rep = Repetition::default();
        let mut failure = None;
        for (i, &seed) in seeds.iter().enumerate() {
            let dir = work.join(format!("{name}-{k}-{i}"));
            let child = campaign::spawn(name, seed, opts.scale, threads, &dir)
                .and_then(|c| digests.check(seed, &c.out).map(|()| c));
            std::fs::remove_dir_all(&dir).ok();
            match child {
                Ok(c) => rep.add(&c),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        last_wall = rep_start.elapsed().as_secs_f64();
        match failure {
            None => {
                eprintln!(
                    "{name} rep {}: campaigns {:.3} s, setup {:.3} s, sweep {:.3} s",
                    k + 1,
                    rep.wall_s,
                    rep.setup_s,
                    rep.sweep_s
                );
                timed.push(rep);
            }
            Some(e) => fail(name, &mut report, e),
        }
    }
    if !timed.is_empty() {
        let col = |f: fn(&Repetition) -> f64| timed.iter().map(f).collect::<Vec<f64>>();
        report.end_to_end = vec![
            measured("campaign_s", "s", &col(|r| r.wall_s)),
            measured("setup_s", "s", &col(|r| r.setup_s)),
            measured("sweep_s", "s", &col(|r| r.sweep_s)),
            measured(
                "peak_rss_mb",
                "MiB",
                &col(|r| r.peak_rss_kib as f64 / 1024.0 / r.campaigns as f64),
            ),
        ];
    }
    if opts.trace {
        traced_breakdown(
            name,
            opts,
            start,
            &timed,
            &mut report,
            &mut digests,
            work,
            report_dir,
        );
    }
    if report.failed == 0 {
        report.digests = digests.expected;
    }
    Ok(report)
}

/// One untraced one-CPU campaign at the run's seed as the
/// baseline, then traced replays checked against its artifacts until
/// the budget is spent (one with `--reps`); per-layer metrics and layer
/// shares are medians over the replays.
#[allow(clippy::too_many_arguments)]
fn traced_breakdown(
    name: &str,
    opts: &RunOptions,
    start: Instant,
    timed: &[Repetition],
    report: &mut WorkloadReport,
    digests: &mut DigestCheck,
    work: &Path,
    report_dir: &Path,
) {
    let base_dir = work.join(format!("{name}-1t"));
    report.attempted += 1;
    let base = match campaign::spawn(name, opts.seed, opts.scale, 1, &base_dir)
        .and_then(|c| digests.check(opts.seed, &c.out).map(|()| c))
    {
        Ok(c) => c,
        Err(e) => {
            fail(name, report, format!("one-CPU baseline: {e}"));
            std::fs::remove_dir_all(&base_dir).ok();
            return;
        }
    };
    let spans_path = report_dir.join(format!("trace-{name}.json"));
    let mut replays: Vec<(Named, Named)> = Vec::new();
    let mut last_wall = 0.0;
    loop {
        let j = replays.len();
        let spent = start.elapsed().as_secs_f64() + last_wall > opts.seconds;
        if j > 0 && (opts.reps.is_some() || spent) {
            break;
        }
        report.attempted += 1;
        let replay_start = Instant::now();
        let dir = work.join(format!("{name}-traced-{j}"));
        let traced = spawn_traced(name, opts, &dir, &base_dir.join("out"), &spans_path);
        std::fs::remove_dir_all(&dir).ok();
        last_wall = replay_start.elapsed().as_secs_f64();
        match traced {
            Ok((mut metrics, shares)) => {
                let traced_wall = metrics
                    .iter()
                    .find(|(n, _)| n == "traced_wall_s")
                    .map_or(0.0, |(_, v)| *v);
                metrics.push((
                    "tracing_overhead".into(),
                    traced_wall / (base.out.setup_s + base.out.sweep_s) - 1.0,
                ));
                replays.push((metrics, shares));
            }
            Err(e) => {
                fail(name, report, format!("traced replay: {e}"));
                break;
            }
        }
    }
    std::fs::remove_dir_all(&base_dir).ok();
    let Some((first_metrics, first_shares)) = replays.first() else {
        return;
    };
    // Every replay reports the same names in the same order.
    let column = |pick: fn(&(Named, Named)) -> &Named, i: usize| -> Vec<f64> {
        replays.iter().map(|r| pick(r)[i].1).collect()
    };
    report.per_layer = first_metrics
        .iter()
        .enumerate()
        .map(|(i, (n, _))| measured(n, traced::unit(n).unwrap_or("?"), &column(|r| &r.0, i)))
        .collect();
    // Busy share of the pool during each phase of the timed repetitions.
    if !timed.is_empty() {
        let efficiency = |cpu: fn(&Repetition) -> f64, wall: fn(&Repetition) -> f64| {
            timed
                .iter()
                .map(|r| cpu(r) / (r.threads as f64 * wall(r)))
                .collect::<Vec<f64>>()
        };
        report.per_layer.push(measured(
            "engine.setup_efficiency",
            "fraction",
            &efficiency(|r| r.setup_cpu_s, |r| r.setup_s),
        ));
        report.per_layer.push(measured(
            "engine.sweep_efficiency",
            "fraction",
            &efficiency(|r| r.sweep_cpu_s, |r| r.sweep_s),
        ));
    }
    let mut shares: Named = first_shares
        .iter()
        .map(|(layer, _)| {
            let values: Vec<f64> = replays
                .iter()
                .filter_map(|(_, s)| s.iter().find(|(l, _)| l == layer).map(|(_, v)| *v))
                .collect();
            (layer.clone(), Stats::of(&values).median)
        })
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    report.layer_share = shares;
}

/// Spawn the traced replay child and parse its metrics and shares.
fn spawn_traced(
    name: &str,
    opts: &RunOptions,
    dir: &Path,
    reference: &Path,
    spans_path: &Path,
) -> Result<(Named, Named), String> {
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let output = campaign::child_command("traced", name, opts.seed, opts.scale, &tmp)
        .arg("--out")
        .arg(dir.join("out"))
        .arg("--reference")
        .arg(reference)
        .arg("--spans")
        .arg(spans_path)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn traced replay: {e}"))?;
    if !output.status.success() {
        return Err(format!("traced replay exited with {}", output.status));
    }
    let v = serde_json::value_from_slice(campaign::last_line(&output.stdout)?.as_bytes())
        .map_err(|e| format!("bad traced replay result: {e}"))?;
    let pairs = |key: &str| -> Result<Named, String> {
        match v.get(key) {
            Some(Value::Map(m)) => m
                .iter()
                .map(|(k, x)| {
                    crate::report::num(x)
                        .map(|x| (k.clone(), x))
                        .ok_or_else(|| format!("{key}.{k} is not a number"))
                })
                .collect(),
            _ => Err(format!("traced replay result lacks `{key}`")),
        }
    };
    Ok((pairs("metrics")?, pairs("shares")?))
}

/// Traced child entry point: replay, write the spans, print the metrics
/// and layer shares as one JSON line.
pub fn traced_child(
    name: &str,
    seed: u64,
    scale: Scale,
    out: &Path,
    reference: &Path,
    spans_path: &Path,
) -> Result<(), String> {
    let spec = workloads::spec(name, seed, scale)?;
    let t = traced::child(&spec, out, reference)?;
    let mut spans = crate::spans::to_value(&t.spans);
    if let Value::Map(entries) = &mut spans {
        entries.insert(0, ("workload".into(), Value::Str(name.to_string())));
    }
    let text = serde_json::to_string(&Json(&spans)).expect("spans serialize");
    std::fs::write(spans_path, text).map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    let map = |pairs: Vec<(String, f64)>| {
        Value::Map(pairs.into_iter().map(|(k, v)| (k, Value::F64(v))).collect())
    };
    let line = Value::Map(vec![
        (
            "metrics".into(),
            map(t
                .metrics
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect()),
        ),
        ("shares".into(), map(t.shares)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&Json(&line)).expect("metrics serialize")
    );
    Ok(())
}

/// The human-readable table of one workload's results.
pub fn print_table(r: &WorkloadReport) {
    println!(
        "\n{} — {} attempted, {} failed (fail_rate {})",
        r.name,
        r.attempted,
        r.failed,
        r.fail_rate()
    );
    for why in &r.failures {
        println!("  failure: {why}");
    }
    if !r.end_to_end.is_empty() {
        println!(
            "  {:<28} {:<9} {:>12} {:>12} {:>12} {:>4}",
            "end-to-end", "unit", "median", "min", "max", "n"
        );
        for m in &r.end_to_end {
            let s = &m.stats;
            println!(
                "  {:<28} {:<9} {:>12.4} {:>12.4} {:>12.4} {:>4}",
                m.name,
                m.unit,
                s.median,
                s.min,
                s.max,
                s.values.len()
            );
        }
    }
    if !r.per_layer.is_empty() {
        println!(
            "  {:<28} {:<9} {:>12}",
            "per-layer (traced)", "unit", "value"
        );
        for m in &r.per_layer {
            println!("  {:<28} {:<9} {:>12.4}", m.name, m.unit, m.stats.median);
        }
        let shares: Vec<String> = r
            .layer_share
            .iter()
            .map(|(l, s)| format!("{l} {:.1}%", 100.0 * s))
            .collect();
        println!("  share of traced wall time: {}", shares.join(", "));
    }
}

/// The one-line result for a single-workload run: every metric
/// `BENCHMARK.json` declares for the mode, each as its median.
pub fn contract_line(spec: &BenchSpec, r: &WorkloadReport, trace: bool) -> String {
    let (defs, measured) = if trace {
        (&spec.per_layer, &r.per_layer)
    } else {
        (&spec.end_to_end, &r.end_to_end)
    };
    let metrics = defs
        .iter()
        .filter_map(|d| measured.iter().find(|m| m.name == d.name))
        .map(|m| {
            (
                m.name.clone(),
                Value::Map(vec![
                    ("value".into(), Value::F64(m.stats.median)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]),
            )
        })
        .collect();
    let v = Value::Map(vec![
        ("correct".into(), Value::Bool(r.failed == 0)),
        ("attempted".into(), Value::U64(r.attempted as u64)),
        ("failed".into(), Value::U64(r.failed as u64)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&Json(&v)).expect("result serializes")
}
