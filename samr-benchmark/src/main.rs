//! `samr-benchmark` — a cold end-to-end campaign benchmark for the SAMR
//! pipeline (trace → regrid → partition → comm/migration accounting →
//! model → artifacts), with an opt-in traced per-layer breakdown.
//!
//! ```text
//! samr-benchmark run [--workload NAME]... [--seed N] [--seconds S | --reps N]
//!                    [--trace 0|1] [--scale smoke|bench|full] [--out FILE]
//!                    [--digests FILE] [--pin]
//! samr-benchmark compare BASE.json CHANGE.json
//! ```
//!
//! `run --workload NAME --seed N --seconds S --trace 0|1` is the
//! benchmark's interface, with `S` the `run_seconds` of `BENCHMARK.json`
//! (also the default).
//!
//! `run` times repetitions of each workload. A repetition runs one cold
//! campaign per repetition seed, each in its own child process with a
//! fresh `TMPDIR` (the engine's trace spill cache lives under the temp
//! dir and is shared across processes), confined to `min(2, nproc)` CPUs
//! with a pool as wide, and no cache or window overrides. Every
//! campaign's artifacts are checked against the digests pinned in
//! `digests.json` (run seed 2004) or against the first repetition's
//! (any other seed). `run` prints every
//! metric with its unit, median, min, max and n, and writes a report;
//! with one workload its last stdout line is a one-line JSON result.
//! Any failed check makes it exit 1. See `README.md` for the workloads
//! and metrics.
//!
//! `compare` gives each (workload, end-to-end metric) pair of two
//! reports a verdict under the bounds of `BENCHMARK.json`, and exits 1
//! on a regression or a higher fail rate.

mod campaign;
mod report;
mod run;
mod spans;
mod traced;
mod workloads;

use report::BenchSpec;
use std::path::PathBuf;
use workloads::Scale;

const USAGE: &str = "usage:
  samr-benchmark run [--workload NAME]... [--seed N] [--seconds S | --reps N]
                     [--trace 0|1] [--scale smoke|bench|full] [--out FILE]
                     [--digests FILE] [--pin]
  samr-benchmark compare BASE.json CHANGE.json";

/// Parsed command line.
#[derive(Default)]
struct Args {
    mode: String,
    workloads: Vec<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    reps: Option<usize>,
    trace: bool,
    scale: Scale,
    pin: bool,
    threads: Option<usize>,
    out: Option<PathBuf>,
    digests: Option<PathBuf>,
    reference: Option<PathBuf>,
    spans: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut it = raw.iter();
    let mut a = Args {
        mode: it.next().ok_or("missing subcommand")?.clone(),
        ..Args::default()
    };
    fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(s: String, flag: &str) -> Result<T, String> {
        s.parse()
            .map_err(|_| format!("{flag}: '{s}' is not a valid number"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => a
                .workloads
                .extend(value(&mut it, arg)?.split(',').map(str::to_string)),
            "--seed" => a.seed = Some(number(value(&mut it, arg)?, arg)?),
            "--seconds" => a.seconds = Some(number(value(&mut it, arg)?, arg)?),
            "--reps" => a.reps = Some(number(value(&mut it, arg)?, arg)?),
            "--threads" => a.threads = Some(number(value(&mut it, arg)?, arg)?),
            "--trace" => {
                a.trace = match value(&mut it, arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--scale" => a.scale = Scale::parse(&value(&mut it, arg)?)?,
            "--pin" => a.pin = true,
            "--out" => a.out = Some(value(&mut it, arg)?.into()),
            "--digests" => a.digests = Some(value(&mut it, arg)?.into()),
            "--reference" => a.reference = Some(value(&mut it, arg)?.into()),
            "--spans" => a.spans = Some(value(&mut it, arg)?.into()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    if a.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) || a.reps == Some(0) {
        return Err("--seconds and --reps must be positive".into());
    }
    Ok(a)
}

fn one_workload(a: &Args) -> Result<&str, String> {
    match a.workloads.as_slice() {
        [w] => Ok(w),
        _ => Err(format!("{} needs exactly one --workload", a.mode)),
    }
}

fn required<'a>(p: &'a Option<PathBuf>, flag: &str) -> Result<&'a PathBuf, String> {
    p.as_ref().ok_or_else(|| format!("{flag} is required"))
}

/// Run a subcommand; `Ok(code)` is the process exit code.
fn dispatch(a: Args) -> Result<i32, String> {
    let seed = a.seed.unwrap_or(run::PINNED_SEED);
    match a.mode.as_str() {
        "run" => {
            let spec = BenchSpec::load(&report::default_spec_path())?;
            let workloads = if a.workloads.is_empty() {
                spec.workloads.clone()
            } else {
                a.workloads.clone()
            };
            let opts = run::RunOptions {
                workloads,
                seed,
                seconds: a.seconds.unwrap_or(spec.run_seconds),
                reps: a.reps,
                trace: a.trace,
                scale: a.scale,
                out: a
                    .out
                    .clone()
                    .unwrap_or_else(|| run::default_work_dir().join("benchmark.json")),
                digests: a.digests.clone().unwrap_or_else(run::default_digests_path),
                pin: a.pin,
            };
            if let Some(dir) = opts.out.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("create {}: {e}", dir.display()))?;
            }
            let reports = run::run(&spec, &opts)?;
            for r in &reports {
                run::print_table(r);
            }
            println!("\nreport: {}", opts.out.display());
            if let [r] = reports.as_slice() {
                println!("{}", run::contract_line(&spec, r, opts.trace));
            }
            Ok(if reports.iter().all(|r| r.failed == 0) {
                0
            } else {
                1
            })
        }
        "compare" => {
            let [base, change] = a.positional.as_slice() else {
                return Err("compare needs BASE.json CHANGE.json".into());
            };
            let spec = BenchSpec::load(&report::default_spec_path())?;
            let load = |p: &str| -> Result<serde::Value, String> {
                let bytes = std::fs::read(p).map_err(|e| format!("read {p}: {e}"))?;
                serde_json::value_from_slice(&bytes).map_err(|e| format!("{p}: {e}"))
            };
            let (rows, failing) = report::compare(&spec, &load(base)?, &load(change)?)?;
            println!(
                "{:<10} {:<14} {:>12} {:>12} {:>8}  verdict",
                "workload", "metric", "base", "change", "delta"
            );
            for r in &rows {
                println!(
                    "{:<10} {:<14} {:>12.4} {:>12.4} {:>7.1}%  {:?}",
                    r.workload,
                    r.metric,
                    r.base,
                    r.change,
                    100.0 * (r.change - r.base) / r.base,
                    r.verdict
                );
            }
            Ok(i32::from(failing))
        }
        "campaign" => {
            let name = one_workload(&a)?;
            let spec = workloads::spec(name, seed, a.scale)?;
            let out = campaign::child(&spec, a.threads.unwrap_or(1), required(&a.out, "--out")?)?;
            println!(
                "{}",
                serde_json::to_string(&out).expect("campaign output serializes")
            );
            Ok(0)
        }
        "traced" => {
            run::traced_child(
                one_workload(&a)?,
                seed,
                a.scale,
                required(&a.out, "--out")?,
                required(&a.reference, "--reference")?,
                required(&a.spans, "--spans")?,
            )?;
            Ok(0)
        }
        other => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&raw).and_then(dispatch) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("samr-benchmark: {e}");
            if raw.is_empty() {
                eprintln!("{USAGE}");
            }
            2
        }
    };
    std::process::exit(code);
}
