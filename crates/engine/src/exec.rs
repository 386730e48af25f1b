//! Campaign execution: the *where and how it runs* half of a campaign.
//!
//! Every path runs a slice of a [`CampaignPlan`] the same way, as
//! [`cohorts`]: the scenarios the plan grouped to share a snapshot
//! stream, a processor count and a static choice run as one simulation
//! ([`Scenario::run_cohort`]), and each member's outcome is its own.
//! A slice's cohorts are one parallel map on the caller's rayon pool,
//! which balances them: each worker starts on its contiguous share, in
//! plan order, and takes unstarted cohorts from the back of another's
//! when its own runs out. The plan puts each cohort whole on one shard,
//! so a sharded run simulates every cohort once.
//!
//! - [`Campaign::run`](crate::Campaign::run) keeps the outcomes in
//!   memory, in plan order;
//! - [`Campaign::run_to_dir`](crate::Campaign::run_to_dir) and
//!   [`ShardExecutor`] run a slice into a directory — the whole plan, or
//!   one `--shard i/n` slice into a self-describing `shard-<i>-of-<n>/`
//!   directory with a [`ShardManifest`] that [`crate::merge`] validates
//!   and reassembles. They drop each outcome once its artifacts are
//!   stamped and keep only its digest line.
//!
//! One host runs a campaign in one process, its pool capped by
//! [`build_thread_pool`]; many hosts each run one shard and a merge
//! reassembles them.
//!
//! A slice run into a directory is crash-consistent and resumable:
//! every artifact goes through [`crate::atomic::atomic_write`]
//! (tmp-then-rename, never a torn file), every finished scenario is
//! stamped with a [`CompletionRecord`], and with `resume` set the run
//! re-validates existing records against the current plan and executes
//! only the scenarios that are not provably done, so a killed run costs
//! its unfinished remainder, not the whole sweep.

use crate::atomic::atomic_write;
use crate::merge::ShardManifest;
use crate::plan::{CampaignPlan, PlannedScenario};
use crate::resume::CompletionRecord;
use crate::scenario::{Scenario, ScenarioOutcome};
use crate::store::cached_model;
use rayon::prelude::*;
use samr_apps::AppKind;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Warm the process-wide store: one trace + model per distinct
/// application, generated in parallel, so the scenario sweep itself is
/// pure partition-and-simulate work.
fn warm_store(scenarios: &[&PlannedScenario]) {
    let mut apps: Vec<(AppKind, &PlannedScenario)> = Vec::new();
    for p in scenarios {
        if !apps.iter().any(|(a, _)| *a == p.scenario.app) {
            apps.push((p.scenario.app, p));
        }
    }
    apps.par_iter().for_each(|(app, p)| {
        cached_model(*app, &p.scenario.trace);
    });
}

/// Split a slice of planned scenarios into the cohorts the plan
/// recorded ([`PlannedScenario::cohort`]), in order of first appearance,
/// each in slice order. In a plan, a cohort of scenarios that never
/// switch is the members of the innermost `machines` axis; every
/// scenario that can switch on one stream and processor count joins one
/// cohort, whatever its partitioner, policy and machine. A slice — one
/// shard's scenarios, the remainder a resume left — holds whole cohorts
/// or, after a resume, what is left of them; completion stays per
/// scenario.
pub fn cohorts<'a>(scenarios: &[&'a PlannedScenario]) -> Vec<Vec<&'a PlannedScenario>> {
    let mut out: Vec<Vec<&'a PlannedScenario>> = Vec::new();
    for &p in scenarios {
        match out.iter_mut().find(|c| c[0].cohort == p.cohort) {
            Some(cohort) => cohort.push(p),
            None => out.push(vec![p]),
        }
    }
    out
}

/// Run a slice of planned scenarios, its cohorts in parallel, and hand
/// each member's outcome to `finish` the moment its cohort completes.
/// Returns what `finish` made of each scenario, in input order.
///
/// The cohorts are one parallel map, so the pool balances them: each
/// worker starts on its contiguous share of the cohorts, in slice
/// order, and a worker that runs out takes the unstarted cohorts at the
/// back of the longest share, so uneven cohorts do not leave it idle. A
/// slice with one cohort runs on the calling thread, where the cohort's
/// own partitions can still run in parallel.
pub(crate) fn run_cohorts<'a, R: Send>(
    scenarios: &[&'a PlannedScenario],
    finish: impl Fn(&'a PlannedScenario, ScenarioOutcome) -> R + Sync,
) -> Vec<R> {
    warm_store(scenarios);
    let done: Vec<Vec<(usize, R)>> = cohorts(scenarios)
        .par_iter()
        .map(|cohort| {
            let members: Vec<&Scenario> = cohort.iter().map(|p| &p.scenario).collect();
            let outcomes = Scenario::run_cohort(&members);
            cohort
                .iter()
                .zip(outcomes)
                .map(|(p, outcome)| (p.id, finish(p, outcome)))
                .collect()
        })
        .collect();
    let mut by_id: HashMap<usize, R> = done.into_iter().flatten().collect();
    scenarios
        .iter()
        .map(|p| by_id.remove(&p.id).expect("every scenario ran"))
        .collect()
}

/// Run a slice of planned scenarios into `dir`, its cohorts
/// rayon-parallel, writing and stamping each scenario's artifacts *the
/// moment its cohort finishes* — checkpointing is per scenario, not per
/// batch, so a process killed mid-sweep has durably banked every
/// scenario whose cohort completed before the kill.
///
/// With `resume` set, a scenario whose completion record in `dir`
/// validates against `plan_hash` is skipped; everything else — no
/// record, no artifact, stale plan, torn bytes — (re-)runs. Each outcome
/// is dropped once its artifacts are stamped, keeping only its
/// [`ScenarioOutcome::digest`] line. Returns those lines for the
/// scenarios that ran, in slice order, and how many were skipped.
pub(crate) fn run_slice(
    dir: &Path,
    plan_hash: &str,
    scenarios: &[&PlannedScenario],
    resume: bool,
) -> std::io::Result<(Vec<String>, usize)> {
    let todo: Vec<&PlannedScenario> = scenarios
        .iter()
        .copied()
        .filter(|p| {
            !resume || !CompletionRecord::status(dir, p.id, &p.slug, plan_hash).is_complete()
        })
        .collect();
    let digests = run_cohorts(&todo, |p, outcome| {
        write_scenario_artifacts(dir, p, plan_hash, &outcome)?;
        Ok(outcome.digest())
    })
    .into_iter()
    .collect::<std::io::Result<_>>()?;
    Ok((digests, scenarios.len() - todo.len()))
}

/// Write one scenario's CSV and JSON artifacts under `dir`, named by
/// the planned slug, then stamp the pair with a completion record.
/// Every write is atomic (tmp-then-rename) and the record lands last,
/// so a crash at any instant leaves either no trace of the scenario,
/// whole-but-unstamped artifacts (re-run on resume), or a provably
/// complete pair.
fn write_scenario_artifacts(
    dir: &Path,
    planned: &PlannedScenario,
    plan_hash: &str,
    outcome: &ScenarioOutcome,
) -> std::io::Result<()> {
    let csv = outcome.to_csv();
    atomic_write(&dir.join(format!("{}.csv", planned.slug)), csv.as_bytes())?;
    let json = serde_json::to_string_pretty(&outcome.summary()).expect("summary serializes");
    atomic_write(&dir.join(format!("{}.json", planned.slug)), json.as_bytes())?;
    CompletionRecord::stamp(
        dir,
        planned.id,
        &planned.slug,
        plan_hash,
        csv.as_bytes(),
        json.as_bytes(),
    )?;
    Ok(())
}

/// Build a scoped rayon pool of `threads` workers (`0` = automatic)
/// for campaign execution — the engine behind the CLI's `--threads`,
/// so a campaign can leave cores of its host to other work instead of
/// assuming the whole machine.
pub fn build_thread_pool(threads: usize) -> Result<rayon::ThreadPool, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| format!("build {threads}-thread pool: {e}"))
}

/// The directory name of one shard's artifacts under the campaign
/// directory: `shard-<i>-of-<n>`.
pub fn shard_dir_name(shard: usize, nshards: usize) -> String {
    format!("shard-{shard}-of-{nshards}")
}

/// What one shard execution did: the digest lines of the scenarios it
/// actually executed this run, how many it skipped as already complete
/// (always `0` without resume), and the shard artifact directory.
#[derive(Debug)]
pub struct ShardRun {
    /// [`ScenarioOutcome::digest`] of each scenario executed in this
    /// invocation, in the shard's plan order.
    pub digests: Vec<String>,
    /// Scenarios skipped because their completion records validated
    /// against the current plan.
    pub skipped: usize,
    /// The shard artifact directory (`dir/shard-<i>-of-<n>`).
    pub dir: PathBuf,
}

/// Runs exactly one shard of a plan and writes its self-describing
/// artifact directory. The executor of `samr campaign --shard i/n`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardExecutor {
    /// Which shard of the plan to run (`0..plan.nshards`).
    pub shard: usize,
    /// Skip scenarios already stamped complete in the shard directory
    /// (the `--resume` flag): a crashed or killed shard re-executes
    /// only its remainder.
    pub resume: bool,
}

impl ShardExecutor {
    /// Execute this executor's shard of the plan, writing per-scenario
    /// artifacts, completion records and the shard manifest under
    /// `dir/shard-<i>-of-<n>/` (the manifest last — its presence means
    /// the shard finished). Returns the [`ShardRun`] with the digest
    /// lines of the scenarios executed this invocation.
    pub fn run_shard(&self, plan: &CampaignPlan, dir: &Path) -> std::io::Result<ShardRun> {
        assert!(
            self.shard < plan.nshards,
            "shard {} out of range for a {}-shard plan",
            self.shard,
            plan.nshards
        );
        let start = Instant::now();
        let scenarios = plan.shard_scenarios(self.shard);
        let shard_dir = dir.join(shard_dir_name(self.shard, plan.nshards));
        std::fs::create_dir_all(&shard_dir)?;
        let (digests, skipped) = run_slice(&shard_dir, &plan.plan_hash, &scenarios, self.resume)?;
        let manifest = ShardManifest {
            plan_hash: plan.plan_hash.clone(),
            shard: self.shard,
            nshards: plan.nshards,
            total_scenarios: plan.len(),
            elapsed_seconds: start.elapsed().as_secs_f64(),
            spec: plan.spec.clone(),
            scenarios: scenarios.iter().map(|p| p.entry()).collect(),
        };
        manifest.write(&shard_dir)?;
        Ok(ShardRun {
            digests,
            skipped,
            dir: shard_dir,
        })
    }
}
