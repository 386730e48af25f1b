//! Campaign planning: the *what to run* half of campaign execution.
//!
//! A [`CampaignPlan`] is the deterministic, serializable expansion of a
//! [`CampaignSpec`]: the ordered scenario list with stable per-campaign
//! scenario IDs, globally unique artifact slugs (slug collisions are
//! suffixed at plan time, in plan order, so every executor — in-process,
//! sharded, multi-process — names artifacts identically), each
//! scenario's cohort and shard, and a content hash over the spec and the
//! expansion. Executors ([`crate::exec`]) consume plans; the merger
//! ([`crate::merge`]) uses the plan hash and the ID space to prove a set
//! of shard artifact directories reassembles exactly this plan.
//!
//! The plan is the one place scenarios are grouped into cohorts, the
//! scenarios that share one simulation ([`Scenario::same_cohort`]), and
//! shards hold whole cohorts: each cohort, in order of first appearance,
//! goes to the currently lightest shard (ties to the lowest index). A
//! cohort weighs the sum over its members of their estimated cost times
//! their processor count, so a sharded run simulates every cohort once,
//! as the unsharded run does. When every cohort has one member and the
//! same weight, the assignment is round-robin by scenario ID.
//!
//! The plan hash deliberately excludes the shard count: splitting the
//! same spec 1-way or 5-way yields the same hash, so a merged sharded
//! campaign is provably the same campaign as the unsharded run.

use crate::campaign::CampaignSpec;
use crate::merge::ManifestEntry;
use crate::scenario::Scenario;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The field-less remnant of the shard-assignment strategy, kept for
/// callers that still pass one to [`CampaignPlan::new`]
/// (`samr-benchmark`'s traced replay). Shards hold whole cohorts, so
/// there is nothing to choose and the plan ignores it; the type leaves
/// once that replay runs the engine itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStrategy;

/// One scenario of a plan: the scenario description plus everything the
/// plan decided about it — its stable ID (the plan-order index), its
/// globally unique artifact slug, its cohort and the shard it runs on.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlannedScenario {
    /// Stable scenario ID: the index in plan order. IDs are the merge
    /// currency — a valid shard set covers every ID exactly once.
    pub id: usize,
    /// Unique artifact slug: the scenario slug, suffixed `-2`, `-3`, …
    /// in plan order when two scenarios (e.g. same-family partitioners
    /// with different unnamed parameters) would collide.
    pub slug: String,
    /// The cohort this scenario runs in: the index, in order of first
    /// appearance, of the scenarios it shares one simulation with.
    pub cohort: usize,
    /// The shard this scenario is assigned to (`0..nshards`): its
    /// cohort's.
    pub shard: usize,
    /// The fully described scenario.
    pub scenario: Scenario,
}

impl PlannedScenario {
    /// The scenario's (id, slug) as manifests list it.
    pub(crate) fn entry(&self) -> ManifestEntry {
        ManifestEntry {
            id: self.id,
            slug: self.slug.clone(),
        }
    }
}

/// The deterministic, serializable expansion of a campaign spec — see
/// the [module docs](self).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CampaignPlan {
    /// The spec this plan expands (carried so shard manifests and the
    /// campaign manifest can reproduce the campaign from artifacts
    /// alone).
    pub spec: CampaignSpec,
    /// Content hash over the spec and the expanded slug list (hex
    /// FNV-1a); independent of `nshards`.
    pub plan_hash: String,
    /// Number of shards the plan is split into (≥ 1).
    pub nshards: usize,
    /// Every scenario, in plan order (`scenarios[i].id == i`).
    pub scenarios: Vec<PlannedScenario>,
}

impl CampaignPlan {
    /// Expand a spec into a plan split `nshards` ways (`0` is treated
    /// as `1`), whole cohorts to a shard (see the [module docs](self)).
    pub fn new(spec: &CampaignSpec, nshards: usize, _: ShardStrategy) -> Self {
        let nshards = nshards.max(1);
        let scenarios = spec.scenarios();
        let slugs = unique_slugs(&scenarios);
        let cohorts = cohort_ids(&scenarios);
        let shards = assign_shards(&scenarios, &cohorts, nshards);
        let plan_hash = plan_hash(spec, &slugs);
        let scenarios = scenarios
            .into_iter()
            .zip(slugs)
            .zip(cohorts.into_iter().zip(shards))
            .enumerate()
            .map(
                |(id, ((scenario, slug), (cohort, shard)))| PlannedScenario {
                    id,
                    slug,
                    cohort,
                    shard,
                    scenario,
                },
            )
            .collect();
        Self {
            spec: spec.clone(),
            plan_hash,
            nshards,
            scenarios,
        }
    }

    /// Number of scenarios in the plan.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// `true` when the plan has no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The scenarios assigned to one shard, in plan order.
    pub fn shard_scenarios(&self, shard: usize) -> Vec<&PlannedScenario> {
        self.scenarios.iter().filter(|p| p.shard == shard).collect()
    }
}

/// Assign each scenario slug its globally unique artifact name:
/// first occurrence keeps the bare slug, repeats get `-2`, `-3`, … in
/// plan order (the suffixing `Campaign::run_to_dir` used to apply at
/// write time, now decided once so every executor agrees).
fn unique_slugs(scenarios: &[Scenario]) -> Vec<String> {
    let mut used: HashMap<String, usize> = HashMap::new();
    scenarios
        .iter()
        .map(|s| {
            let base = s.slug();
            let n = used.entry(base.clone()).or_insert(0);
            *n += 1;
            if *n == 1 {
                base
            } else {
                format!("{base}-{n}")
            }
        })
        .collect()
}

/// Each scenario's cohort: the index, in order of first appearance, of
/// the scenarios it shares one simulation with
/// ([`Scenario::same_cohort`]).
fn cohort_ids(scenarios: &[Scenario]) -> Vec<usize> {
    let mut firsts: Vec<&Scenario> = Vec::new();
    scenarios
        .iter()
        .map(|s| {
            firsts
                .iter()
                .position(|f| f.same_cohort(s))
                .unwrap_or_else(|| {
                    firsts.push(s);
                    firsts.len() - 1
                })
        })
        .collect()
}

/// Rough relative cost of simulating one scenario: snapshots to stream
/// × cells per base grid, doubled for a scenario that can switch (its
/// cohort runs the strictly sequential window-1 driver). Only ratios
/// matter — the estimate steers balance, not correctness.
fn scenario_weight(s: &Scenario) -> u128 {
    let cells = (s.trace.base_cells.max(1) as u128).saturating_pow(s.dim as u32);
    let steps = s.trace.steps.max(1) as u128;
    let sequential = if s.static_choice().is_none() { 2 } else { 1 };
    steps.saturating_mul(cells).saturating_mul(sequential)
}

/// Each scenario's shard: every cohort, in order of first appearance,
/// goes whole to the currently lightest shard (ties to the lowest
/// index), weighing the sum of its members' [`scenario_weight`] times
/// their processor counts.
fn assign_shards(scenarios: &[Scenario], cohorts: &[usize], nshards: usize) -> Vec<usize> {
    let mut weights = vec![0u128; cohorts.iter().max().map_or(0, |&c| c + 1)];
    for (s, &c) in scenarios.iter().zip(cohorts) {
        let w = scenario_weight(s).saturating_mul(s.sim.nprocs as u128);
        weights[c] = weights[c].saturating_add(w);
    }
    let mut load = vec![0u128; nshards];
    let shard_of: Vec<usize> = weights
        .into_iter()
        .map(|w| {
            let shard = (0..nshards).min_by_key(|&i| load[i]).expect("nshards >= 1");
            load[shard] = load[shard].saturating_add(w);
            shard
        })
        .collect();
    cohorts.iter().map(|&c| shard_of[c]).collect()
}

/// FNV-1a over a sequence of byte chunks, rendered as 16 hex digits —
/// the one digest the engine uses for plan hashes, completion-record
/// artifact digests ([`crate::resume`]) and spill-file names
/// ([`crate::store`]). Chunk boundaries do not affect the hash; only
/// the concatenated byte stream does.
pub(crate) fn fnv1a_hex<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in chunk {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// FNV-1a over the serialized spec and the expanded slug list: stable
/// across processes and builds of the same spec, sensitive to any axis
/// or expansion change.
fn plan_hash(spec: &CampaignSpec, slugs: &[String]) -> String {
    let spec_json = serde_json::to_string(spec).expect("CampaignSpec serializes");
    let mut chunks: Vec<&[u8]> = Vec::with_capacity(1 + 2 * slugs.len());
    chunks.push(spec_json.as_bytes());
    for slug in slugs {
        chunks.push(slug.as_bytes());
        chunks.push(b"\n");
    }
    fnv1a_hex(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PartitionerSpec;
    use samr_apps::{AppKind, TraceGenConfig};
    use samr_partition::{HybridParams, PartitionerChoice};
    use samr_sim::MachineModel;

    fn spec() -> CampaignSpec {
        CampaignSpec::new(TraceGenConfig::smoke())
            .apps([AppKind::Tp2d, AppKind::Sc2d])
            .partitioners([
                PartitionerSpec::parse("hybrid").unwrap(),
                PartitionerSpec::parse("domain-sfc").unwrap(),
            ])
            .nprocs([4, 8])
    }

    #[test]
    fn plan_is_deterministic_and_ids_are_plan_order() {
        let a = CampaignPlan::new(&spec(), 3, ShardStrategy);
        let b = CampaignPlan::new(&spec(), 3, ShardStrategy);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        for (i, p) in a.scenarios.iter().enumerate() {
            assert_eq!(p.id, i);
        }
    }

    #[test]
    fn plan_hash_is_shard_invariant_but_spec_sensitive() {
        let one = CampaignPlan::new(&spec(), 1, ShardStrategy);
        let three = CampaignPlan::new(&spec(), 3, ShardStrategy);
        let five = CampaignPlan::new(&spec(), 5, ShardStrategy);
        assert_eq!(one.plan_hash, three.plan_hash);
        assert_eq!(one.plan_hash, five.plan_hash);
        let other = CampaignPlan::new(&spec().nprocs([4]), 1, ShardStrategy);
        assert_ne!(one.plan_hash, other.plan_hash);
    }

    fn shards(plan: &CampaignPlan) -> Vec<usize> {
        plan.scenarios.iter().map(|p| p.shard).collect()
    }

    #[test]
    fn cohorts_go_whole_to_the_lightest_shard() {
        // One-member cohorts of equal weight are dealt round-robin.
        let even = spec().nprocs([8]);
        assert_eq!(
            shards(&CampaignPlan::new(&even, 3, ShardStrategy)),
            [0, 1, 2, 0]
        );
        // A cohort weighs its processor count: the 256-processor cohorts
        // do not both land on shard 1.
        let uneven = CampaignSpec::new(TraceGenConfig::smoke())
            .apps([AppKind::Tp2d])
            .partitioners([
                PartitionerSpec::parse("hybrid").unwrap(),
                PartitionerSpec::parse("domain-sfc").unwrap(),
            ])
            .nprocs([64, 256]);
        assert_eq!(
            shards(&CampaignPlan::new(&uneven, 2, ShardStrategy)),
            [0, 1, 0, 0]
        );
        // A static choice's machines form one cohort, and so does every
        // scenario that can switch on one stream: each goes whole.
        let machines = CampaignSpec::new(TraceGenConfig::smoke())
            .apps([AppKind::Tp2d])
            .partitioners([
                PartitionerSpec::parse("hybrid").unwrap(),
                PartitionerSpec::Meta,
            ])
            .nprocs([8])
            .machines([MachineModel::default(), MachineModel::slow_network()]);
        let plan = CampaignPlan::new(&machines, 2, ShardStrategy);
        let cohorts: Vec<usize> = plan.scenarios.iter().map(|p| p.cohort).collect();
        assert_eq!(cohorts, [0, 0, 1, 1]);
        assert_eq!(shards(&plan), [0, 0, 1, 1]);
    }

    #[test]
    fn colliding_slugs_are_suffixed_in_plan_order() {
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
        let plan = CampaignPlan::new(&spec, 1, ShardStrategy);
        let slugs: Vec<&str> = plan.scenarios.iter().map(|p| p.slug.as_str()).collect();
        assert_eq!(slugs, vec!["tp2d_hybrid_p4_g1", "tp2d_hybrid_p4_g1-2"]);
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = CampaignPlan::new(&spec(), 3, ShardStrategy);
        let json = serde_json::to_string(&plan).unwrap();
        let back: CampaignPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn zero_shards_is_one_shard() {
        let plan = CampaignPlan::new(&spec(), 0, ShardStrategy);
        assert_eq!(plan.nshards, 1);
        assert!(plan.scenarios.iter().all(|p| p.shard == 0));
    }
}
