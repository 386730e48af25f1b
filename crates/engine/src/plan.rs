//! Campaign planning: the *what to run* half of campaign execution.
//!
//! A [`CampaignPlan`] is the deterministic, serializable expansion of a
//! [`CampaignSpec`]: the ordered scenario list with stable per-campaign
//! scenario IDs, globally unique artifact slugs (slug collisions are
//! suffixed at plan time, in plan order, so every executor — in-process,
//! sharded, multi-process — names artifacts identically), a shard
//! assignment per scenario, and a content hash over the spec and the
//! expansion. Executors ([`crate::exec`]) consume plans; the merger
//! ([`crate::merge`]) uses the plan hash and the ID space to prove a set
//! of shard artifact directories reassembles exactly this plan.
//!
//! The plan hash deliberately excludes the shard count and strategy:
//! splitting the same spec 1-way, 3-way round-robin or 5-way size-aware
//! yields the same hash, so a merged sharded campaign is provably the
//! same campaign as the unsharded run.

use crate::campaign::CampaignSpec;
use crate::merge::ManifestEntry;
use crate::scenario::Scenario;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How the planner distributes scenarios across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardStrategy {
    /// Scenario `id` goes to shard `id % nshards`: trivially
    /// deterministic and well-mixed across the cartesian axes.
    #[default]
    RoundRobin,
    /// Greedy balance by estimated scenario cost: scenarios are walked
    /// in plan order and each goes to the currently lightest shard
    /// (ties to the lowest shard index), so shards finish together even
    /// when the axes mix cheap smoke scenarios with heavy 3-D or
    /// stateful-selector ones. Deterministic for a given plan.
    SizeAware,
}

impl ShardStrategy {
    /// Parse a strategy from its CLI name (`round-robin` or
    /// `size-aware`).
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "round-robin" => Ok(Self::RoundRobin),
            "size-aware" => Ok(Self::SizeAware),
            other => Err(format!(
                "unknown shard strategy '{other}' (expected round-robin or size-aware)"
            )),
        }
    }

    /// The CLI name of the strategy.
    pub fn name(&self) -> &'static str {
        match self {
            Self::RoundRobin => "round-robin",
            Self::SizeAware => "size-aware",
        }
    }
}

/// One scenario of a plan: the scenario description plus everything the
/// plan decided about it — its stable ID (the plan-order index), its
/// globally unique artifact slug and the shard it runs on.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlannedScenario {
    /// Stable scenario ID: the index in plan order. IDs are the merge
    /// currency — a valid shard set covers every ID exactly once.
    pub id: usize,
    /// Unique artifact slug: the scenario slug, suffixed `-2`, `-3`, …
    /// in plan order when two scenarios (e.g. same-family partitioners
    /// with different unnamed parameters) would collide.
    pub slug: String,
    /// The shard this scenario is assigned to (`0..nshards`).
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
    /// FNV-1a); independent of `nshards` and `strategy`.
    pub plan_hash: String,
    /// Number of shards the plan is split into (≥ 1).
    pub nshards: usize,
    /// The strategy that produced the shard assignment.
    pub strategy: ShardStrategy,
    /// Every scenario, in plan order (`scenarios[i].id == i`).
    pub scenarios: Vec<PlannedScenario>,
}

impl CampaignPlan {
    /// Expand a spec into a plan split `nshards` ways (`0` is treated
    /// as `1`).
    pub fn new(spec: &CampaignSpec, nshards: usize, strategy: ShardStrategy) -> Self {
        let nshards = nshards.max(1);
        let scenarios = spec.scenarios();
        let slugs = unique_slugs(&scenarios);
        let shards = assign_shards(&scenarios, nshards, strategy);
        let plan_hash = plan_hash(spec, &slugs);
        let scenarios = scenarios
            .into_iter()
            .zip(slugs)
            .zip(shards)
            .enumerate()
            .map(|(id, ((scenario, slug), shard))| PlannedScenario {
                id,
                slug,
                shard,
                scenario,
            })
            .collect();
        Self {
            spec: spec.clone(),
            plan_hash,
            nshards,
            strategy,
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

/// Rough relative cost of simulating one scenario, for size-aware
/// sharding: snapshots to stream × cells per base grid, doubled for
/// stateful selectors and non-static policies (both strictly
/// sequential, no snapshot parallelism). Only ratios matter — the
/// estimate steers balance, not correctness.
fn scenario_weight(s: &Scenario) -> u128 {
    let cells = (s.trace.base_cells.max(1) as u128).pow(s.dim as u32);
    let steps = s.trace.steps.max(1) as u128;
    let sequential = s.partitioner.stateful() || !s.policy.is_static();
    steps * cells * if sequential { 2 } else { 1 }
}

fn assign_shards(scenarios: &[Scenario], nshards: usize, strategy: ShardStrategy) -> Vec<usize> {
    match strategy {
        ShardStrategy::RoundRobin => (0..scenarios.len()).map(|id| id % nshards).collect(),
        ShardStrategy::SizeAware => {
            let mut load = vec![0u128; nshards];
            scenarios
                .iter()
                .map(|s| {
                    let shard = load
                        .iter()
                        .enumerate()
                        .min_by_key(|(i, &l)| (l, *i))
                        .map(|(i, _)| i)
                        .expect("nshards >= 1");
                    load[shard] += scenario_weight(s);
                    shard
                })
                .collect()
        }
    }
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
        let a = CampaignPlan::new(&spec(), 3, ShardStrategy::RoundRobin);
        let b = CampaignPlan::new(&spec(), 3, ShardStrategy::RoundRobin);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        for (i, p) in a.scenarios.iter().enumerate() {
            assert_eq!(p.id, i);
        }
    }

    #[test]
    fn plan_hash_is_shard_invariant_but_spec_sensitive() {
        let one = CampaignPlan::new(&spec(), 1, ShardStrategy::RoundRobin);
        let three = CampaignPlan::new(&spec(), 3, ShardStrategy::RoundRobin);
        let sized = CampaignPlan::new(&spec(), 5, ShardStrategy::SizeAware);
        assert_eq!(one.plan_hash, three.plan_hash);
        assert_eq!(one.plan_hash, sized.plan_hash);
        let other = CampaignPlan::new(&spec().nprocs([4]), 1, ShardStrategy::RoundRobin);
        assert_ne!(one.plan_hash, other.plan_hash);
    }

    #[test]
    fn round_robin_interleaves_by_id() {
        let plan = CampaignPlan::new(&spec(), 3, ShardStrategy::RoundRobin);
        for p in &plan.scenarios {
            assert_eq!(p.shard, p.id % 3);
        }
        // Every shard covers the plan exactly once, in order.
        let mut ids: Vec<usize> = (0..3)
            .flat_map(|s| {
                plan.shard_scenarios(s)
                    .iter()
                    .map(|p| p.id)
                    .collect::<Vec<_>>()
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..plan.len()).collect::<Vec<_>>());
    }

    #[test]
    fn size_aware_balances_and_stays_deterministic() {
        let mixed = CampaignSpec::new(TraceGenConfig::smoke())
            .apps([AppKind::Tp2d, AppKind::Sp3d])
            .partitioners([
                PartitionerSpec::parse("hybrid").unwrap(),
                PartitionerSpec::Meta,
            ])
            .nprocs([4, 8]);
        let a = CampaignPlan::new(&mixed, 3, ShardStrategy::SizeAware);
        let b = CampaignPlan::new(&mixed, 3, ShardStrategy::SizeAware);
        assert_eq!(a, b);
        // Every scenario lands on exactly one valid shard, and with 8
        // scenarios over 3 shards none is empty.
        for p in &a.scenarios {
            assert!(p.shard < 3);
        }
        for shard in 0..3 {
            assert!(!a.shard_scenarios(shard).is_empty());
        }
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
        let plan = CampaignPlan::new(&spec, 1, ShardStrategy::RoundRobin);
        let slugs: Vec<&str> = plan.scenarios.iter().map(|p| p.slug.as_str()).collect();
        assert_eq!(slugs, vec!["tp2d_hybrid_p4_g1", "tp2d_hybrid_p4_g1-2"]);
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = CampaignPlan::new(&spec(), 3, ShardStrategy::SizeAware);
        let json = serde_json::to_string(&plan).unwrap();
        let back: CampaignPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn zero_shards_is_one_shard() {
        let plan = CampaignPlan::new(&spec(), 0, ShardStrategy::RoundRobin);
        assert_eq!(plan.nshards, 1);
        assert!(plan.scenarios.iter().all(|p| p.shard == 0));
    }

    #[test]
    fn strategy_names_roundtrip() {
        for s in [ShardStrategy::RoundRobin, ShardStrategy::SizeAware] {
            assert_eq!(ShardStrategy::parse(s.name()).unwrap(), s);
        }
        assert!(ShardStrategy::parse("hash").is_err());
    }
}
