//! Pareto-front analysis over campaign results: the paper's trade-off,
//! made explicit.
//!
//! The source paper frames SAMR partitioning as a *trade-off* — load
//! balance versus communication versus migration versus repartitioning
//! overhead — but a campaign's `campaign.csv` flattens every scenario
//! into one row and leaves that multi-objective structure on the floor.
//! This module recovers it: each scenario's summary artifact becomes an
//! objective vector ([`Objective`]), a dominance analysis separates the
//! non-dominated set from the dominated one, and the result is written
//! as the `campaign.pareto.json` artifact ([`CAMPAIGN_PARETO`]) next to
//! `campaign.csv` — by [`crate::merge::finish_campaign`], which both the
//! in-process campaign runner and the shard merger end with, so a
//! merged sharded campaign's front is byte-identical to the unsharded
//! run's.
//!
//! **Dominance.** All objectives are minimized. Vector `a` dominates
//! `b` iff `a[i] <= b[i]` for every objective and `a[i] < b[i]` for at
//! least one. Equal vectors never dominate each other, so duplicated
//! trade-offs all stay on the front — deterministic, and honest about
//! ties. Every dominated point records its lowest-id dominator *on the
//! front* (one always exists: dominance is a strict partial order, so
//! following dominators upward terminates at a non-dominated point that
//! dominates transitively).
//!
//! The front artifact also attributes the front: which partitioner
//! family owns how much of it ([`FamilyShare`]) and which scenario
//! anchors each objective's best corner ([`FrontRegion`]).

use crate::atomic::atomic_write;
use crate::merge::{read_summaries, CampaignManifest, CAMPAIGN_MANIFEST};
use crate::plan::{CampaignPlan, PlannedScenario, ShardStrategy};
use crate::scenario::ScenarioSummary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The front artifact schema identifier; bump when the JSON shape
/// changes.
pub const PARETO_SCHEMA: &str = "samr-pareto/1";

/// File name of the front artifact written next to `campaign.csv`.
pub const CAMPAIGN_PARETO: &str = "campaign.pareto.json";

/// One minimized objective extracted from a scenario summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Mean load-imbalance ratio (≥ 1; 1 is perfect balance).
    Imbalance,
    /// Mean grid-relative communication.
    Comm,
    /// Mean grid-relative migration.
    Migration,
    /// Mean partitioner-invocation cost per coarse step (machine-model
    /// units) — the regrid/repartitioning overhead.
    Overhead,
}

impl Objective {
    /// Every objective, in canonical artifact order.
    pub const ALL: [Objective; 4] = [
        Objective::Imbalance,
        Objective::Comm,
        Objective::Migration,
        Objective::Overhead,
    ];

    /// The CLI/artifact name of the objective.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Imbalance => "imbalance",
            Self::Comm => "comm",
            Self::Migration => "migration",
            Self::Overhead => "overhead",
        }
    }

    /// Parse an objective from its CLI name.
    pub fn parse(name: &str) -> Result<Self, ParetoError> {
        Self::ALL
            .into_iter()
            .find(|o| o.name() == name)
            .ok_or_else(|| ParetoError::UnknownObjective(name.to_string()))
    }

    /// Extract the objective's value from a scenario summary.
    pub fn value(&self, s: &ScenarioSummary) -> f64 {
        match self {
            Self::Imbalance => s.mean_imbalance,
            Self::Comm => s.mean_rel_comm,
            Self::Migration => s.mean_rel_migration,
            Self::Overhead => s.mean_partition_cost,
        }
    }
}

/// Parse a comma-separated objective list (`imbalance,comm,…`):
/// at least one objective, duplicates rejected.
pub fn parse_objectives(csv: &str) -> Result<Vec<Objective>, ParetoError> {
    let mut out: Vec<Objective> = Vec::new();
    for name in csv.split(',').filter(|s| !s.is_empty()) {
        let o = Objective::parse(name)?;
        if out.contains(&o) {
            return Err(ParetoError::DuplicateObjective(name.to_string()));
        }
        out.push(o);
    }
    if out.is_empty() {
        return Err(ParetoError::NoObjectives);
    }
    Ok(out)
}

/// Weak Pareto dominance for minimization: `a` dominates `b` iff no
/// objective of `a` is worse and at least one is strictly better.
/// Equal vectors dominate in neither direction.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len(), "objective vectors must align");
    let mut strictly_better = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Which points of a set are non-dominated (`true` = on the front).
/// O(n²) pairwise comparison — exact, deterministic and fast for
/// campaign-scale sets.
pub fn front_mask(points: &[Vec<f64>]) -> Vec<bool> {
    points
        .iter()
        .map(|p| !points.iter().any(|q| dominates(q, p)))
        .collect()
}

/// One scenario's input to the front computation: its plan identity
/// plus the summary artifact the objectives are read from.
#[derive(Clone, Debug)]
pub struct ParetoEntry {
    /// Stable plan-order scenario ID.
    pub id: usize,
    /// Unique artifact slug (`<slug>.json` held the summary).
    pub slug: String,
    /// The parsed summary artifact.
    pub summary: ScenarioSummary,
}

/// One scenario in the front artifact: identity, objective vector and
/// dominance verdict.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// Stable plan-order scenario ID.
    pub id: usize,
    /// Unique artifact slug.
    pub slug: String,
    /// Application name (e.g. `TP2D`).
    pub app: String,
    /// Partitioner family/preset slug (e.g. `hybrid`,
    /// `domain-sfc-morton`).
    pub partitioner: String,
    /// The objective vector, aligned with the artifact's `objectives`
    /// list.
    pub objectives: Vec<f64>,
    /// `true` when no other scenario dominates this one.
    pub on_front: bool,
    /// For dominated points: the lowest-id front member that dominates
    /// this one. `null` for front members.
    pub dominated_by: Option<usize>,
}

/// The front scenario anchoring one objective's best corner: the front
/// member with the smallest value on that axis (ties broken by lowest
/// scenario ID).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FrontRegion {
    /// The objective this corner minimizes.
    pub objective: String,
    /// Anchoring scenario ID.
    pub id: usize,
    /// Anchoring scenario slug.
    pub slug: String,
    /// The anchor's partitioner family slug.
    pub partitioner: String,
    /// The anchor's value on this objective.
    pub value: f64,
}

/// How much of the front one partitioner family owns.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FamilyShare {
    /// Partitioner family/preset slug.
    pub partitioner: String,
    /// Scenarios of this family on the front.
    pub on_front: usize,
    /// Scenarios of this family in the campaign.
    pub scenarios: usize,
}

/// The `campaign.pareto.json` artifact: the dominance analysis of one
/// campaign under one objective set.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParetoFront {
    /// Always [`PARETO_SCHEMA`].
    pub schema: String,
    /// Hash of the campaign plan the scenarios came from.
    pub plan_hash: String,
    /// Objective names, in vector order.
    pub objectives: Vec<String>,
    /// Scenarios analyzed.
    pub scenario_count: usize,
    /// IDs of the non-dominated scenarios, ascending.
    pub front: Vec<usize>,
    /// The best-corner anchor per objective.
    pub regions: Vec<FrontRegion>,
    /// Front ownership per partitioner family, sorted by family slug.
    pub families: Vec<FamilyShare>,
    /// Every scenario's point, in plan order.
    pub points: Vec<ParetoPoint>,
}

impl ParetoFront {
    /// The points on the front, in plan order.
    pub fn front_points(&self) -> impl Iterator<Item = &ParetoPoint> {
        self.points.iter().filter(|p| p.on_front)
    }
}

/// Why a front could not be computed or loaded.
#[derive(Debug)]
pub enum ParetoError {
    /// The objective list was empty.
    NoObjectives,
    /// An objective name appeared twice in the list.
    DuplicateObjective(String),
    /// An objective name is not in the registry.
    UnknownObjective(String),
    /// A scenario's objective value is NaN or infinite — dominance over
    /// non-finite values would be order-dependent nonsense.
    NonFinite {
        /// The offending scenario's slug.
        slug: String,
        /// The objective whose value is non-finite.
        objective: String,
    },
    /// The campaign directory has no `campaign.manifest.json` (not a
    /// finished campaign directory).
    MissingManifest(PathBuf),
    /// A manifest or summary artifact does not parse.
    BadArtifact(PathBuf, String),
    /// The manifest's recorded plan hash disagrees with re-planning its
    /// own spec — the directory mixes artifacts of different campaigns.
    PlanMismatch {
        /// Hash the manifest recorded.
        recorded: String,
        /// Hash the spec re-plans to.
        replanned: String,
    },
    /// Reading or writing artifacts failed.
    Io(PathBuf, std::io::Error),
}

impl std::fmt::Display for ParetoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoObjectives => write!(
                f,
                "no objectives selected (expected a comma-separated subset of \
                 imbalance, comm, migration, overhead)"
            ),
            Self::DuplicateObjective(name) => {
                write!(f, "objective '{name}' listed more than once")
            }
            Self::UnknownObjective(name) => write!(
                f,
                "unknown objective '{name}' (expected imbalance | comm | migration | overhead)"
            ),
            Self::NonFinite { slug, objective } => write!(
                f,
                "scenario '{slug}' has a non-finite '{objective}' value: \
                 dominance is undefined over NaN/infinite objectives"
            ),
            Self::MissingManifest(dir) => write!(
                f,
                "{} has no {CAMPAIGN_MANIFEST} (not a finished campaign directory?)",
                dir.display()
            ),
            Self::BadArtifact(path, e) => write!(f, "{} does not parse: {e}", path.display()),
            Self::PlanMismatch {
                recorded,
                replanned,
            } => write!(
                f,
                "manifest records plan {recorded} but its spec re-plans to {replanned}: \
                 the directory mixes artifacts of different campaigns"
            ),
            Self::Io(path, e) => write!(f, "{}: {e}", path.display()),
        }
    }
}

impl std::error::Error for ParetoError {}

impl From<ParetoError> for std::io::Error {
    fn from(e: ParetoError) -> Self {
        match e {
            ParetoError::Io(_, io) => io,
            other => std::io::Error::other(other.to_string()),
        }
    }
}

/// Run the dominance analysis: every entry becomes a [`ParetoPoint`],
/// the non-dominated set is identified, and the front is attributed to
/// partitioner families and objective corners. Entries must be in plan
/// order (ascending ID), as [`crate::merge::finish_campaign`] feeds
/// them.
pub fn compute_front(
    plan_hash: &str,
    objectives: &[Objective],
    entries: &[ParetoEntry],
) -> Result<ParetoFront, ParetoError> {
    if objectives.is_empty() {
        return Err(ParetoError::NoObjectives);
    }
    let vectors: Vec<Vec<f64>> = entries
        .iter()
        .map(|e| {
            objectives
                .iter()
                .map(|o| {
                    let v = o.value(&e.summary);
                    if v.is_finite() {
                        Ok(v)
                    } else {
                        Err(ParetoError::NonFinite {
                            slug: e.slug.clone(),
                            objective: o.name().to_string(),
                        })
                    }
                })
                .collect()
        })
        .collect::<Result<_, _>>()?;
    let mask = front_mask(&vectors);
    let points: Vec<ParetoPoint> = entries
        .iter()
        .zip(&vectors)
        .zip(&mask)
        .map(|((e, v), &on_front)| {
            // The lowest-id front dominator; front members have none.
            let dominated_by = (!on_front)
                .then(|| {
                    entries
                        .iter()
                        .zip(&vectors)
                        .zip(&mask)
                        .find(|((_, q), &m)| m && dominates(q, v))
                        .map(|((d, _), _)| d.id)
                })
                .flatten();
            ParetoPoint {
                id: e.id,
                slug: e.slug.clone(),
                app: e.summary.scenario.app.name().to_string(),
                partitioner: e.summary.scenario.partitioner.slug(),
                objectives: v.clone(),
                on_front,
                dominated_by,
            }
        })
        .collect();
    let front: Vec<usize> = points.iter().filter(|p| p.on_front).map(|p| p.id).collect();
    let regions = objectives
        .iter()
        .enumerate()
        .filter_map(|(axis, o)| {
            points
                .iter()
                .filter(|p| p.on_front)
                .min_by(|a, b| {
                    a.objectives[axis]
                        .partial_cmp(&b.objectives[axis])
                        .expect("finite objectives compare")
                        .then(a.id.cmp(&b.id))
                })
                .map(|p| FrontRegion {
                    objective: o.name().to_string(),
                    id: p.id,
                    slug: p.slug.clone(),
                    partitioner: p.partitioner.clone(),
                    value: p.objectives[axis],
                })
        })
        .collect();
    let mut families: BTreeMap<String, FamilyShare> = BTreeMap::new();
    for p in &points {
        let share = families
            .entry(p.partitioner.clone())
            .or_insert_with(|| FamilyShare {
                partitioner: p.partitioner.clone(),
                on_front: 0,
                scenarios: 0,
            });
        share.scenarios += 1;
        if p.on_front {
            share.on_front += 1;
        }
    }
    Ok(ParetoFront {
        schema: PARETO_SCHEMA.to_string(),
        plan_hash: plan_hash.to_string(),
        objectives: objectives.iter().map(|o| o.name().to_string()).collect(),
        scenario_count: entries.len(),
        front,
        regions,
        families: families.into_values().collect(),
        points,
    })
}

/// Parse summary bytes into a [`ParetoEntry`].
pub fn entry_from_json(
    id: usize,
    slug: &str,
    path: &Path,
    json: &[u8],
) -> Result<ParetoEntry, ParetoError> {
    let text = std::str::from_utf8(json)
        .map_err(|e| ParetoError::BadArtifact(path.to_path_buf(), e.to_string()))?;
    let summary: ScenarioSummary = serde_json::from_str(text)
        .map_err(|e| ParetoError::BadArtifact(path.to_path_buf(), e.to_string()))?;
    Ok(ParetoEntry {
        id,
        slug: slug.to_string(),
        summary,
    })
}

/// Load the scenario entries of a finished campaign directory: read its
/// [`CampaignManifest`], re-plan the recorded spec to recover the
/// plan-order (id, slug) list — verifying the recorded plan hash, so a
/// directory mixing two campaigns' artifacts is rejected — then read
/// each `<slug>.json` summary. Returns the plan hash and the entries in
/// plan order.
pub fn load_entries(dir: &Path) -> Result<(String, Vec<ParetoEntry>), ParetoError> {
    let manifest_path = dir.join(CAMPAIGN_MANIFEST);
    let json = std::fs::read_to_string(&manifest_path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            ParetoError::MissingManifest(dir.to_path_buf())
        } else {
            ParetoError::Io(manifest_path.clone(), e)
        }
    })?;
    let manifest: CampaignManifest = serde_json::from_str(&json)
        .map_err(|e| ParetoError::BadArtifact(manifest_path.clone(), e.to_string()))?;
    // The plan hash is shard-count and strategy invariant, so re-planning
    // single-shard recovers the exact (id, slug) space of any run.
    let plan = CampaignPlan::new(&manifest.spec, 1, ShardStrategy::default());
    if plan.plan_hash != manifest.plan_hash {
        return Err(ParetoError::PlanMismatch {
            recorded: manifest.plan_hash,
            replanned: plan.plan_hash,
        });
    }
    let scenarios: Vec<_> = plan.scenarios.iter().map(PlannedScenario::entry).collect();
    let entries = read_summaries(dir, &scenarios)?;
    Ok((plan.plan_hash, entries))
}

/// Compute the front of a finished campaign directory under an
/// objective set: [`load_entries`] + [`compute_front`].
pub fn front_for_dir(dir: &Path, objectives: &[Objective]) -> Result<ParetoFront, ParetoError> {
    let (plan_hash, entries) = load_entries(dir)?;
    compute_front(&plan_hash, objectives, &entries)
}

/// Write the front artifact into a campaign directory (atomically,
/// like every campaign artifact).
pub fn write_front(dir: &Path, front: &ParetoFront) -> Result<PathBuf, ParetoError> {
    let path = dir.join(CAMPAIGN_PARETO);
    let json = serde_json::to_string_pretty(front).expect("ParetoFront serializes");
    atomic_write(&path, json.as_bytes()).map_err(|e| ParetoError::Io(path.clone(), e))?;
    Ok(path)
}

/// Read a front artifact back from a campaign directory.
pub fn read_front(dir: &Path) -> Result<ParetoFront, ParetoError> {
    let path = dir.join(CAMPAIGN_PARETO);
    let json = std::fs::read_to_string(&path).map_err(|e| ParetoError::Io(path.clone(), e))?;
    serde_json::from_str(&json).map_err(|e| ParetoError::BadArtifact(path, e.to_string()))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::campaign::CampaignSpec;
    use crate::scenario::Scenario;
    use crate::spec::PartitionerSpec;
    use samr_apps::{AppKind, TraceGenConfig};
    use samr_sim::SimConfig;

    pub(crate) fn summary_with(objectives: [f64; 4]) -> ScenarioSummary {
        let scenario = Scenario::new(
            AppKind::Tp2d,
            TraceGenConfig::smoke(),
            PartitionerSpec::parse("hybrid").unwrap(),
            SimConfig {
                nprocs: 4,
                ..SimConfig::default()
            },
        );
        ScenarioSummary {
            partitioner_name: "hybrid".into(),
            steps: 1,
            total_time: 1.0,
            mean_imbalance: objectives[0],
            mean_rel_comm: objectives[1],
            mean_rel_migration: objectives[2],
            mean_partition_cost: objectives[3],
            switches: 0,
            switch_migration_cells: 0,
            comm_shape: crate::validation::ShapeStats::compare(&[0.0, 1.0], &[0.0, 1.0]),
            migration_shape: crate::validation::ShapeStats::compare(&[0.0, 1.0], &[0.0, 1.0]),
            scenario,
        }
    }

    fn entries(vectors: &[[f64; 4]]) -> Vec<ParetoEntry> {
        vectors
            .iter()
            .enumerate()
            .map(|(id, v)| ParetoEntry {
                id,
                slug: format!("s{id}"),
                summary: summary_with(*v),
            })
            .collect()
    }

    #[test]
    fn dominance_is_strict_on_equal_vectors() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[1.0, 3.0], &[3.0, 1.0]));
        assert!(!dominates(&[2.0, 3.0], &[1.0, 2.0]));
    }

    #[test]
    fn front_mask_keeps_all_ties() {
        // Two identical vectors: neither dominates the other, both stay.
        let mask = front_mask(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![2.0, 2.0]]);
        assert_eq!(mask, vec![true, true, false]);
    }

    #[test]
    fn compute_front_records_dominators_and_regions() {
        // s0 is the balance corner, s1 the comm corner, s2 dominated by
        // s0, s3 dominated by both (s0 is the lowest-id dominator).
        let es = entries(&[
            [1.0, 0.5, 0.1, 10.0],
            [1.5, 0.1, 0.2, 20.0],
            [1.2, 0.6, 0.2, 15.0],
            [2.0, 0.9, 0.5, 30.0],
        ]);
        let f = compute_front("deadbeef", &Objective::ALL, &es).unwrap();
        assert_eq!(f.schema, PARETO_SCHEMA);
        assert_eq!(f.front, vec![0, 1]);
        assert_eq!(f.points[2].dominated_by, Some(0));
        assert_eq!(f.points[3].dominated_by, Some(0));
        assert!(f.points[0].dominated_by.is_none());
        let imb = f
            .regions
            .iter()
            .find(|r| r.objective == "imbalance")
            .unwrap();
        assert_eq!(imb.id, 0);
        let comm = f.regions.iter().find(|r| r.objective == "comm").unwrap();
        assert_eq!(comm.id, 1);
        // One family in this synthetic set, owning the whole front.
        assert_eq!(f.families.len(), 1);
        assert_eq!(f.families[0].on_front, 2);
        assert_eq!(f.families[0].scenarios, 4);
    }

    #[test]
    fn objective_subset_changes_the_front() {
        // On (imbalance, comm) s1 dominates s0; adding migration makes
        // them incomparable.
        let es = entries(&[[2.0, 0.5, 0.0, 0.0], [1.0, 0.1, 0.5, 0.0]]);
        let two = compute_front("h", &[Objective::Imbalance, Objective::Comm], &es).unwrap();
        assert_eq!(two.front, vec![1]);
        let three = compute_front(
            "h",
            &[Objective::Imbalance, Objective::Comm, Objective::Migration],
            &es,
        )
        .unwrap();
        assert_eq!(three.front, vec![0, 1]);
    }

    #[test]
    fn non_finite_objectives_are_rejected() {
        let es = entries(&[[1.0, f64::NAN, 0.0, 0.0]]);
        let err = compute_front("h", &Objective::ALL, &es).unwrap_err();
        assert!(matches!(err, ParetoError::NonFinite { .. }), "{err}");
    }

    #[test]
    fn objective_names_roundtrip_and_lists_parse() {
        for o in Objective::ALL {
            assert_eq!(Objective::parse(o.name()).unwrap(), o);
        }
        assert_eq!(
            parse_objectives("imbalance,comm").unwrap(),
            vec![Objective::Imbalance, Objective::Comm]
        );
        assert!(matches!(
            parse_objectives(""),
            Err(ParetoError::NoObjectives)
        ));
        assert!(matches!(
            parse_objectives("comm,comm"),
            Err(ParetoError::DuplicateObjective(_))
        ));
        assert!(matches!(
            parse_objectives("speed"),
            Err(ParetoError::UnknownObjective(_))
        ));
    }

    #[test]
    fn front_roundtrips_through_json() {
        let es = entries(&[[1.0, 0.5, 0.1, 10.0], [1.5, 0.1, 0.2, 20.0]]);
        let f = compute_front("cafe", &Objective::ALL, &es).unwrap();
        let json = serde_json::to_string_pretty(&f).unwrap();
        let back: ParetoFront = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn campaign_runner_writes_the_front_artifact() {
        let spec = CampaignSpec::new(TraceGenConfig::smoke())
            .apps([AppKind::Tp2d])
            .partitioners([
                PartitionerSpec::parse("hybrid").unwrap(),
                PartitionerSpec::parse("domain-sfc").unwrap(),
            ])
            .nprocs([4]);
        let dir = std::env::temp_dir().join(format!("samr-pareto-run-{}", std::process::id()));
        let (_, paths) = crate::campaign::Campaign::run_to_dir(&spec, &dir).unwrap();
        assert!(paths.iter().any(|p| p.ends_with(CAMPAIGN_PARETO)));
        let front = read_front(&dir).unwrap();
        assert_eq!(front.scenario_count, 2);
        assert_eq!(front.objectives.len(), Objective::ALL.len());
        assert!(!front.front.is_empty(), "a nonempty campaign has a front");
        // The artifact agrees with recomputing from the directory.
        let recomputed = front_for_dir(&dir, &Objective::ALL).unwrap();
        assert_eq!(front, recomputed);
        std::fs::remove_dir_all(&dir).ok();
    }
}
