//! Shard manifest schema and the campaign merger: proving a set of
//! shard artifact directories reassembles exactly one campaign plan,
//! then merging them into the canonical campaign artifacts.
//!
//! Every shard directory carries a [`ShardManifest`] recording which
//! plan it belongs to (the plan hash), which slice of the ID space it
//! covered, and the spec needed to reproduce the campaign.
//! [`merge_shards`] validates the set — same plan hash and spec
//! everywhere, a spec that re-plans to that hash, all
//! shard indices present exactly once, every scenario ID covered
//! exactly once (which also refuses shards planned under a different
//! assignment), every artifact pair stamped by a completion record
//! that matches the bytes on disk — and only then copies the
//! per-scenario CSV/JSON artifacts into the campaign directory. The
//! canonical `campaign.csv`, the audit [`CampaignManifest`] and the
//! trade-off front are then written by [`finish_campaign`], the same
//! function that finishes an unsharded run or resume. A merged sharded
//! campaign is therefore byte-identical to the unsharded run of the
//! same spec, and a stale, foreign or incomplete shard set is rejected
//! with a precise error instead of producing a silently wrong merge.
//!
//! The merger is *salvage-aware*: a shard that crashed mid-run (no
//! manifest yet, or listed artifacts missing their completion stamp) is
//! reported as [`MergeError::ShardIncomplete`] with the exact `samr
//! campaign … --resume` invocation that finishes it, while bytes that
//! disagree with their completion record are reported as genuine
//! [`MergeError::CorruptArtifact`] corruption — the two failure classes
//! an operator handles very differently.

use crate::atomic::atomic_write;
use crate::campaign::CampaignSpec;
use crate::pareto::{
    compute_front, entry_from_json, write_front, Objective, ParetoEntry, ParetoError,
    CAMPAIGN_PARETO,
};
use crate::plan::{CampaignPlan, ShardStrategy};
use crate::resume::{Completion, CompletionRecord};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// File name of the per-shard manifest inside a shard directory.
pub const SHARD_MANIFEST: &str = "shard.manifest.json";

/// File name of the campaign audit manifest written next to the
/// campaign CSV.
pub const CAMPAIGN_MANIFEST: &str = "campaign.manifest.json";

/// File name of the canonical concatenated campaign CSV.
pub const CAMPAIGN_CSV: &str = "campaign.csv";

/// How many absent shard indices or scenario IDs a [`MergeError`]
/// lists. The counts come from the manifests, which may be forged, so
/// no list is sized by them.
const MAX_LISTED: usize = 32;

/// One scenario as a shard manifest records it and [`finish_campaign`]
/// reads it: its plan ID and the artifact slug its CSV/JSON files are
/// named by.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Stable plan-order scenario ID.
    pub id: usize,
    /// Artifact slug (`<slug>.csv` / `<slug>.json` in the shard dir).
    pub slug: String,
}

/// The self-description a shard executor writes next to its artifacts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// Hash of the plan this shard belongs to.
    pub plan_hash: String,
    /// This shard's index (`0..nshards`).
    pub shard: usize,
    /// How many shards the plan was split into.
    pub nshards: usize,
    /// Scenario count of the *whole* plan (the merge's ID space).
    pub total_scenarios: usize,
    /// Wall-clock seconds this shard's execution took.
    pub elapsed_seconds: f64,
    /// The campaign spec, so a merged campaign is reproducible from
    /// its artifacts alone.
    pub spec: CampaignSpec,
    /// The scenarios this shard executed, in plan order.
    pub scenarios: Vec<ManifestEntry>,
}

impl ShardManifest {
    /// Write the manifest into its shard directory — atomically, and by
    /// convention *after* every artifact and completion record, so the
    /// manifest's presence means the shard finished.
    pub fn write(&self, shard_dir: &Path) -> std::io::Result<PathBuf> {
        let path = shard_dir.join(SHARD_MANIFEST);
        let json = serde_json::to_string_pretty(self).expect("ShardManifest serializes");
        atomic_write(&path, json.as_bytes())?;
        Ok(path)
    }

    /// Read the manifest of a shard directory. A missing manifest in a
    /// directory *named* like a shard (`shard-<i>-of-<n>`) means the
    /// shard was killed before finishing — the executor creates the
    /// directory first and writes the manifest last, so even an empty
    /// one is the wreckage of a kill before the first scenario landed —
    /// and is reported as resumable [`MergeError::ShardIncomplete`],
    /// not as "not a shard directory".
    pub fn read(shard_dir: &Path) -> Result<Self, MergeError> {
        let path = shard_dir.join(SHARD_MANIFEST);
        let json = std::fs::read_to_string(&path).map_err(|e| {
            if e.kind() != std::io::ErrorKind::NotFound {
                return MergeError::Io(path.clone(), e);
            }
            match parse_shard_dir_name(shard_dir) {
                Some((shard, nshards)) => MergeError::ShardIncomplete {
                    dir: shard_dir.to_path_buf(),
                    shard,
                    nshards,
                    missing: vec![format!("{SHARD_MANIFEST} (shard killed mid-run)")],
                    rerun: rerun_command(shard_dir, shard, nshards),
                },
                None => MergeError::MissingManifest(shard_dir.to_path_buf()),
            }
        })?;
        serde_json::from_str(&json).map_err(|e| MergeError::BadManifest(path, e.to_string()))
    }
}

/// The audit manifest written next to every campaign CSV: what was
/// run, under which plan, how large it was and how long it took — so
/// merged (and unsharded) campaigns are auditable and reproducible
/// from the artifact directory alone.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CampaignManifest {
    /// Hash of the executed plan.
    pub plan_hash: String,
    /// Number of scenarios in the campaign.
    pub scenario_count: usize,
    /// How many shards produced the artifacts (`1` for the in-process
    /// path).
    pub shards: usize,
    /// Wall-clock seconds of execution (summed across shards for a
    /// merged campaign).
    pub elapsed_seconds: f64,
    /// The campaign spec the plan expanded.
    pub spec: CampaignSpec,
}

impl CampaignManifest {
    /// Write the manifest into the campaign directory (atomically).
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(CAMPAIGN_MANIFEST);
        let json = serde_json::to_string_pretty(self).expect("CampaignManifest serializes");
        atomic_write(&path, json.as_bytes())?;
        Ok(path)
    }
}

/// Why a shard set cannot be merged.
#[derive(Debug)]
pub enum MergeError {
    /// No shard directories were given (or discovered).
    NoShards,
    /// A directory has no `shard.manifest.json` and no sign of shard
    /// execution (not a shard directory at all).
    MissingManifest(PathBuf),
    /// A manifest exists but does not parse.
    BadManifest(PathBuf, String),
    /// A shard belongs to a different plan than the first shard read.
    PlanHashMismatch {
        /// Hash the first shard declared.
        expected: String,
        /// Hash the offending shard declared.
        found: String,
        /// The offending shard directory.
        dir: PathBuf,
    },
    /// Shards disagree about the shard count or total scenario count.
    ShapeMismatch {
        /// What the first shard declared.
        expected: String,
        /// What the offending shard declared.
        found: String,
        /// The offending shard directory.
        dir: PathBuf,
    },
    /// A manifest's spec is not the campaign its plan hash names: it
    /// differs from the first shard's, expands to another scenario
    /// count, or re-plans to another hash (an edited manifest).
    SpecMismatch {
        /// The offending shard directory.
        dir: PathBuf,
        /// Which check failed.
        detail: String,
    },
    /// A manifest's shard index is not below its shard count.
    ShardOutOfRange {
        /// The declared shard index.
        shard: usize,
        /// The declared shard count.
        nshards: usize,
        /// The offending shard directory.
        dir: PathBuf,
    },
    /// The same shard index appears in two directories.
    DuplicateShard {
        /// The repeated shard index.
        shard: usize,
    },
    /// Shard indices absent from the set.
    MissingShards {
        /// The lowest absent indices, at most 32 of them.
        missing: Vec<usize>,
        /// How many indices are absent.
        count: usize,
        /// The plan's shard count.
        nshards: usize,
    },
    /// A scenario ID is claimed by two shards.
    DuplicateScenario {
        /// The repeated scenario ID.
        id: usize,
    },
    /// Scenario IDs no shard covers (a shard ran an older plan or was
    /// truncated).
    MissingScenarios {
        /// The lowest uncovered IDs, at most 32 of them.
        missing: Vec<usize>,
        /// How many IDs are uncovered.
        count: usize,
        /// The plan's scenario count.
        total: usize,
    },
    /// A shard ran but did not finish: artifacts, completion records or
    /// the manifest are missing. Not corruption — rerunning the shard
    /// with `--resume` completes exactly the missing remainder.
    ShardIncomplete {
        /// The incomplete shard directory.
        dir: PathBuf,
        /// The shard's index.
        shard: usize,
        /// The plan's shard count.
        nshards: usize,
        /// What is missing (slugs or the manifest).
        missing: Vec<String>,
        /// The exact command that finishes the shard.
        rerun: String,
    },
    /// An artifact's bytes disagree with its completion record, or the
    /// summary the record stamps does not parse: genuine corruption
    /// (torn copy, bit rot, manual edit), not a resumable gap.
    CorruptArtifact {
        /// The corrupt artifact (or record) path.
        path: PathBuf,
        /// Which check failed.
        detail: String,
        /// The command that regenerates the artifact from scratch.
        rerun: String,
    },
    /// A validated artifact vanished between validation and copy
    /// (concurrent deletion).
    MissingArtifact(PathBuf),
    /// A campaign directory holds shard directories from different
    /// shard counts (e.g. a stale `shard-0-of-2` next to
    /// `shard-0-of-3`), which would otherwise surface as baffling
    /// duplicate-index errors.
    MixedShardFamilies {
        /// The distinct `-of-<n>` families found, ascending.
        families: Vec<usize>,
    },
    /// Reading or writing artifacts failed.
    Io(PathBuf, std::io::Error),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoShards => write!(f, "no shard directories to merge"),
            Self::MissingManifest(dir) => write!(
                f,
                "{} has no {SHARD_MANIFEST} (not a shard directory?)",
                dir.display()
            ),
            Self::BadManifest(path, e) => {
                write!(f, "{} does not parse: {e}", path.display())
            }
            Self::PlanHashMismatch {
                expected,
                found,
                dir,
            } => write!(
                f,
                "{} belongs to plan {found}, other shards to plan {expected}: \
                 shards of different campaigns cannot be merged",
                dir.display()
            ),
            Self::ShapeMismatch {
                expected,
                found,
                dir,
            } => write!(
                f,
                "{} declares {found}, other shards {expected}",
                dir.display()
            ),
            Self::SpecMismatch { dir, detail } => write!(
                f,
                "{} records a campaign spec that is not its plan's ({detail}): \
                 the shard manifest was edited or comes from another campaign",
                dir.display()
            ),
            Self::ShardOutOfRange {
                shard,
                nshards,
                dir,
            } => write!(
                f,
                "{} declares shard {shard} of {nshards}: a shard index must be \
                 below the shard count",
                dir.display()
            ),
            Self::DuplicateShard { shard } => {
                write!(f, "shard {shard} appears more than once in the merge set")
            }
            Self::MissingShards {
                missing,
                count,
                nshards,
            } => write!(
                f,
                "missing shard(s) {missing:?}{} of {nshards}: run the absent \
                 `samr campaign --shard i/{nshards}` invocations before merging",
                more_absent(missing, *count)
            ),
            Self::DuplicateScenario { id } => {
                write!(f, "scenario id {id} is claimed by more than one shard")
            }
            Self::MissingScenarios {
                missing,
                count,
                total,
            } => write!(
                f,
                "{count} of {total} scenario ids are covered by no shard: {missing:?}{}",
                more_absent(missing, *count)
            ),
            Self::ShardIncomplete {
                dir,
                shard,
                nshards,
                missing,
                rerun,
            } => write!(
                f,
                "shard {shard}/{nshards} at {} is incomplete but resumable \
                 (missing: {}): finish it with `{rerun}` and merge again",
                dir.display(),
                missing.join(", ")
            ),
            Self::CorruptArtifact {
                path,
                detail,
                rerun,
            } => write!(
                f,
                "{} is corrupt ({detail}): its bytes are not what the completion \
                 record stamped, or the stamped summary does not parse — rerun \
                 the scenario with `{rerun}`",
                path.display()
            ),
            Self::MissingArtifact(path) => write!(
                f,
                "artifact {} vanished while merging (deleted concurrently?)",
                path.display()
            ),
            Self::MixedShardFamilies { families } => write!(
                f,
                "shard directories from different shard counts coexist here \
                 (shard-*-of-{families:?}): remove the stale family (or pass the \
                 intended shard directories explicitly) before merging"
            ),
            Self::Io(path, e) => write!(f, "{}: {e}", path.display()),
        }
    }
}

impl std::error::Error for MergeError {}

/// The tail of a capped absence list in a message: empty when `listed`
/// is all `count` absent values.
fn more_absent(listed: &[usize], count: usize) -> String {
    match count - listed.len() {
        0 => String::new(),
        more => format!(" and {more} more"),
    }
}

/// What a successful merge produced.
#[derive(Debug)]
pub struct MergeReport {
    /// Hash of the merged plan.
    pub plan_hash: String,
    /// Scenarios merged.
    pub scenario_count: usize,
    /// Shards merged.
    pub shards: usize,
    /// Every artifact path written into the campaign directory.
    pub paths: Vec<PathBuf>,
    /// Path of the canonical concatenated campaign CSV.
    pub csv_path: PathBuf,
}

/// Write a campaign's canonical files from the per-scenario artifacts
/// in `dir`, the one finish step of every run, resume and merge:
///
/// - `campaign.csv`: each `<slug>.csv`, in the order of `scenarios`
///   (plan order), under a `# <slug>` header;
/// - `manifest`, as [`CAMPAIGN_MANIFEST`];
/// - when `scenarios` is not empty, the trade-off front over every
///   objective of each `<slug>.json` summary, as [`CAMPAIGN_PARETO`].
///
/// Every input is read and parsed before the first file is written, and
/// a failure names the file ([`ParetoError::Io`] or
/// [`ParetoError::BadArtifact`]). Returns the paths written, in that
/// order.
pub fn finish_campaign(
    dir: &Path,
    manifest: &CampaignManifest,
    scenarios: &[ManifestEntry],
) -> Result<Vec<PathBuf>, ParetoError> {
    let mut campaign_csv = String::new();
    for e in scenarios {
        let path = dir.join(format!("{}.csv", e.slug));
        let csv = std::fs::read_to_string(&path).map_err(|err| ParetoError::Io(path, err))?;
        campaign_csv.push_str("# ");
        campaign_csv.push_str(&e.slug);
        campaign_csv.push('\n');
        campaign_csv.push_str(&csv);
    }
    let summaries = read_summaries(dir, scenarios)?;
    let csv_path = dir.join(CAMPAIGN_CSV);
    atomic_write(&csv_path, campaign_csv.as_bytes())
        .map_err(|err| ParetoError::Io(csv_path.clone(), err))?;
    let manifest_path = manifest
        .write(dir)
        .map_err(|err| ParetoError::Io(dir.join(CAMPAIGN_MANIFEST), err))?;
    let mut paths = vec![csv_path, manifest_path];
    if !scenarios.is_empty() {
        let front = compute_front(&manifest.plan_hash, &Objective::ALL, &summaries)?;
        paths.push(write_front(dir, &front)?);
    }
    Ok(paths)
}

/// Read each scenario's `<slug>.json` summary from `dir`, in the order
/// of `scenarios`.
pub(crate) fn read_summaries(
    dir: &Path,
    scenarios: &[ManifestEntry],
) -> Result<Vec<ParetoEntry>, ParetoError> {
    scenarios
        .iter()
        .map(|e| {
            let path = dir.join(format!("{}.json", e.slug));
            let bytes = std::fs::read(&path).map_err(|err| ParetoError::Io(path.clone(), err))?;
            entry_from_json(e.id, &e.slug, &path, &bytes)
        })
        .collect()
}

/// Parse a `shard-<i>-of-<n>` directory name into `(i, n)`.
fn parse_shard_dir_name(dir: &Path) -> Option<(usize, usize)> {
    let name = dir.file_name()?.to_str()?;
    let rest = name.strip_prefix("shard-")?;
    let (i, n) = rest.split_once("-of-")?;
    Some((i.parse().ok()?, n.parse().ok()?))
}

/// The exact invocation that finishes an incomplete shard: resumes the
/// shard in place, with the campaign's original axis flags.
fn rerun_command(shard_dir: &Path, shard: usize, nshards: usize) -> String {
    let parent = shard_dir
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_default();
    format!(
        "samr campaign <original axis flags> --shard {shard}/{nshards} --resume --out {}",
        parent.display()
    )
}

/// Discover the shard directories (`shard-<i>-of-<n>` children) of a
/// campaign directory, in name order. Only well-formed names count,
/// and exactly one `-of-<n>` family may be present: a stale
/// `shard-0-of-2` next to a fresh `shard-0-of-3` is rejected by name
/// here instead of surfacing later as a duplicate-index error.
pub fn find_shard_dirs(dir: &Path) -> Result<Vec<PathBuf>, MergeError> {
    let entries = std::fs::read_dir(dir).map_err(|e| MergeError::Io(dir.to_path_buf(), e))?;
    let mut dirs: Vec<(usize, PathBuf)> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .filter_map(|p| parse_shard_dir_name(&p).map(|(_, n)| (n, p)))
        .collect();
    let mut families: Vec<usize> = dirs.iter().map(|(n, _)| *n).collect();
    families.sort_unstable();
    families.dedup();
    if families.len() > 1 {
        return Err(MergeError::MixedShardFamilies { families });
    }
    dirs.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(dirs.into_iter().map(|(_, p)| p).collect())
}

/// The lowest (at most [`MAX_LISTED`]) of `0..n` that are not `present`.
/// Every present index is below `n` and distinct, so this tests at most
/// their count plus [`MAX_LISTED`] candidates, however large a forged `n`.
fn absent(n: usize, present: impl Fn(usize) -> bool) -> Vec<usize> {
    (0..n).filter(|&i| !present(i)).take(MAX_LISTED).collect()
}

/// Read and cross-validate the manifests of a shard set: same plan
/// hash, spec and shard/scenario counts, every shard index and every
/// scenario ID exactly once, a spec that expands to that many scenarios
/// and re-plans to that hash, and every listed artifact pair stamped
/// complete with bytes matching its record. Returns the reference
/// manifest and the manifests with their directories, keyed by shard
/// index.
#[allow(clippy::type_complexity)]
fn validate_shards(
    shard_dirs: &[PathBuf],
) -> Result<(ShardManifest, BTreeMap<usize, (PathBuf, ShardManifest)>), MergeError> {
    if shard_dirs.is_empty() {
        return Err(MergeError::NoShards);
    }
    let mut manifests: BTreeMap<usize, (PathBuf, ShardManifest)> = BTreeMap::new();
    let mut reference: Option<(PathBuf, ShardManifest)> = None;
    for dir in shard_dirs {
        let m = ShardManifest::read(dir)?;
        if let Some((first, r)) = &reference {
            if m.plan_hash != r.plan_hash {
                return Err(MergeError::PlanHashMismatch {
                    expected: r.plan_hash.clone(),
                    found: m.plan_hash,
                    dir: dir.clone(),
                });
            }
            if m.nshards != r.nshards || m.total_scenarios != r.total_scenarios {
                return Err(MergeError::ShapeMismatch {
                    expected: format!("{} shards / {} scenarios", r.nshards, r.total_scenarios),
                    found: format!("{} shards / {} scenarios", m.nshards, m.total_scenarios),
                    dir: dir.clone(),
                });
            }
            if m.spec != r.spec {
                return Err(MergeError::SpecMismatch {
                    dir: dir.clone(),
                    detail: format!("it differs from the spec of {}", first.display()),
                });
            }
        } else {
            reference = Some((dir.clone(), m.clone()));
        }
        if m.shard >= m.nshards {
            return Err(MergeError::ShardOutOfRange {
                shard: m.shard,
                nshards: m.nshards,
                dir: dir.clone(),
            });
        }
        let shard = m.shard;
        if manifests.insert(shard, (dir.clone(), m)).is_some() {
            return Err(MergeError::DuplicateShard { shard });
        }
    }
    // Unreachable (the empty set returned above), but a typed error beats
    // a panic on an operator-facing path.
    let Some((first, reference)) = reference else {
        return Err(MergeError::NoShards);
    };
    if manifests.len() < reference.nshards {
        return Err(MergeError::MissingShards {
            missing: absent(reference.nshards, |i| manifests.contains_key(&i)),
            count: reference.nshards - manifests.len(),
            nshards: reference.nshards,
        });
    }
    let mut claimed: BTreeSet<usize> = BTreeSet::new();
    for (_, m) in manifests.values() {
        for entry in &m.scenarios {
            // An ID past the declared total means the shard ran a larger
            // plan than it declared: a duplicate-claim class of
            // corruption.
            if entry.id >= reference.total_scenarios || !claimed.insert(entry.id) {
                return Err(MergeError::DuplicateScenario { id: entry.id });
            }
        }
    }
    if claimed.len() < reference.total_scenarios {
        return Err(MergeError::MissingScenarios {
            missing: absent(reference.total_scenarios, |id| claimed.contains(&id)),
            count: reference.total_scenarios - claimed.len(),
            total: reference.total_scenarios,
        });
    }
    // The spec must be the campaign the plan hash names. Its count (a
    // checked product: the spec parsed, so it validated) is compared
    // first, against a total the listed IDs now bound, so a forged axis
    // cannot expand a huge plan; the plan hash does not depend on the
    // shard count, so a one-shard plan recovers it.
    let spec_mismatch = |detail: String| MergeError::SpecMismatch {
        dir: first.clone(),
        detail,
    };
    if reference.spec.len() != reference.total_scenarios {
        return Err(spec_mismatch(format!(
            "it expands to {} scenarios, the manifest declares {}",
            reference.spec.len(),
            reference.total_scenarios
        )));
    }
    let replanned = CampaignPlan::new(&reference.spec, 1, ShardStrategy).plan_hash;
    if replanned != reference.plan_hash {
        return Err(spec_mismatch(format!(
            "it plans to {replanned}, the manifest records plan {}",
            reference.plan_hash
        )));
    }
    // Every manifest-listed scenario must be stamped complete with
    // artifact bytes matching the stamp: missing pieces are a resumable
    // gap (report them all, with the rerun command); mismatched bytes
    // are genuine corruption. Digesting here reads every artifact a
    // merge will read again when copying — the deliberate trade-off:
    // validation must finish for the whole set before any merged byte
    // is written, and holding all verified artifacts in memory instead
    // would unbound the merger's residency on large campaigns.
    for (dir, m) in manifests.values() {
        let mut incomplete: Vec<String> = Vec::new();
        for entry in &m.scenarios {
            match CompletionRecord::status(dir, entry.id, &entry.slug, &m.plan_hash) {
                Completion::Complete => {}
                Completion::Incomplete => incomplete.push(entry.slug.clone()),
                Completion::Mismatch(detail) => {
                    return Err(MergeError::CorruptArtifact {
                        path: CompletionRecord::path(dir, &entry.slug),
                        detail,
                        rerun: rerun_command(dir, m.shard, m.nshards),
                    });
                }
            }
        }
        if !incomplete.is_empty() {
            return Err(MergeError::ShardIncomplete {
                dir: dir.clone(),
                shard: m.shard,
                nshards: m.nshards,
                missing: incomplete,
                rerun: rerun_command(dir, m.shard, m.nshards),
            });
        }
    }
    Ok((reference, manifests))
}

/// Validate a shard set and merge its artifacts into `out_dir`: copy
/// every scenario's CSV/JSON into the campaign directory (atomically —
/// a crash mid-merge never leaves torn campaign artifacts), then write
/// the canonical files with [`finish_campaign`].
pub fn merge_shards(shard_dirs: &[PathBuf], out_dir: &Path) -> Result<MergeReport, MergeError> {
    let (reference, manifests) = validate_shards(shard_dirs)?;
    // Scenario id → (shard index, shard dir, entry), in id order via
    // BTreeMap.
    let mut by_id: BTreeMap<usize, (usize, &Path, &ManifestEntry)> = BTreeMap::new();
    for (&shard, (dir, m)) in manifests.iter() {
        for entry in &m.scenarios {
            by_id.insert(entry.id, (shard, dir.as_path(), entry));
        }
    }
    std::fs::create_dir_all(out_dir).map_err(|e| MergeError::Io(out_dir.to_path_buf(), e))?;
    let mut paths = Vec::with_capacity(2 * by_id.len() + 3);
    for &(_, shard_dir, entry) in by_id.values() {
        for ext in ["csv", "json"] {
            let name = format!("{}.{ext}", entry.slug);
            let src = shard_dir.join(&name);
            let bytes = std::fs::read(&src).map_err(|e| {
                if e.kind() == std::io::ErrorKind::NotFound {
                    MergeError::MissingArtifact(src.clone())
                } else {
                    MergeError::Io(src.clone(), e)
                }
            })?;
            let dst = out_dir.join(&name);
            atomic_write(&dst, &bytes).map_err(|e| MergeError::Io(dst.clone(), e))?;
            paths.push(dst);
        }
    }
    let manifest = CampaignManifest {
        plan_hash: reference.plan_hash.clone(),
        scenario_count: reference.total_scenarios,
        shards: reference.nshards,
        elapsed_seconds: manifests.values().map(|(_, m)| m.elapsed_seconds).sum(),
        spec: reference.spec,
    };
    let entries: Vec<ManifestEntry> = by_id.values().map(|&(_, _, e)| e.clone()).collect();
    let finished = finish_campaign(out_dir, &manifest, &entries).map_err(|e| match e {
        ParetoError::BadArtifact(path, detail) => {
            let rerun = by_id
                .values()
                .find(|(_, _, entry)| path == out_dir.join(format!("{}.json", entry.slug)))
                .map_or_else(String::new, |&(shard, dir, _)| {
                    rerun_command(dir, shard, reference.nshards)
                });
            MergeError::CorruptArtifact {
                path,
                detail,
                rerun,
            }
        }
        ParetoError::Io(path, e) => MergeError::Io(path, e),
        other => MergeError::Io(out_dir.join(CAMPAIGN_PARETO), other.into()),
    })?;
    paths.extend(finished);
    Ok(MergeReport {
        plan_hash: manifest.plan_hash,
        scenario_count: manifest.scenario_count,
        shards: manifest.shards,
        paths,
        csv_path: out_dir.join(CAMPAIGN_CSV),
    })
}
