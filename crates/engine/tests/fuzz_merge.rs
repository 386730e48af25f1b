//! Failure injection: the merger must refuse a shard set whose shard
//! manifest or completion record (`<slug>.done.json`) was truncated or
//! forged with a `MergeError` — never panic, never merge wrong bytes. A
//! flipped byte may leave a file that still means the same thing (a
//! space turned tab), so a flip must end in an error or in the golden
//! campaign files.

use proptest::prelude::*;
use samr_apps::{AppKind, TraceGenConfig};
use samr_engine::{
    merge_shards, CampaignPlan, CampaignSpec, CompletionRecord, PartitionerSpec, ShardExecutor,
    ShardManifest, ShardStrategy, CAMPAIGN_PARETO,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

const GOLDEN_CSV: &str = include_str!("golden/campaign_smoke.csv");
const GOLDEN_FRONT: &str = include_str!("golden/campaign_pareto_smoke.json");

/// A fresh directory under the temp dir for one case.
fn case_dir() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("samr-fuzz-merge-{}-{case}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The golden smoke campaign's plan over two shards.
fn plan() -> &'static CampaignPlan {
    static PLAN: OnceLock<CampaignPlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        let spec = CampaignSpec::new(TraceGenConfig::smoke())
            .apps([AppKind::Tp2d, AppKind::Sc2d])
            .partitioners([
                PartitionerSpec::parse("hybrid").unwrap(),
                PartitionerSpec::parse("domain-sfc").unwrap(),
            ])
            .nprocs([8]);
        CampaignPlan::new(&spec, 2, ShardStrategy)
    })
}

/// Every file of the plan's two shard directories, as (directory name,
/// file name, bytes), run once per process.
fn pristine() -> &'static [(String, String, Vec<u8>)] {
    static FILES: OnceLock<Vec<(String, String, Vec<u8>)>> = OnceLock::new();
    FILES.get_or_init(|| {
        let dir = case_dir();
        let mut files = Vec::new();
        for shard in 0..2 {
            let run = ShardExecutor {
                shard,
                resume: false,
            }
            .run_shard(plan(), &dir)
            .unwrap();
            let name = run.dir.file_name().unwrap().to_string_lossy().into_owned();
            for entry in std::fs::read_dir(&run.dir).unwrap() {
                let path = entry.unwrap().path();
                let file = path.file_name().unwrap().to_string_lossy().into_owned();
                files.push((name.clone(), file, std::fs::read(&path).unwrap()));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        files
    })
}

/// The pristine shard set written to a fresh directory, with the shard
/// directories in shard order.
fn copy_of_shards() -> (PathBuf, Vec<PathBuf>) {
    let dir = case_dir();
    for (shard, file, bytes) in pristine() {
        std::fs::create_dir_all(dir.join(shard)).unwrap();
        std::fs::write(dir.join(shard).join(file), bytes).unwrap();
    }
    let shards = (0..2)
        .map(|i| dir.join(format!("shard-{i}-of-2")))
        .collect();
    (dir, shards)
}

/// One of the files a case corrupts: either shard's manifest, or the
/// completion record of either shard's first scenario.
fn target(shards: &[PathBuf], which: usize) -> PathBuf {
    let shard = which % 2;
    if which < 2 {
        shards[shard].join("shard.manifest.json")
    } else {
        let slug = &plan().shard_scenarios(shard)[0].slug;
        CompletionRecord::path(&shards[shard], slug)
    }
}

/// Merge the (corrupted) shard set into its directory, catching a panic
/// as a failure. `Ok(true)` when the merge succeeded with the golden
/// campaign files, `Ok(false)` when it refused with a `MergeError`.
fn merge(dir: &Path, shards: &[PathBuf]) -> Result<bool, String> {
    let merged = std::panic::catch_unwind(|| merge_shards(shards, dir))
        .map_err(|_| "merge_shards panicked".to_string())?;
    let outcome = match merged {
        Err(_) => Ok(false),
        Ok(_) => {
            let csv = std::fs::read_to_string(dir.join("campaign.csv")).unwrap();
            let front = std::fs::read_to_string(dir.join(CAMPAIGN_PARETO)).unwrap();
            if csv == GOLDEN_CSV && front == GOLDEN_FRONT {
                Ok(true)
            } else {
                Err("the merge succeeded with campaign files that are not golden".into())
            }
        }
    };
    std::fs::remove_dir_all(dir).ok();
    outcome
}

#[test]
fn the_pristine_shard_set_merges_to_the_golden_files() {
    let (dir, shards) = copy_of_shards();
    assert_eq!(merge(&dir, &shards), Ok(true));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_truncated_manifest_or_record_is_refused(which in 0usize..4, frac in 0.0f64..1.0) {
        let (dir, shards) = copy_of_shards();
        let path = target(&shards, which);
        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        prop_assert_eq!(merge(&dir, &shards), Ok(false), "{} cut to {} bytes", path.display(), cut);
    }

    #[test]
    fn a_flipped_byte_is_refused_or_changes_nothing(
        which in 0usize..4,
        frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let (dir, shards) = copy_of_shards();
        let path = target(&shards, which);
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = ((bytes.len() - 1) as f64 * frac) as usize;
        bytes[pos] ^= flip;
        std::fs::write(&path, &bytes).unwrap();
        let merged = merge(&dir, &shards);
        prop_assert!(merged.is_ok(), "{} byte {pos} ^ {flip}: {merged:?}", path.display());
    }

    #[test]
    fn a_forged_manifest_id_or_count_is_refused(
        shard in 0usize..2,
        field in 0usize..4,
        value in any::<u64>(),
    ) {
        let (dir, shards) = copy_of_shards();
        let mut m = ShardManifest::read(&shards[shard]).unwrap();
        let forged = value as usize;
        let slot = match field {
            0 => &mut m.scenarios[0].id,
            1 => &mut m.shard,
            2 => &mut m.nshards,
            _ => &mut m.total_scenarios,
        };
        prop_assume!(*slot != forged);
        *slot = forged;
        m.write(&shards[shard]).unwrap();
        prop_assert_eq!(merge(&dir, &shards), Ok(false), "field {} forged to {}", field, forged);
    }

    #[test]
    fn a_forged_completion_record_is_refused(
        shard in 0usize..2,
        field in 0usize..3,
        value in any::<u64>(),
    ) {
        let (dir, shards) = copy_of_shards();
        let path = target(&shards, 2 + shard);
        let mut record: CompletionRecord =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        match field {
            0 => {
                prop_assume!(record.id != value as usize);
                record.id = value as usize;
            }
            1 => record.plan_hash = format!("{value:016x}"),
            _ => record.csv_digest = format!("{value:016x}"),
        }
        std::fs::write(&path, serde_json::to_string(&record).unwrap()).unwrap();
        prop_assert_eq!(merge(&dir, &shards), Ok(false), "field {} forged to {}", field, value);
    }
}
