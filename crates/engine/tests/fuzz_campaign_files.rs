//! Failure injection on the two campaign files a later command trusts:
//! `campaign.manifest.json`, which `samr pareto` reads back through
//! `front_for_dir` (and `pareto::load_entries`), and a spec file,
//! which `samr campaign --spec` decodes as a `CampaignSpec`. Each case truncates, flips a byte in or forges an
//! axis or count of one file. Nothing may panic.
//!
//! - A manifest case ends in a `ParetoError` or in the golden front: a
//!   flip may leave a file that still means the same thing (a space
//!   turned tab, a digit of the elapsed time).
//! - A spec case ends in a decode error or in a spec that plans to the
//!   golden plan hash exactly when it is the golden spec. A flip may
//!   leave a valid spec of another campaign (a digit of the seed); its
//!   plan hash then differs, so no merge or resume can take it for the
//!   golden campaign.

use proptest::prelude::*;
use samr_apps::{AppKind, TraceGenConfig};
use samr_engine::{
    front_for_dir, Campaign, CampaignManifest, CampaignPlan, CampaignSpec, Objective,
    PartitionerSpec, ShardStrategy,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

const GOLDEN_FRONT: &str = include_str!("golden/campaign_pareto_smoke.json");

/// The manifest's file name in a campaign directory.
const MANIFEST: &str = "campaign.manifest.json";

/// A fresh directory under the temp dir for one case.
fn case_dir() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("samr-fuzz-campaign-{}-{case}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The golden smoke campaign's spec.
fn spec() -> CampaignSpec {
    CampaignSpec::new(TraceGenConfig::smoke())
        .apps([AppKind::Tp2d, AppKind::Sc2d])
        .partitioners([
            PartitionerSpec::parse("hybrid").unwrap(),
            PartitionerSpec::parse("domain-sfc").unwrap(),
        ])
        .nprocs([8])
}

/// The golden plan hash.
fn golden_hash() -> &'static str {
    static HASH: OnceLock<String> = OnceLock::new();
    HASH.get_or_init(|| CampaignPlan::new(&spec(), 1, ShardStrategy).plan_hash)
}

/// Every file of the golden campaign's directory, as (name, bytes), run
/// once per process.
fn pristine() -> &'static [(String, Vec<u8>)] {
    static FILES: OnceLock<Vec<(String, Vec<u8>)>> = OnceLock::new();
    FILES.get_or_init(|| {
        let dir = case_dir();
        Campaign::run_to_dir(&spec(), &dir).unwrap();
        let files = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        files
    })
}

/// The golden campaign directory written afresh, with its manifest
/// replaced by `manifest`.
fn campaign_with_manifest(manifest: &[u8]) -> PathBuf {
    let dir = case_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in pristine() {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    std::fs::write(dir.join(MANIFEST), manifest).unwrap();
    dir
}

/// The golden campaign's manifest bytes.
fn pristine_manifest() -> Vec<u8> {
    let (_, bytes) = pristine()
        .iter()
        .find(|(name, _)| name == MANIFEST)
        .unwrap();
    bytes.clone()
}

/// Compute the front of a campaign directory whose manifest is
/// `manifest`, catching a panic as a failure. `Ok(true)` for the golden
/// front, `Ok(false)` for a `ParetoError`.
fn front(manifest: &[u8]) -> Result<bool, String> {
    let dir = campaign_with_manifest(manifest);
    let front = std::panic::catch_unwind(|| front_for_dir(&dir, &Objective::ALL))
        .map_err(|_| "front_for_dir panicked".to_string());
    std::fs::remove_dir_all(&dir).ok();
    match front? {
        Err(_) => Ok(false),
        Ok(front) if serde_json::to_string_pretty(&front).unwrap() == GOLDEN_FRONT => Ok(true),
        Ok(_) => Err("the manifest read back to a front that is not golden".into()),
    }
}

/// The golden manifest with `edit` applied.
fn forged_manifest(edit: impl FnOnce(&mut CampaignManifest)) -> Vec<u8> {
    let mut m: CampaignManifest = serde_json::from_slice(&pristine_manifest()).unwrap();
    edit(&mut m);
    serde_json::to_string_pretty(&m).unwrap().into_bytes()
}

/// The golden spec file's bytes, as the worker executor writes them.
fn pristine_spec() -> Vec<u8> {
    serde_json::to_string_pretty(&spec()).unwrap().into_bytes()
}

/// Decode a spec file as `samr campaign --spec` does, catching a panic
/// as a failure. `Ok(None)` for a decode error; `Ok(Some(golden))` for
/// a spec, whether it is the golden one. A spec that decodes must plan
/// to the golden hash exactly when it is the golden spec.
fn decode_spec(bytes: &[u8]) -> Result<Option<bool>, String> {
    let decoded = std::panic::catch_unwind(|| {
        let spec: CampaignSpec = serde_json::from_slice(bytes).ok()?;
        // A flip cannot lengthen an axis, so every decoded spec is small
        // enough to plan.
        let count = spec.checked_len().expect("a decoded spec's count fits");
        assert!(count <= 64, "a flipped spec grew to {count} scenarios");
        let hash = CampaignPlan::new(&spec, 1, ShardStrategy).plan_hash;
        Some((spec == self::spec(), hash == golden_hash()))
    })
    .map_err(|_| "decoding or planning the spec panicked".to_string())?;
    match decoded {
        None => Ok(None),
        Some((golden, same_hash)) if golden == same_hash => Ok(Some(golden)),
        Some((golden, _)) => Err(format!(
            "the spec is {}golden but plans to {}the golden hash",
            if golden { "" } else { "not " },
            if golden { "another than " } else { "" }
        )),
    }
}

/// The golden spec with four axes 2^16 long, so their lengths multiply
/// past `usize::MAX`.
fn overflowing_spec() -> CampaignSpec {
    let mut spec = spec();
    spec.apps = vec![AppKind::Tp2d; 1 << 16];
    spec.policies = vec![spec.policies[0]; 1 << 16];
    spec.nprocs = (1..=1 << 16).collect();
    spec.ghost_widths = (0..1 << 16).collect();
    assert_eq!(spec.checked_len(), None);
    spec
}

#[test]
fn the_pristine_files_read_back_golden() {
    assert_eq!(front(&pristine_manifest()), Ok(true));
    assert_eq!(decode_spec(&pristine_spec()), Ok(Some(true)));
}

#[test]
fn an_overflowing_axis_product_is_refused_by_name() {
    let spec = overflowing_spec();
    let err =
        serde_json::from_str::<CampaignSpec>(&serde_json::to_string(&spec).unwrap()).unwrap_err();
    assert!(err.to_string().contains("`scenarios`"), "{err}");
    // A manifest that carries it does not parse either.
    let mut manifest: CampaignManifest = serde_json::from_slice(&pristine_manifest()).unwrap();
    manifest.spec = spec;
    assert_eq!(
        front(serde_json::to_string(&manifest).unwrap().as_bytes()),
        Ok(false)
    );
}

#[test]
fn a_forged_axis_needs_a_matching_count_and_then_misses_the_plan_hash() {
    for copies in [2usize, 3, 1000] {
        // The count left alone, or forged to match.
        for scale in [false, true] {
            let manifest = forged_manifest(|m| {
                m.spec.nprocs = vec![8; copies];
                if scale {
                    m.scenario_count *= copies;
                }
            });
            assert_eq!(
                front(&manifest),
                Ok(false),
                "{copies} copies, scale {scale}"
            );
        }
        // The same axis in a spec file is another campaign.
        let mut forged = spec();
        forged.nprocs = vec![8; copies];
        let plan = CampaignPlan::new(&forged, 1, ShardStrategy);
        assert_eq!(plan.len(), 4 * copies);
        assert_ne!(plan.plan_hash, golden_hash());
    }
}

#[test]
fn a_consistently_forged_huge_campaign_is_refused_before_planning() {
    // 2^34 scenarios whose count matches the spec: planning them would
    // exhaust memory, but the directory holds 15 files.
    let manifest = forged_manifest(|m| {
        m.spec.nprocs = (1..=1 << 16).collect();
        m.spec.ghost_widths = (0..1 << 16).collect();
        m.scenario_count = m.spec.checked_len().unwrap();
    });
    assert_eq!(front(&manifest), Ok(false));
}

#[test]
fn out_of_range_spec_values_are_refused_by_field() {
    let text = String::from_utf8(pristine_spec()).unwrap();
    for (from, to, field) in [
        ("\"steps\": 10", "\"steps\": 0", "steps"),
        (
            "\"nprocs\": [\n    8\n  ]",
            "\"nprocs\": [\n    0\n  ]",
            "nprocs",
        ),
        (
            "\"ghost_widths\": [\n    1\n  ]",
            "\"ghost_widths\": [\n    -1\n  ]",
            "ghost_widths",
        ),
        ("\"Morton\"", "\"Mortn\"", "Mortn"),
        ("\"Tp2d\"", "\"Tp3d\"", "Tp3d"),
    ] {
        assert!(text.contains(from), "{from} not in the spec file:\n{text}");
        let forged = text.replacen(from, to, 1);
        let err = serde_json::from_str::<CampaignSpec>(&forged).unwrap_err();
        assert!(err.to_string().contains(field), "{field}: {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_truncated_manifest_or_spec_is_refused(spec_file in any::<bool>(), frac in 0.0f64..1.0) {
        let bytes = if spec_file { pristine_spec() } else { pristine_manifest() };
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        if spec_file {
            prop_assert_eq!(decode_spec(&bytes[..cut]), Ok(None), "spec cut to {}", cut);
        } else {
            prop_assert_eq!(front(&bytes[..cut]), Ok(false), "manifest cut to {}", cut);
        }
    }

    #[test]
    fn a_flipped_byte_is_refused_or_reads_true(
        spec_file in any::<bool>(),
        frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = if spec_file { pristine_spec() } else { pristine_manifest() };
        let pos = ((bytes.len() - 1) as f64 * frac) as usize;
        bytes[pos] ^= flip;
        if spec_file {
            let decoded = decode_spec(&bytes);
            prop_assert!(decoded.is_ok(), "spec byte {pos} ^ {flip}: {decoded:?}");
        } else {
            let front = front(&bytes);
            prop_assert!(front.is_ok(), "manifest byte {pos} ^ {flip}: {front:?}");
        }
    }

    #[test]
    fn a_forged_manifest_count_or_hash_is_refused(field in 0usize..2, value in any::<u64>()) {
        let manifest = forged_manifest(|m| match field {
            0 => {
                let forged = value as usize;
                if forged == m.scenario_count {
                    m.scenario_count = forged.wrapping_add(1);
                } else {
                    m.scenario_count = forged;
                }
            }
            _ => m.plan_hash = format!("{value:016x}"),
        });
        prop_assert_eq!(front(&manifest), Ok(false), "field {} forged to {}", field, value);
    }
}
