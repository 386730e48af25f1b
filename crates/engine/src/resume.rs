//! Per-scenario completion records: the currency of crash-consistent,
//! resumable campaign execution.
//!
//! Every executor stamps a scenario's artifact pair (CSV + JSON) with a
//! small [`CompletionRecord`] — `<slug>.done.json`, written atomically
//! *after* both artifacts are in place — recording the scenario's plan
//! ID, the plan hash it was executed under, and an FNV-1a digest of
//! each artifact's bytes. A record that exists therefore proves the
//! scenario finished under a known plan with known bytes on disk.
//!
//! `--resume` re-plans the campaign and [validates](CompletionRecord::status)
//! each scenario's record against the *current* plan hash and the bytes
//! actually on disk: only scenarios whose record checks out on every
//! axis are skipped, so stale records from an older spec, torn or
//! truncated artifacts, and half-finished shards all re-execute instead
//! of poisoning the merged campaign. The merger uses the same check to
//! tell "incomplete but resumable" apart from genuine corruption.

use crate::atomic::atomic_write;
use crate::pareto::entry_from_json;
use crate::plan::fnv1a_hex;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// File-name suffix of completion records (`<slug>.done.json`).
pub const COMPLETION_SUFFIX: &str = ".done.json";

/// The completion stamp written next to a scenario's CSV/JSON artifact
/// pair once both are fully on disk.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompletionRecord {
    /// Stable plan-order scenario ID.
    pub id: usize,
    /// The artifact slug the record describes.
    pub slug: String,
    /// Hash of the plan the scenario was executed under.
    pub plan_hash: String,
    /// FNV-1a digest (16 hex digits) of the CSV artifact's bytes.
    pub csv_digest: String,
    /// FNV-1a digest (16 hex digits) of the JSON artifact's bytes.
    pub json_digest: String,
}

/// What validating a scenario's completion state found.
#[derive(Clone, Debug, PartialEq)]
pub enum Completion {
    /// The record exists, belongs to this plan, and both artifact
    /// digests match the bytes on disk: the scenario is done.
    Complete,
    /// No record (or no artifacts): the scenario never finished here —
    /// resumable by re-executing it.
    Incomplete,
    /// A record exists but disagrees with the plan or with the bytes on
    /// disk (stale spec, tampered or externally corrupted artifact), or
    /// the summary it stamps does not parse; the payload says which
    /// check failed.
    Mismatch(String),
}

impl Completion {
    /// `true` only for [`Completion::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, Self::Complete)
    }
}

impl CompletionRecord {
    /// Path of the completion record for `slug` under `dir`.
    pub fn path(dir: &Path, slug: &str) -> PathBuf {
        dir.join(format!("{slug}{COMPLETION_SUFFIX}"))
    }

    /// The digest the records use: FNV-1a over the artifact bytes,
    /// rendered as 16 hex digits.
    pub fn digest(bytes: &[u8]) -> String {
        fnv1a_hex([bytes])
    }

    /// Stamp a scenario complete: write its record (atomically) from
    /// the artifact bytes just written. Call only after both artifacts
    /// have been renamed into place — the record is the commit point.
    pub fn stamp(
        dir: &Path,
        id: usize,
        slug: &str,
        plan_hash: &str,
        csv: &[u8],
        json: &[u8],
    ) -> std::io::Result<PathBuf> {
        let record = Self {
            id,
            slug: slug.to_string(),
            plan_hash: plan_hash.to_string(),
            csv_digest: Self::digest(csv),
            json_digest: Self::digest(json),
        };
        let path = Self::path(dir, slug);
        let body = serde_json::to_string_pretty(&record).expect("CompletionRecord serializes");
        atomic_write(&path, body.as_bytes())?;
        Ok(path)
    }

    /// Validate the completion state of scenario (`id`, `slug`) under
    /// `plan_hash` in `dir`: record present and parsing, identity and
    /// plan hash matching, both artifacts on disk with matching
    /// digests, and the JSON artifact parsing as a scenario summary.
    pub fn status(dir: &Path, id: usize, slug: &str, plan_hash: &str) -> Completion {
        let record_path = Self::path(dir, slug);
        let body = match std::fs::read_to_string(&record_path) {
            Ok(body) => body,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Completion::Incomplete,
            Err(e) => return Completion::Mismatch(format!("unreadable completion record: {e}")),
        };
        let record: Self = match serde_json::from_str(&body) {
            Ok(r) => r,
            Err(e) => {
                return Completion::Mismatch(format!("completion record does not parse: {e}"))
            }
        };
        if record.id != id || record.slug != slug {
            return Completion::Mismatch(format!(
                "completion record identifies scenario {} '{}', expected {} '{}'",
                record.id, record.slug, id, slug
            ));
        }
        if record.plan_hash != plan_hash {
            return Completion::Mismatch(format!(
                "completion record belongs to plan {}, current plan is {plan_hash}",
                record.plan_hash
            ));
        }
        for (ext, recorded) in [("csv", &record.csv_digest), ("json", &record.json_digest)] {
            let artifact = dir.join(format!("{slug}.{ext}"));
            let bytes = match std::fs::read(&artifact) {
                Ok(b) => b,
                // A recorded-complete scenario whose artifact vanished
                // (deleted outputs, partial copy): not corruption — the
                // scenario simply has to run again.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Completion::Incomplete
                }
                Err(e) => {
                    return Completion::Mismatch(format!("unreadable {}: {e}", artifact.display()))
                }
            };
            let actual = Self::digest(&bytes);
            if &actual != recorded {
                return Completion::Mismatch(format!(
                    "{} digest {actual} does not match recorded {recorded} (torn or modified file)",
                    artifact.display()
                ));
            }
            // A stamped summary that the campaign files cannot be built
            // from must not count as done, or `--resume` would skip the
            // one scenario that needs to run again.
            if ext == "json" {
                if let Err(e) = entry_from_json(id, slug, &artifact, &bytes) {
                    return Completion::Mismatch(format!("stamped summary {e}"));
                }
            }
        }
        Completion::Complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("samr-resume-test-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Write and stamp scenario 7's artifacts: `csv-bytes` and the
    /// summary `json`.
    fn stamp_with(dir: &Path, slug: &str, plan: &str, json: &[u8]) {
        std::fs::write(dir.join(format!("{slug}.csv")), b"csv-bytes").unwrap();
        std::fs::write(dir.join(format!("{slug}.json")), json).unwrap();
        CompletionRecord::stamp(dir, 7, slug, plan, b"csv-bytes", json).unwrap();
    }

    fn stamp_pair(dir: &Path, slug: &str, plan: &str) {
        let summary = crate::pareto::tests::summary_with([0.1, 0.2, 0.3, 0.4]);
        let json = serde_json::to_string_pretty(&summary).unwrap();
        stamp_with(dir, slug, plan, json.as_bytes());
    }

    #[test]
    fn stamped_scenarios_validate_complete() {
        let dir = temp_dir("complete");
        stamp_pair(&dir, "s", "abc123");
        assert_eq!(
            CompletionRecord::status(&dir, 7, "s", "abc123"),
            Completion::Complete
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_record_or_artifact_is_incomplete() {
        let dir = temp_dir("incomplete");
        assert_eq!(
            CompletionRecord::status(&dir, 7, "s", "abc123"),
            Completion::Incomplete
        );
        stamp_pair(&dir, "s", "abc123");
        std::fs::remove_file(dir.join("s.csv")).unwrap();
        assert_eq!(
            CompletionRecord::status(&dir, 7, "s", "abc123"),
            Completion::Incomplete
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_plan_or_identity_is_a_mismatch() {
        let dir = temp_dir("foreign");
        stamp_pair(&dir, "s", "abc123");
        assert!(matches!(
            CompletionRecord::status(&dir, 7, "s", "other-plan"),
            Completion::Mismatch(_)
        ));
        assert!(matches!(
            CompletionRecord::status(&dir, 8, "s", "abc123"),
            Completion::Mismatch(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_artifact_bytes_are_a_mismatch() {
        let dir = temp_dir("torn");
        stamp_pair(&dir, "s", "abc123");
        std::fs::write(dir.join("s.csv"), b"csv-byt").unwrap(); // truncated
        match CompletionRecord::status(&dir, 7, "s", "abc123") {
            Completion::Mismatch(detail) => assert!(detail.contains("digest"), "{detail}"),
            other => panic!("expected Mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_stamped_summary_that_does_not_parse_is_a_mismatch() {
        let dir = temp_dir("unparsable");
        stamp_with(&dir, "s", "abc123", br#"{"not": "a summary"}"#);
        match CompletionRecord::status(&dir, 7, "s", "abc123") {
            Completion::Mismatch(detail) => assert!(detail.contains("does not parse"), "{detail}"),
            other => panic!("expected Mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_roundtrip_through_json() {
        let r = CompletionRecord {
            id: 3,
            slug: "tp2d_hybrid_p8_g1".into(),
            plan_hash: "0123456789abcdef".into(),
            csv_digest: CompletionRecord::digest(b"a"),
            json_digest: CompletionRecord::digest(b"b"),
        };
        let back: CompletionRecord =
            serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(r, back);
    }
}
