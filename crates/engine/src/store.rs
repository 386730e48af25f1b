//! Process-wide trace and model-series store, with a byte-budgeted
//! spill-to-disk cache behind the streaming path.
//!
//! Trace generation costs tens of seconds at paper scale, and every
//! figure, test, bench and campaign scenario wants the same traces; the
//! model series over a trace is likewise shared by every scenario that
//! sweeps partitioners or processor counts over the same application.
//! This module keeps both behind one cache.
//!
//! **Streaming path.** [`cached_source`] is the bounded-memory entry
//! point scenarios run through: on a miss it generates the trace as a
//! pull stream and writes it *straight to disk* (binary codec, one
//! snapshot resident at a time), then either admits the decoded trace to
//! the in-memory store — if the whole store stays under the byte budget
//! ([`trace_cache_budget`], default 256 MiB, env
//! `SAMR_TRACE_CACHE_BYTES`) — or serves it as a streaming reader over
//! the spill file. Either way a scenario's peak residency never includes
//! a trace the budget says must stay on disk.
//!
//! **Cache key correctness.** The key is the application kind plus the
//! *entire* serialized [`TraceGenConfig`] (the facade's original cache
//! keyed on a field subset and collided); the spill file name is a hash
//! of the same full-config key. The application kind encodes the
//! dimension, so 2-D and 3-D entries can never collide either.

use samr_apps::{generate_trace_any, trace_source_any, AppKind, TraceGenConfig};
use samr_core::{ModelPipeline, ModelState};
use samr_trace::io::{open_trace_source, write_binary_source, TraceIoError};
use samr_trace::{shared_source, AnySnapshotSource, AnyTrace};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The full-configuration cache key of a trace request.
pub fn trace_key(kind: AppKind, cfg: &TraceGenConfig) -> String {
    let cfg_json = serde_json::to_string(cfg).expect("TraceGenConfig serializes");
    format!("{}:{cfg_json}", kind.name())
}

type TraceCache = Mutex<HashMap<String, Arc<AnyTrace>>>;
type ModelCache = Mutex<HashMap<String, Arc<Vec<ModelState>>>>;

fn trace_cache() -> &'static TraceCache {
    static CACHE: OnceLock<TraceCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn model_cache() -> &'static ModelCache {
    static CACHE: OnceLock<ModelCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Approximate bytes currently held by the in-memory trace store.
fn mem_bytes() -> &'static AtomicU64 {
    static BYTES: AtomicU64 = AtomicU64::new(0);
    &BYTES
}

fn budget() -> &'static AtomicU64 {
    static BUDGET: OnceLock<AtomicU64> = OnceLock::new();
    BUDGET.get_or_init(|| {
        let default = 256 * 1024 * 1024;
        let bytes = match std::env::var("SAMR_TRACE_CACHE_BYTES") {
            Ok(v) => match v.parse::<u64>() {
                Ok(bytes) => bytes,
                // A budget the operator set but we cannot honor must not
                // be swallowed: say what was rejected and what runs.
                Err(_) => {
                    eprintln!(
                        "warning: SAMR_TRACE_CACHE_BYTES='{v}' is not a plain byte count \
                         (e.g. 268435456); using the default of {default} bytes"
                    );
                    default
                }
            },
            Err(_) => default,
        };
        AtomicU64::new(bytes)
    })
}

/// The in-memory trace-store byte budget: traces whose admission would
/// push the store past it are served as streaming readers over their
/// spill files instead. Initialized from `SAMR_TRACE_CACHE_BYTES`
/// (default 256 MiB); adjustable at runtime with
/// [`set_trace_cache_budget`].
pub fn trace_cache_budget() -> u64 {
    budget().load(Ordering::Relaxed)
}

/// Override the in-memory trace-store byte budget (see
/// [`trace_cache_budget`]). `0` forces every streamed trace to stay on
/// disk.
pub fn set_trace_cache_budget(bytes: u64) {
    budget().store(bytes, Ordering::Relaxed);
}

/// The directory spill files live in: shared across processes under the
/// system temp dir, so repeated runs reuse each other's spill files
/// instead of regenerating (and instead of leaking one directory per
/// pid). Safe because file names are content keys — a hash of the full
/// trace configuration *and* the running executable's identity
/// ([`exe_identity`]), so a build whose generator changed never reads an
/// older build's bytes — and files are written to a unique temp name and
/// renamed into place whole. The
/// directory itself is created lazily by [`generate_spill`], so an
/// unwritable temp dir surfaces as a typed I/O error on the degradable
/// spill path instead of a panic.
fn spill_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| std::env::temp_dir().join("samr-trace-cache"))
}

/// The running executable's path, length and modification time, read
/// once. Every rebuild changes it, while `--workers` children, which run
/// the same binary, share it and with it their spill files.
fn exe_identity() -> &'static str {
    static IDENTITY: OnceLock<String> = OnceLock::new();
    IDENTITY.get_or_init(|| {
        let exe = std::env::current_exe().ok();
        let meta = exe.as_ref().and_then(|p| std::fs::metadata(p).ok());
        let len = meta.as_ref().map(std::fs::Metadata::len);
        let modified = meta.and_then(|m| m.modified().ok());
        format!("{exe:?} {len:?} {modified:?}")
    })
}

/// The spill file of `key` for this executable.
fn spill_path(key: &str) -> PathBuf {
    spill_path_as(exe_identity(), key)
}

/// FNV-1a over the full-config key, salted with an executable identity:
/// a stable, file-safe spill name.
fn spill_path_as(identity: &str, key: &str) -> PathBuf {
    let hash = crate::plan::fnv1a_hex([identity.as_bytes(), key.as_bytes()]);
    spill_dir().join(format!("{hash}.trc"))
}

/// Generate the trace as a stream and spill it to `path` (binary
/// codec), never holding more than one snapshot. The bytes go to a
/// unique temporary sibling renamed into place whole; on any failure the
/// temporary is removed, as [`crate::atomic_write`] does, so nothing is
/// left behind in the shared spill directory.
fn generate_spill(kind: AppKind, cfg: &TraceGenConfig, path: &Path) -> Result<(), TraceIoError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let written = (|| {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        match trace_source_any(kind, cfg) {
            AnySnapshotSource::D2(mut s) => write_binary_source::<2, _>(&mut s, &mut w)?,
            AnySnapshotSource::D3(mut s) => write_binary_source::<3, _>(&mut s, &mut w)?,
        };
        w.flush()?;
        // Concurrent generators race benignly: the content is
        // deterministic, so whichever rename lands last is
        // byte-identical.
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written
}

/// Admit a trace to the in-memory store, tracking its footprint.
fn admit(key: String, trace: Arc<AnyTrace>) -> Arc<AnyTrace> {
    let mut cache = trace_cache().lock().unwrap();
    let entry = cache.entry(key).or_insert_with(|| {
        mem_bytes().fetch_add(trace.approx_bytes(), Ordering::Relaxed);
        trace
    });
    Arc::clone(entry)
}

/// Open (or create) the bounded-memory snapshot stream of an
/// application's trace under a configuration — the streaming counterpart
/// of [`cached_trace`] and the path every scenario runs through.
///
/// Resolution order: the in-memory store (zero I/O), then an existing
/// spill file, then generate-to-spill. A freshly spilled trace is
/// admitted to the in-memory store only if the store stays within
/// [`trace_cache_budget`]; otherwise the returned source streams from
/// disk and the trace is never whole in memory.
pub fn cached_source(
    kind: AppKind,
    cfg: &TraceGenConfig,
) -> Result<AnySnapshotSource, TraceIoError> {
    let key = trace_key(kind, cfg);
    if let Some(t) = trace_cache().lock().unwrap().get(&key) {
        return Ok(shared_source(Arc::clone(t)));
    }
    let path = spill_path(&key);
    if !path.exists() {
        generate_spill(kind, cfg, &path)?;
    }
    let file_bytes = std::fs::metadata(&path)?.len();
    // In-memory patches cost roughly 2–3× their 8-byte-per-coordinate
    // binary encoding; 3× keeps the admission decision conservative.
    let projected = mem_bytes().load(Ordering::Relaxed) + 3 * file_bytes;
    if projected <= trace_cache_budget() {
        let trace = Arc::new(open_trace_source(&path)?.collect()?);
        return Ok(shared_source(admit(key, trace)));
    }
    open_trace_source(&path)
}

/// Generate (or fetch from the process-wide cache) the whole trace of an
/// application under a configuration — the batch API. Materializes the
/// trace regardless of the byte budget (callers that can stream should
/// use [`cached_source`]).
///
/// Generation happens outside the cache lock, so concurrent campaign
/// workers asking for *different* traces generate them in parallel;
/// concurrent requests for the same key may race to generate, in which
/// case the first inserted trace wins and the others are dropped (the
/// generator is deterministic, so all candidates are identical anyway).
pub fn cached_trace(kind: AppKind, cfg: &TraceGenConfig) -> Arc<AnyTrace> {
    let key = trace_key(kind, cfg);
    if let Some(t) = trace_cache().lock().unwrap().get(&key) {
        return Arc::clone(t);
    }
    let trace = Arc::new(generate_trace_any(kind, cfg));
    admit(key, trace)
}

/// The model series (per-step penalties and classification points) over
/// the cached trace of an application — computed once per configuration
/// as a streaming fold (at most two snapshots resident) and shared by
/// every scenario sweeping partitioners over it. A spill-file I/O
/// failure degrades to the in-memory batch path (identical output)
/// rather than aborting the campaign.
pub fn cached_model(kind: AppKind, cfg: &TraceGenConfig) -> Arc<Vec<ModelState>> {
    let key = trace_key(kind, cfg);
    if let Some(m) = model_cache().lock().unwrap().get(&key) {
        return Arc::clone(m);
    }
    let pipeline = ModelPipeline::new();
    let states = cached_source(kind, cfg)
        .and_then(|mut source| pipeline.run_any_source(&mut source))
        .unwrap_or_else(|_| {
            // Disk trouble (full temp dir, reaped spill file) must not
            // kill a multi-scenario sweep: regenerate in memory.
            let trace = cached_trace(kind, cfg);
            match &*trace {
                AnyTrace::D2(t) => pipeline.run(t),
                AnyTrace::D3(t) => pipeline.run(t),
            }
        });
    let model = Arc::new(states);
    Arc::clone(model_cache().lock().unwrap().entry(key).or_insert(model))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_distinguishes_level_depth() {
        // The regression the old tuple key had: identical in every keyed
        // field, different `max_levels`.
        let shallow = TraceGenConfig {
            max_levels: 3,
            ..TraceGenConfig::smoke()
        };
        let deep = TraceGenConfig {
            max_levels: 5,
            ..TraceGenConfig::smoke()
        };
        assert_ne!(
            trace_key(AppKind::Bl2d, &shallow),
            trace_key(AppKind::Bl2d, &deep)
        );
        let a = cached_trace(AppKind::Bl2d, &shallow);
        let b = cached_trace(AppKind::Bl2d, &deep);
        assert!(!Arc::ptr_eq(&a, &b), "distinct configs must not collide");
    }

    #[test]
    fn same_config_hits_the_cache() {
        let cfg = TraceGenConfig::smoke();
        let a = cached_trace(AppKind::Tp2d, &cfg);
        let b = cached_trace(AppKind::Tp2d, &cfg);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn model_series_matches_trace_length() {
        let cfg = TraceGenConfig::smoke();
        let trace = cached_trace(AppKind::Sc2d, &cfg);
        let model = cached_model(AppKind::Sc2d, &cfg);
        assert_eq!(model.len(), trace.len());
        assert!(Arc::ptr_eq(&model, &cached_model(AppKind::Sc2d, &cfg)));
    }

    #[test]
    fn three_d_traces_share_the_store() {
        let cfg = TraceGenConfig {
            base_cells: 16,
            steps: 4,
            ..TraceGenConfig::smoke()
        };
        let t = cached_trace(AppKind::Sp3d, &cfg);
        assert_eq!(t.dim(), 3);
        assert!(Arc::ptr_eq(&t, &cached_trace(AppKind::Sp3d, &cfg)));
        let model = cached_model(AppKind::Sp3d, &cfg);
        assert_eq!(model.len(), t.len());
        for s in model.iter() {
            assert!((0.0..=1.0).contains(&s.beta_m));
            assert!((0.0..=1.0).contains(&s.beta_c));
        }
    }

    #[test]
    fn cached_source_streams_the_same_trace_as_the_batch_store() {
        let cfg = TraceGenConfig {
            seed: 77, // distinct key: exercise the generate-to-spill path
            ..TraceGenConfig::smoke()
        };
        let streamed = cached_source(AppKind::Tp2d, &cfg)
            .unwrap()
            .collect()
            .unwrap();
        let batch = cached_trace(AppKind::Tp2d, &cfg);
        assert_eq!(streamed, *batch);
        // The spill file exists and decodes to the same trace.
        let path = spill_path(&trace_key(AppKind::Tp2d, &cfg));
        assert!(path.exists(), "spill file missing at {path:?}");
    }

    #[test]
    fn spilled_traces_stay_on_disk_and_stream_identically() {
        // Force the spill decision without touching the global budget:
        // generate the spill, then open it directly as the over-budget
        // branch does.
        let cfg = TraceGenConfig {
            seed: 78,
            ..TraceGenConfig::smoke()
        };
        let key = trace_key(AppKind::Sc2d, &cfg);
        let path = spill_path(&key);
        generate_spill(AppKind::Sc2d, &cfg, &path).unwrap();
        let from_disk = open_trace_source(&path).unwrap().collect().unwrap();
        assert_eq!(from_disk, *cached_trace(AppKind::Sc2d, &cfg));
        // A disk-backed source never enters the in-memory store under a
        // zero budget: the projected size always exceeds it.
        let file_bytes = std::fs::metadata(&path).unwrap().len();
        assert!(3 * file_bytes > 0);
    }

    #[test]
    fn a_spill_from_another_executable_is_regenerated_not_read() {
        // Spill names hash the key with the running executable's path,
        // length and modification time.
        let exe = std::env::current_exe().unwrap();
        let len = std::fs::metadata(&exe).unwrap().len();
        assert!(exe_identity().starts_with(&format!("Some({exe:?}) Some({len})")));
        let cfg = TraceGenConfig {
            seed: 79,
            ..TraceGenConfig::smoke()
        };
        let key = trace_key(AppKind::Bl2d, &cfg);
        let own = spill_path(&key);
        assert_eq!(own, spill_path_as(exe_identity(), &key));
        // Another build left a decoy under this key: a well-formed trace
        // of another configuration. This executable regenerates instead.
        let decoy = spill_path_as("Some(\"/elsewhere/samr\") Some(1) None", &key);
        let decoy_cfg = TraceGenConfig {
            seed: 80,
            ..TraceGenConfig::smoke()
        };
        generate_spill(AppKind::Bl2d, &decoy_cfg, &decoy).unwrap();
        assert_ne!(own, decoy);
        std::fs::remove_file(&own).ok();
        let streamed = cached_source(AppKind::Bl2d, &cfg)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(streamed, generate_trace_any(AppKind::Bl2d, &cfg));
        assert!(own.exists(), "the trace was spilled under this identity");
        let decoy_trace = open_trace_source(&decoy).unwrap().collect().unwrap();
        assert_ne!(streamed, decoy_trace);
        std::fs::remove_file(&decoy).ok();
    }

    #[test]
    fn a_failed_spill_leaves_no_temporary_behind() {
        // A non-empty directory squatting on the spill path makes the
        // final rename fail after the whole trace was written.
        let dir = std::env::temp_dir().join(format!("samr-spill-fail-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("squatted.trc");
        std::fs::create_dir_all(path.join("occupant")).unwrap();
        let cfg = TraceGenConfig {
            steps: 2,
            ..TraceGenConfig::smoke()
        };
        assert!(generate_spill(AppKind::Sp3d, &cfg, &path).is_err());
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec!["squatted.trc".to_string()],
            "left behind: {names:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_knob_is_observable() {
        let before = trace_cache_budget();
        assert!(before > 0, "default budget must admit smoke traces");
    }
}
