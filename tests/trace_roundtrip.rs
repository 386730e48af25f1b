//! Trace serialization round-trips on real application traces — 2-D and
//! 3-D — and the model is invariant under serialization (the §5.1
//! methodology depends on traces being a faithful interchange format).
//!
//! Every original is generated in memory: the engine's batch store
//! ([`cached_trace`]) decodes its traces from spill files, so a trace it
//! returns has already been through the binary codec.

use samr::apps::{generate_trace_any, AppKind, TraceGenConfig};
use samr::engine::{build_thread_pool, cached_trace, CompletionRecord};
use samr::model::ModelPipeline;
use samr::trace::io::{
    decode_binary, decode_binary_any, encode_binary, encode_binary_any, read_jsonl, read_jsonl_any,
    write_jsonl,
};
use samr::trace::AnyTrace;

fn cfg_3d() -> TraceGenConfig {
    TraceGenConfig {
        base_cells: 16,
        steps: 5,
        ..TraceGenConfig::smoke()
    }
}

#[test]
fn jsonl_roundtrip_on_real_traces() {
    let cfg = TraceGenConfig::smoke();
    for kind in AppKind::ALL {
        let trace = generate_trace_any(kind, &cfg);
        let trace = trace.as_2d().expect("paper app");
        let mut buf = Vec::new();
        write_jsonl(trace, &mut buf).unwrap();
        let back = read_jsonl::<2, _>(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(*trace, back, "{}", kind.name());
    }
}

#[test]
fn binary_roundtrip_on_real_traces() {
    let cfg = TraceGenConfig::smoke();
    for kind in AppKind::ALL {
        let trace = generate_trace_any(kind, &cfg);
        let trace = trace.as_2d().expect("paper app");
        let bytes = encode_binary(trace);
        let back = decode_binary::<2>(&bytes).unwrap();
        assert_eq!(*trace, back, "{}", kind.name());
    }
}

#[test]
fn streaming_writer_and_reader_roundtrip_real_traces_via_files() {
    use samr::trace::io::{open_trace_source, BinarySnapshotWriter, JsonlSnapshotWriter};
    use samr::trace::{AnyTrace, MemorySource, SnapshotSource};

    let cfg = TraceGenConfig::smoke();
    let trace = generate_trace_any(AppKind::Bl2d, &cfg);
    let t2 = trace.as_2d().expect("BL2D is 2-D");
    let dir = std::env::temp_dir().join(format!("samr-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Stream out one snapshot at a time in both formats, then stream
    // back in through the sniffing file opener.
    let bin_path = dir.join("bl2d.bin.trace");
    {
        let file = std::fs::File::create(&bin_path).unwrap();
        let mut w = BinarySnapshotWriter::new(std::io::BufWriter::new(file), &t2.meta).unwrap();
        let mut src = MemorySource::new(t2);
        while let Some(s) = src.next_snapshot().unwrap() {
            w.write_snapshot(&s).unwrap();
        }
        w.finish().unwrap();
    }
    let jsonl_path = dir.join("bl2d.jsonl.trace");
    {
        let file = std::fs::File::create(&jsonl_path).unwrap();
        let mut w = JsonlSnapshotWriter::new(std::io::BufWriter::new(file), &t2.meta).unwrap();
        let mut src = MemorySource::new(t2);
        while let Some(s) = src.next_snapshot().unwrap() {
            w.write_snapshot(&s).unwrap();
        }
        w.finish().unwrap();
    }
    for path in [&bin_path, &jsonl_path] {
        let src = open_trace_source(path).unwrap();
        assert_eq!(src.dim(), 2);
        let back = src.collect().unwrap();
        assert_eq!(back, AnyTrace::D2(t2.clone()), "{}", path.display());
    }
    // The streamed binary bytes are exactly the batch encoder's bytes.
    assert_eq!(std::fs::read(&bin_path).unwrap(), encode_binary(t2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn roundtrips_on_real_3d_traces() {
    let trace = generate_trace_any(AppKind::Sp3d, &cfg_3d());
    // Binary, via the dimension-erased entry points the CLI uses.
    let bytes = encode_binary_any(&trace);
    let back = decode_binary_any(&bytes).unwrap();
    assert_eq!(trace, back);
    // JSON-lines with dimension sniffing.
    let t3 = trace.as_3d().expect("SP3D is 3-D");
    let mut buf = Vec::new();
    write_jsonl(t3, &mut buf).unwrap();
    let back = read_jsonl_any(std::io::BufReader::new(&buf[..])).unwrap();
    assert_eq!(back, AnyTrace::D3(t3.clone()));
}

#[test]
fn model_is_invariant_under_serialization() {
    let cfg = TraceGenConfig::smoke();
    let trace = generate_trace_any(AppKind::Bl2d, &cfg);
    let trace = trace.as_2d().expect("BL2D is 2-D");
    let direct = ModelPipeline::new().run(trace);
    let roundtripped = decode_binary::<2>(&encode_binary(trace)).unwrap();
    let indirect = ModelPipeline::new().run(&roundtripped);
    assert_eq!(direct, indirect);
}

#[test]
fn model_is_invariant_under_serialization_3d() {
    let trace = generate_trace_any(AppKind::Sp3d, &cfg_3d());
    let trace = trace.as_3d().expect("SP3D is 3-D");
    let direct = ModelPipeline::new().run(trace);
    let roundtripped = decode_binary::<3>(&encode_binary(trace)).unwrap();
    let indirect = ModelPipeline::new().run(&roundtripped);
    assert_eq!(direct, indirect);
}

#[test]
fn binary_is_compact() {
    let cfg = TraceGenConfig::smoke();
    let trace = generate_trace_any(AppKind::Sc2d, &cfg);
    let trace = trace.as_2d().expect("SC2D is 2-D");
    let mut json = Vec::new();
    write_jsonl(trace, &mut json).unwrap();
    let bin = encode_binary(trace);
    // Points serialize as plain coordinate arrays since the
    // dimension-generic refactor, which shrank the JSON too — the binary
    // format must still save at least half.
    assert!(
        bin.len() * 2 < json.len(),
        "binary {} vs jsonl {}",
        bin.len(),
        json.len()
    );
}

/// FNV-1a digests ([`CompletionRecord::digest`]) of every application's
/// SAMRTRC2 bytes: the 2-D apps at [`TraceGenConfig::smoke`], SP3D at
/// the smaller 3-D smoke config above (the full smoke config takes
/// minutes in a debug build). Any change to a kernel's arithmetic or to
/// the regrid pipeline that moves one patch of one snapshot changes the
/// app's digest.
const TRACE_GOLDEN_DIGESTS: [(AppKind, &str); 6] = [
    (AppKind::Tp2d, "eba0938ad4bed4a1"),
    (AppKind::Bl2d, "34d1e933a487d6c0"),
    (AppKind::Sc2d, "b19d2c2da399d3db"),
    (AppKind::Rm2d, "5f918c46e2594e47"),
    (AppKind::Pc2d, "cca75474179c1799"),
    (AppKind::Sp3d, "90b7f6a741198693"),
];

#[test]
fn every_app_trace_matches_its_golden_digest() {
    let digest = |trace: &AnyTrace| CompletionRecord::digest(&encode_binary_any(trace));
    for (kind, want) in TRACE_GOLDEN_DIGESTS {
        let cfg = match kind.dim() {
            2 => TraceGenConfig::smoke(),
            _ => cfg_3d(),
        };
        let name = kind.name();
        let generated = generate_trace_any(kind, &cfg);
        assert_eq!(digest(&generated), want, "{name} trace bytes moved");
        // The batch store decodes the trace from its spill file, which
        // must give back exactly what the generator produced.
        assert_eq!(
            *cached_trace(kind, &cfg),
            generated,
            "{name} spill decodes to another trace"
        );
        // Generated outside a worker, a trace regrids its segments
        // across the pool; every width must write the same bytes.
        for threads in 1..=3 {
            let pool = build_thread_pool(threads).unwrap();
            let trace = pool.install(|| generate_trace_any(kind, &cfg));
            assert_eq!(
                digest(&trace),
                want,
                "{name} trace bytes moved on a {threads}-thread pool"
            );
        }
    }
}
