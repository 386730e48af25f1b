//! Trace serialization: JSON-lines and a compact binary format, generic
//! over the dimension — batch *and* streaming.
//!
//! JSON-lines is the interchange/inspection format (one snapshot per line,
//! greppable, diff-able); the binary format is for large parameter sweeps
//! where trace I/O would otherwise dominate. Both roundtrip exactly, and
//! both carry the spatial dimension explicitly (the metadata's `dim`
//! field in JSON, a dimension byte after the magic in binary) so readers
//! can dispatch without guessing.
//!
//! Both formats are record-oriented, so both support **bounded-memory
//! streaming** in each direction: [`JsonlSnapshotReader`] /
//! [`BinarySnapshotReader`] implement [`SnapshotSource`] (one snapshot
//! resident at a time), and [`JsonlSnapshotWriter`] /
//! [`BinarySnapshotWriter`] accept snapshots one at a time — so a trace
//! can be generated straight to disk without ever materializing. The
//! whole-trace functions ([`read_jsonl`], [`decode_binary`], …) are thin
//! collect/drain wrappers over the streaming forms.

use crate::source::{AnySnapshotSource, SnapshotSource};
use crate::trace::{AnyTrace, HierarchyTrace, Snapshot, TraceMeta};
use samr_geom::{AABox, Point};
use samr_grid::{GridHierarchy, Level};
use serde::Deserialize;
use std::io::{self, BufRead, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes of the binary format (version 2: dimension-tagged).
const MAGIC: &[u8; 8] = b"SAMRTRC2";

/// Errors from trace deserialization.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// Structural problem in the encoded data.
    Format(String),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "trace I/O error: {e}"),
            Self::Json(e) => write!(f, "trace JSON error: {e}"),
            Self::Format(m) => write!(f, "trace format error: {m}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<serde_json::Error> for TraceIoError {
    fn from(e: serde_json::Error) -> Self {
        Self::Json(e)
    }
}

/// The per-snapshot validation every codec reader applies before
/// yielding: strictly increasing steps and structural hierarchy
/// invariants — the same contract [`HierarchyTrace::try_push`] enforces
/// at the in-memory boundary.
fn validate_snapshot<const D: usize>(
    meta: &TraceMeta<D>,
    last_step: &mut Option<u32>,
    snap: &Snapshot<D>,
) -> Result<(), TraceIoError> {
    if let Some(last) = *last_step {
        if snap.step <= last {
            return Err(TraceIoError::Format(format!(
                "trace steps must be strictly increasing: {} after {}",
                snap.step, last
            )));
        }
    }
    snap.hierarchy.validate(meta.min_block).map_err(|e| {
        TraceIoError::Format(format!("invalid hierarchy at step {}: {e}", snap.step))
    })?;
    *last_step = Some(snap.step);
    Ok(())
}

// ---------------------------------------------------------------------------
// JSON-lines
// ---------------------------------------------------------------------------

/// Streaming JSON-lines writer: metadata on construction, then one line
/// per [`JsonlSnapshotWriter::write_snapshot`] call. Nothing is buffered
/// beyond the line being written.
pub struct JsonlSnapshotWriter<W: Write> {
    w: W,
}

impl<W: Write> JsonlSnapshotWriter<W> {
    /// Start a stream by writing the metadata line.
    pub fn new<const D: usize>(mut w: W, meta: &TraceMeta<D>) -> Result<Self, TraceIoError> {
        serde_json::to_writer(&mut w, meta)?;
        w.write_all(b"\n")?;
        Ok(Self { w })
    }

    /// Append one snapshot line.
    pub fn write_snapshot<const D: usize>(
        &mut self,
        snap: &Snapshot<D>,
    ) -> Result<(), TraceIoError> {
        serde_json::to_writer(&mut self.w, snap)?;
        self.w.write_all(b"\n")?;
        Ok(())
    }

    /// Flush and hand back the underlying writer.
    pub fn finish(mut self) -> Result<W, TraceIoError> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Streaming JSON-lines reader: parses the metadata line on construction
/// and then one snapshot per pull, validating each before yielding.
pub struct JsonlSnapshotReader<const D: usize, R: BufRead> {
    r: R,
    meta: TraceMeta<D>,
    last_step: Option<u32>,
}

impl<const D: usize, R: BufRead> JsonlSnapshotReader<D, R> {
    /// Read the metadata line and set up the snapshot stream.
    pub fn new(mut r: R) -> Result<Self, TraceIoError> {
        let mut first = String::new();
        if r.read_line(&mut first)? == 0 {
            return Err(TraceIoError::Format("empty trace stream".into()));
        }
        let meta: TraceMeta<D> = serde_json::from_str(first.trim_end())?;
        Ok(Self {
            r,
            meta,
            last_step: None,
        })
    }
}

impl<const D: usize, R: BufRead> SnapshotSource<D> for JsonlSnapshotReader<D, R> {
    fn meta(&self) -> &TraceMeta<D> {
        &self.meta
    }

    fn next_snapshot(&mut self) -> Result<Option<Snapshot<D>>, TraceIoError> {
        loop {
            let mut line = String::new();
            if self.r.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            if line.trim().is_empty() {
                continue;
            }
            let snap: Snapshot<D> = serde_json::from_str(line.trim_end())?;
            validate_snapshot(&self.meta, &mut self.last_step, &snap)?;
            return Ok(Some(snap));
        }
    }
}

/// Write a trace as JSON-lines: the first line is the metadata, every
/// following line one snapshot.
pub fn write_jsonl<const D: usize, W: Write>(
    trace: &HierarchyTrace<D>,
    w: W,
) -> Result<(), TraceIoError> {
    let mut out = JsonlSnapshotWriter::new(w, &trace.meta)?;
    for s in &trace.snapshots {
        out.write_snapshot(s)?;
    }
    out.finish()?;
    Ok(())
}

/// Read a JSON-lines trace written by [`write_jsonl`].
pub fn read_jsonl<const D: usize, R: BufRead>(r: R) -> Result<HierarchyTrace<D>, TraceIoError> {
    HierarchyTrace::from_source(JsonlSnapshotReader::new(r)?)
}

/// Read a JSON-lines trace of either dimension, dispatching on the
/// metadata's `dim` field. Only the metadata line is buffered; the
/// snapshot lines stream through [`read_jsonl`] as usual.
pub fn read_jsonl_any<R: BufRead>(mut r: R) -> Result<AnyTrace, TraceIoError> {
    let mut first = String::new();
    if r.read_line(&mut first)? == 0 {
        return Err(TraceIoError::Format("empty trace stream".into()));
    }
    let dim = jsonl_meta_dim(&first)?;
    let rest = std::io::Cursor::new(first.into_bytes()).chain(r);
    match dim {
        2 => read_jsonl::<2, _>(std::io::BufReader::new(rest)).map(AnyTrace::D2),
        3 => read_jsonl::<3, _>(std::io::BufReader::new(rest)).map(AnyTrace::D3),
        other => Err(TraceIoError::Format(format!(
            "unsupported trace dimension {other}"
        ))),
    }
}

/// The `dim` field of a JSON-lines metadata line.
fn jsonl_meta_dim(line: &str) -> Result<usize, TraceIoError> {
    serde_json::value_from_slice(line.trim_end().as_bytes())
        .ok()
        .and_then(|v| v.get("dim").and_then(|d| usize::deserialize(d).ok()))
        .ok_or_else(|| TraceIoError::Format("metadata line carries no dimension".into()))
}

// ---------------------------------------------------------------------------
// Binary (SAMRTRC2)
// ---------------------------------------------------------------------------

/// Encode one snapshot record into `buf`.
fn encode_snapshot<const D: usize>(buf: &mut Vec<u8>, s: &Snapshot<D>) {
    buf.extend_from_slice(&s.step.to_le_bytes());
    buf.extend_from_slice(&s.time.to_le_bytes());
    put_rect(buf, &s.hierarchy.base_domain);
    buf.push(s.hierarchy.ratio as u8);
    buf.extend_from_slice(&(s.hierarchy.levels.len() as u16).to_le_bytes());
    for level in &s.hierarchy.levels {
        buf.extend_from_slice(&(level.patches.len() as u32).to_le_bytes());
        for p in &level.patches {
            put_rect(buf, &p.rect);
        }
    }
}

/// Streaming binary writer: header on construction, one record per
/// [`BinarySnapshotWriter::write_snapshot`], snapshot count backpatched
/// on [`BinarySnapshotWriter::finish`] (which is why the sink must
/// [`Seek`] — files and in-memory cursors both do).
pub struct BinarySnapshotWriter<W: Write + Seek> {
    w: W,
    count_pos: u64,
    count: u32,
}

impl<W: Write + Seek> BinarySnapshotWriter<W> {
    /// Write the stream header (magic, dimension byte, metadata, count
    /// placeholder).
    pub fn new<const D: usize>(mut w: W, meta: &TraceMeta<D>) -> Result<Self, TraceIoError> {
        let meta_json = serde_json::to_vec(meta).expect("meta serializes");
        let mut head = Vec::with_capacity(13 + meta_json.len());
        head.extend_from_slice(MAGIC);
        head.push(D as u8);
        head.extend_from_slice(&(meta_json.len() as u32).to_le_bytes());
        head.extend_from_slice(&meta_json);
        w.write_all(&head)?;
        let count_pos = w.stream_position()?;
        w.write_all(&0u32.to_le_bytes())?;
        Ok(Self {
            w,
            count_pos,
            count: 0,
        })
    }

    /// Append one snapshot record.
    pub fn write_snapshot<const D: usize>(
        &mut self,
        snap: &Snapshot<D>,
    ) -> Result<(), TraceIoError> {
        let mut record = Vec::with_capacity(1 << 12);
        encode_snapshot(&mut record, snap);
        self.w.write_all(&record)?;
        self.count += 1;
        Ok(())
    }

    /// Backpatch the snapshot count, flush, and hand back the writer.
    pub fn finish(mut self) -> Result<W, TraceIoError> {
        self.w.seek(SeekFrom::Start(self.count_pos))?;
        self.w.write_all(&self.count.to_le_bytes())?;
        self.w.seek(SeekFrom::End(0))?;
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Map an end-of-stream read to a format error: at this layer a short
/// stream is malformed data, not an I/O accident.
fn read_exact_or_truncated<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), TraceIoError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceIoError::Format("truncated trace".into())
        } else {
            TraceIoError::Io(e)
        }
    })
}

fn read_u8<R: Read>(r: &mut R) -> Result<u8, TraceIoError> {
    let mut b = [0u8; 1];
    read_exact_or_truncated(r, &mut b)?;
    Ok(b[0])
}

fn read_u16_le<R: Read>(r: &mut R) -> Result<u16, TraceIoError> {
    let mut b = [0u8; 2];
    read_exact_or_truncated(r, &mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32_le<R: Read>(r: &mut R) -> Result<u32, TraceIoError> {
    let mut b = [0u8; 4];
    read_exact_or_truncated(r, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_f64_le<R: Read>(r: &mut R) -> Result<f64, TraceIoError> {
    let mut b = [0u8; 8];
    read_exact_or_truncated(r, &mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn read_rect<const D: usize, R: Read>(r: &mut R) -> Result<AABox<D>, TraceIoError> {
    let mut raw = [0i64; D];
    for v in raw.iter_mut() {
        let mut b = [0u8; 4];
        read_exact_or_truncated(r, &mut b)?;
        *v = i32::from_le_bytes(b) as i64;
    }
    let lo = Point::<D>::from_fn(|i| raw[i]);
    for v in raw.iter_mut() {
        let mut b = [0u8; 4];
        read_exact_or_truncated(r, &mut b)?;
        *v = i32::from_le_bytes(b) as i64;
    }
    let hi = Point::<D>::from_fn(|i| raw[i]);
    AABox::try_new(lo, hi).ok_or_else(|| TraceIoError::Format(format!("empty rect {lo:?}..{hi:?}")))
}

/// Streaming binary reader: parses the header on construction and then
/// one record per pull, validating each snapshot before yielding. Per-
/// level allocations are grown incrementally, so a hostile patch count
/// fails at end of input instead of reserving gigabytes. For the same
/// reason it gives no [`SnapshotSource::len_hint`]: the header's
/// snapshot count is a claim the bytes that follow may not back.
pub struct BinarySnapshotReader<const D: usize, R: Read> {
    r: R,
    meta: TraceMeta<D>,
    remaining: u32,
    last_step: Option<u32>,
}

impl<const D: usize, R: Read> BinarySnapshotReader<D, R> {
    /// Read and check the stream header.
    pub fn new(mut r: R) -> Result<Self, TraceIoError> {
        let mut head = [0u8; 9];
        r.read_exact(&mut head).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                TraceIoError::Format("truncated trace header".into())
            } else {
                TraceIoError::Io(e)
            }
        })?;
        if &head[..8] != MAGIC {
            return Err(TraceIoError::Format("bad magic".into()));
        }
        let dim = head[8] as usize;
        if !(dim == 2 || dim == 3) {
            return Err(TraceIoError::Format(format!(
                "unsupported trace dimension {dim}"
            )));
        }
        if dim != D {
            return Err(TraceIoError::Format(format!(
                "trace dimension mismatch: stream carries {dim}-D, expected {D}-D"
            )));
        }
        let meta_len = read_u32_le(&mut r)? as usize;
        // The metadata is one JSON object; cap the buffer growth by
        // reading incrementally so a hostile length fails at EOF.
        let mut meta_json = vec![0u8; meta_len.min(1 << 16)];
        read_exact_or_truncated(&mut r, &mut meta_json)?;
        while meta_json.len() < meta_len {
            let take = (meta_len - meta_json.len()).min(1 << 16);
            let start = meta_json.len();
            meta_json.resize(start + take, 0);
            read_exact_or_truncated(&mut r, &mut meta_json[start..])?;
        }
        let meta: TraceMeta<D> = serde_json::from_slice(&meta_json)?;
        let remaining = read_u32_le(&mut r)?;
        Ok(Self {
            r,
            meta,
            remaining,
            last_step: None,
        })
    }
}

impl<const D: usize, R: Read> SnapshotSource<D> for BinarySnapshotReader<D, R> {
    fn meta(&self) -> &TraceMeta<D> {
        &self.meta
    }

    fn next_snapshot(&mut self) -> Result<Option<Snapshot<D>>, TraceIoError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let step = read_u32_le(&mut self.r)?;
        let time = read_f64_le(&mut self.r)?;
        let base = read_rect::<D, _>(&mut self.r)?;
        let ratio = read_u8(&mut self.r)? as i64;
        if !(2..=16).contains(&ratio) {
            return Err(TraceIoError::Format(format!(
                "implausible refinement ratio {ratio}"
            )));
        }
        let n_levels = read_u16_le(&mut self.r)? as usize;
        if n_levels > 32 {
            return Err(TraceIoError::Format(format!(
                "implausible level count {n_levels}"
            )));
        }
        let mut level_rects: Vec<Vec<AABox<D>>> = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            let n_patches = read_u32_le(&mut self.r)? as usize;
            let mut rects = Vec::with_capacity(n_patches.min(1 << 16));
            for _ in 0..n_patches {
                rects.push(read_rect::<D, _>(&mut self.r)?);
            }
            level_rects.push(rects);
        }
        let snap = Snapshot {
            step,
            time,
            hierarchy: GridHierarchy {
                base_domain: base,
                ratio,
                levels: level_rects.iter().map(|r| Level::from_rects(r)).collect(),
            },
        };
        validate_snapshot(&self.meta, &mut self.last_step, &snap)?;
        self.remaining -= 1;
        Ok(Some(snap))
    }
}

/// Encode a trace into the compact binary format: the snapshots drained
/// through a [`BinarySnapshotWriter`] into memory.
pub fn encode_binary<const D: usize>(trace: &HierarchyTrace<D>) -> Vec<u8> {
    let encode = || -> Result<Vec<u8>, TraceIoError> {
        let mut w = BinarySnapshotWriter::new(io::Cursor::new(Vec::new()), &trace.meta)?;
        for s in &trace.snapshots {
            w.write_snapshot(s)?;
        }
        Ok(w.finish()?.into_inner())
    };
    encode().expect("writing to memory cannot fail")
}

/// Encode a dimension-erased trace.
pub fn encode_binary_any(trace: &AnyTrace) -> Vec<u8> {
    match trace {
        AnyTrace::D2(t) => encode_binary(t),
        AnyTrace::D3(t) => encode_binary(t),
    }
}

/// Sniff the dimension byte of a binary trace header, validating the
/// magic. Returns an error for short or foreign byte streams.
pub fn binary_dim(data: &[u8]) -> Result<usize, TraceIoError> {
    if data.len() < 9 {
        return Err(TraceIoError::Format("truncated trace header".into()));
    }
    if &data[..8] != MAGIC {
        return Err(TraceIoError::Format("bad magic".into()));
    }
    match data[8] {
        d @ (2 | 3) => Ok(d as usize),
        other => Err(TraceIoError::Format(format!(
            "unsupported trace dimension {other}"
        ))),
    }
}

/// Decode a binary trace produced by [`encode_binary`]. The stream's
/// dimension byte must match `D`; use [`decode_binary_any`] to dispatch
/// on it instead. A collect over [`BinarySnapshotReader`]; trailing bytes
/// after the declared snapshot count are ignored, as before.
pub fn decode_binary<const D: usize>(mut data: &[u8]) -> Result<HierarchyTrace<D>, TraceIoError> {
    HierarchyTrace::from_source(BinarySnapshotReader::<D, _>::new(&mut data)?)
}

/// Decode a binary trace of either dimension, dispatching on the header's
/// dimension byte.
pub fn decode_binary_any(data: &[u8]) -> Result<AnyTrace, TraceIoError> {
    match binary_dim(data)? {
        2 => decode_binary::<2>(data).map(AnyTrace::D2),
        3 => decode_binary::<3>(data).map(AnyTrace::D3),
        _ => unreachable!("binary_dim only returns supported dimensions"),
    }
}

fn put_rect<const D: usize>(buf: &mut Vec<u8>, r: &AABox<D>) {
    for i in 0..D {
        buf.extend_from_slice(&(r.lo()[i] as i32).to_le_bytes());
    }
    for i in 0..D {
        buf.extend_from_slice(&(r.hi()[i] as i32).to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// File sniffing
// ---------------------------------------------------------------------------

/// Open a trace file as a dimension-erased streaming snapshot source,
/// sniffing the format (binary `SAMRTRC2` vs. JSON-lines) and the
/// dimension from the header — the single file entry point the CLI and
/// the engine's spill cache share. Only the header is parsed eagerly;
/// snapshots stream on demand.
pub fn open_trace_source(path: &Path) -> Result<AnySnapshotSource, TraceIoError> {
    let mut file = std::fs::File::open(path)?;
    let mut head = [0u8; 9];
    let mut got = 0usize;
    while got < head.len() {
        let n = file.read(&mut head[got..])?;
        if n == 0 {
            break;
        }
        got += n;
    }
    file.seek(SeekFrom::Start(0))?;
    if got >= 9 && &head[..8] == MAGIC {
        let r = io::BufReader::new(file);
        return match head[8] {
            2 => Ok(AnySnapshotSource::D2(Box::new(
                BinarySnapshotReader::<2, _>::new(r)?,
            ))),
            3 => Ok(AnySnapshotSource::D3(Box::new(
                BinarySnapshotReader::<3, _>::new(r)?,
            ))),
            other => Err(TraceIoError::Format(format!(
                "unsupported trace dimension {other}"
            ))),
        };
    }
    if got >= 7 && head.starts_with(b"SAMRTRC") {
        // A binary trace of another format version (e.g. the
        // pre-dimension-tag SAMRTRC1): fail with an actionable message
        // instead of feeding binary bytes to the JSONL parser.
        return Err(TraceIoError::Format(format!(
            "unsupported binary trace version {:?}; regenerate with `samr generate`",
            String::from_utf8_lossy(&head[..8])
        )));
    }
    // JSON-lines: sniff the dimension from the metadata line, rewind, and
    // hand the stream to the typed reader.
    let mut r = io::BufReader::new(file);
    let mut first = String::new();
    if r.read_line(&mut first)? == 0 {
        return Err(TraceIoError::Format("empty trace stream".into()));
    }
    let dim = jsonl_meta_dim(&first)?;
    let mut file = r.into_inner();
    file.seek(SeekFrom::Start(0))?;
    let r = io::BufReader::new(file);
    match dim {
        2 => Ok(AnySnapshotSource::D2(Box::new(
            JsonlSnapshotReader::<2, _>::new(r)?,
        ))),
        3 => Ok(AnySnapshotSource::D3(Box::new(
            JsonlSnapshotReader::<3, _>::new(r)?,
        ))),
        other => Err(TraceIoError::Format(format!(
            "unsupported trace dimension {other}"
        ))),
    }
}

/// Stream a snapshot source to a seekable sink in the binary format,
/// returning the number of snapshots written. The bounded-memory
/// generate-straight-to-disk path: one snapshot resident at a time.
pub fn write_binary_source<const D: usize, W: Write + Seek>(
    src: &mut (dyn SnapshotSource<D> + '_),
    w: W,
) -> Result<u32, TraceIoError> {
    let mut out = BinarySnapshotWriter::new(w, src.meta())?;
    let mut n = 0u32;
    while let Some(snap) = src.next_snapshot()? {
        out.write_snapshot(&snap)?;
        n += 1;
    }
    out.finish()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_geom::{Box3, Rect2};

    fn sample_trace() -> HierarchyTrace<2> {
        let meta = TraceMeta {
            app: "TEST".into(),
            description: "io roundtrip".into(),
            base_domain: Rect2::from_extents(16, 16),
            ratio: 2,
            max_levels: 5,
            regrid_interval: 4,
            min_block: 2,
            seed: 7,
        };
        let mut t = HierarchyTrace::new(meta);
        for step in 0..5u32 {
            let off = step as i64;
            let l1 = Rect2::from_coords(2 + off, 2 + off, 11 + off, 11 + off);
            let l2 = l1.refine(2).shrink(4).unwrap();
            t.push(Snapshot {
                step,
                time: step as f64 * 0.25,
                hierarchy: GridHierarchy::from_level_rects(
                    Rect2::from_extents(16, 16),
                    2,
                    &[vec![], vec![l1], vec![l2]],
                ),
            });
        }
        t
    }

    fn sample_trace_3d() -> HierarchyTrace<3> {
        let meta = TraceMeta {
            app: "SP3D".into(),
            description: "io roundtrip (3-D)".into(),
            base_domain: Box3::from_extents(12, 12, 12),
            ratio: 2,
            max_levels: 3,
            regrid_interval: 4,
            min_block: 2,
            seed: 7,
        };
        let mut t = HierarchyTrace::new(meta);
        for step in 0..4u32 {
            let off = step as i64;
            let l1 = Box3::from_coords(2 + off, 2, 2, 7 + off, 7, 7);
            t.push(Snapshot {
                step,
                time: step as f64 * 0.25,
                hierarchy: GridHierarchy::from_level_rects(
                    Box3::from_extents(12, 12, 12),
                    2,
                    &[vec![], vec![l1]],
                ),
            });
        }
        t
    }

    #[test]
    fn jsonl_roundtrip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        let back = read_jsonl::<2, _>(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn jsonl_roundtrip_3d_and_any() {
        let t = sample_trace_3d();
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        let back = read_jsonl::<3, _>(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(t, back);
        let any = read_jsonl_any(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(any, AnyTrace::D3(t));
        // A 3-D stream read as 2-D errors out cleanly.
        assert!(read_jsonl::<2, _>(io::BufReader::new(&buf[..])).is_err());
    }

    #[test]
    fn jsonl_is_line_oriented() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1 + t.len());
        assert!(text.lines().next().unwrap().contains("\"app\":\"TEST\""));
        assert!(text.lines().next().unwrap().contains("\"dim\":2"));
    }

    #[test]
    fn binary_roundtrip() {
        let t = sample_trace();
        let bytes = encode_binary(&t);
        let back = decode_binary::<2>(&bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn binary_roundtrip_3d_and_any() {
        let t = sample_trace_3d();
        let bytes = encode_binary(&t);
        assert_eq!(binary_dim(&bytes).unwrap(), 3);
        let back = decode_binary::<3>(&bytes).unwrap();
        assert_eq!(t, back);
        let any = decode_binary_any(&bytes).unwrap();
        assert_eq!(any, AnyTrace::D3(t));
        // Dimension mismatch is a clean error, not a mis-parse.
        let err = decode_binary::<2>(&bytes).unwrap_err();
        assert!(err.to_string().contains("dimension mismatch"));
    }

    #[test]
    fn binary_header_is_magic_dimension_meta_and_count() {
        let t = sample_trace();
        let bytes = encode_binary(&t);
        assert_eq!(&bytes[..8], MAGIC);
        assert_eq!(bytes[8], 2);
        let meta_json = serde_json::to_vec(&t.meta).unwrap();
        let n = meta_json.len();
        assert_eq!(bytes[9..13], (n as u32).to_le_bytes());
        assert_eq!(bytes[13..13 + n], meta_json[..]);
        assert_eq!(bytes[13 + n..17 + n], (t.len() as u32).to_le_bytes());
    }

    #[test]
    fn streaming_binary_reader_pulls_one_snapshot_at_a_time() {
        let t = sample_trace_3d();
        let bytes = encode_binary(&t);
        let mut slice: &[u8] = &bytes;
        let mut r = BinarySnapshotReader::<3, _>::new(&mut slice).unwrap();
        assert_eq!(r.len_hint(), None, "the header's count is not trusted");
        assert_eq!(r.meta(), &t.meta);
        for want in &t.snapshots {
            assert_eq!(r.next_snapshot().unwrap().as_ref(), Some(want));
        }
        assert!(r.next_snapshot().unwrap().is_none());
        assert!(r.next_snapshot().unwrap().is_none());
    }

    #[test]
    fn streaming_readers_reject_corruption_like_batch_decoders() {
        // Non-monotone steps through the streaming JSONL reader.
        let t = sample_trace();
        let mut buf = Vec::new();
        let mut w = JsonlSnapshotWriter::new(&mut buf, &t.meta).unwrap();
        w.write_snapshot(&t.snapshots[1]).unwrap();
        w.write_snapshot(&t.snapshots[0]).unwrap();
        w.finish().unwrap();
        let mut r = JsonlSnapshotReader::<2, _>::new(io::BufReader::new(&buf[..])).unwrap();
        assert!(r.next_snapshot().unwrap().is_some());
        let err = r.next_snapshot().unwrap_err();
        assert!(err.to_string().contains("strictly increasing"), "{err}");
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let t = sample_trace();
        let mut json = Vec::new();
        write_jsonl(&t, &mut json).unwrap();
        let bin = encode_binary(&t);
        assert!(
            bin.len() * 2 < json.len(),
            "{} vs {}",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let err = decode_binary::<2>(b"NOTMAGIC.....").unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)));
        assert!(binary_dim(b"NOTMAGIC.....").is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let t = sample_trace();
        let bytes = encode_binary(&t);
        for cut in [3usize, 9, 20, bytes.len() - 5] {
            let err = decode_binary::<2>(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, TraceIoError::Format(_) | TraceIoError::Json(_)),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn empty_stream_is_an_error() {
        assert!(read_jsonl::<2, _>(io::BufReader::new(&b""[..])).is_err());
        assert!(read_jsonl_any(io::BufReader::new(&b""[..])).is_err());
    }

    #[test]
    fn open_trace_source_sniffs_both_formats() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join(format!("samr-trace-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bin_path = dir.join("t.bin.trace");
        let jsonl_path = dir.join("t.jsonl.trace");
        std::fs::write(&bin_path, encode_binary(&t)).unwrap();
        let mut jf = Vec::new();
        write_jsonl(&t, &mut jf).unwrap();
        std::fs::write(&jsonl_path, jf).unwrap();
        for path in [&bin_path, &jsonl_path] {
            let src = open_trace_source(path).unwrap();
            assert_eq!(src.dim(), 2);
            assert_eq!(src.collect().unwrap(), AnyTrace::D2(t.clone()));
        }
        // Unknown versions fail with an actionable message.
        let old = dir.join("t.old.trace");
        std::fs::write(&old, b"SAMRTRC1xxxxxxxx").unwrap();
        let err = match open_trace_source(&old) {
            Err(e) => e,
            Ok(_) => panic!("unknown binary version must not open"),
        };
        assert!(err.to_string().contains("unsupported binary trace version"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_binary_source_streams_a_memory_source() {
        use crate::source::MemorySource;
        let t = sample_trace();
        let mut src = MemorySource::new(&t);
        let mut cursor = io::Cursor::new(Vec::new());
        let n = write_binary_source::<2, _>(&mut src, &mut cursor).unwrap();
        assert_eq!(n as usize, t.len());
        assert_eq!(cursor.into_inner(), encode_binary(&t));
    }
}
