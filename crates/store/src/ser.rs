//! Versioned little-endian binary serialization for sketches, embedding
//! matrices, and HNSW graphs, following the `TSFMCKP1` idiom of
//! `tsfm_nn::io`: an 8-byte magic per container, explicit lengths, bounds
//! checks on every count, and typed [`StoreError::Corrupt`] errors — never
//! panics — on corrupt input.
//!
//! Containers (each starts with its magic followed by a `u32` version):
//!
//! | magic      | contents                                            |
//! |------------|-----------------------------------------------------|
//! | `TSFMSEG1` | one [`TableRecord`]: sketch bundle + embeddings     |
//! | `TSFMEMB1` | a dense `rows × dim` `f32` embedding matrix (also a section of every segment: the per-column embeddings) |
//! | `TSFMHNS1` | an [`Hnsw`] graph (vectors + neighbour lists + RNG) |
//! | `TSFMSHD1` | one shard manifest: table metadata for a hash-prefix slice of the catalog |
//! | `TSFMARN1` | a flat sketch arena: fixed-width offset table + concatenated `TSFMSEG1` payloads, read positionally |
//!
//! The catalog manifest (`TSFMCAT1`) and index cache (`TSFMIDX1`) formats
//! live in [`crate::catalog`], the shard manifest and arena formats in
//! [`crate::shard`]; all are built from these primitives.
//!
//! ## Frame versions
//!
//! Version 2 (current) is a checksummed frame:
//!
//! ```text
//! magic(8) · version=2 (u32) · payload_len (u64) · crc32c (u32) · payload
//! ```
//!
//! The CRC32C (see [`crate::durable::crc32c`]) covers the payload, so any
//! single flipped bit — in the header via field validation, in the payload
//! via the checksum — surfaces as a typed [`StoreError::Corrupt`], never a
//! panic or silent misread. Version 1 frames (`magic · version=1 ·
//! streamed payload`, no length, no checksum) are still **read** for
//! migration: the first commit after opening a v1 store rewrites its
//! files as v2. Writers only emit v2.

use crate::error::{StoreError, StoreResult, FRAME};
use crate::record::TableRecord;
use std::io::{Read, Write};
use tsfm_search::{Hnsw, HnswConfig, HnswSnapshot, Metric};
use tsfm_sketch::{ColumnSketch, MinHash, NumericalSketch, TableSketch};
use tsfm_table::ColType;

pub const SEGMENT_MAGIC: &[u8; 8] = b"TSFMSEG1";
pub const EMBEDDING_MAGIC: &[u8; 8] = b"TSFMEMB1";
pub const HNSW_MAGIC: &[u8; 8] = b"TSFMHNS1";
pub const MANIFEST_MAGIC: &[u8; 8] = b"TSFMCAT1";
pub const INDEX_MAGIC: &[u8; 8] = b"TSFMIDX1";
pub const SHARD_MAGIC: &[u8; 8] = b"TSFMSHD1";
pub const ARENA_MAGIC: &[u8; 8] = b"TSFMARN1";

/// Current version written into every container (checksummed frames).
pub const FORMAT_VERSION: u32 = 2;
/// The pre-checksum streaming format, still readable for migration.
pub const LEGACY_VERSION: u32 = 1;

const MAX_STR: usize = 1 << 20;
const MAX_SIG: usize = 1 << 16;
const MAX_COLS: usize = 1 << 20;
const MAX_ELEMS: usize = 1 << 28;

/// Frame-level corruption, attributed to a concrete container format by
/// the caller via [`StoreError::into_format`].
pub(crate) fn bad(msg: impl Into<String>) -> StoreError {
    StoreError::corrupt(FRAME, msg)
}

// ---- primitives -----------------------------------------------------------

pub(crate) fn write_u8<W: Write>(w: &mut W, v: u8) -> StoreResult<()> {
    Ok(w.write_all(&[v])?)
}

pub(crate) fn write_u32<W: Write>(w: &mut W, v: u32) -> StoreResult<()> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

pub(crate) fn write_u64<W: Write>(w: &mut W, v: u64) -> StoreResult<()> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

pub(crate) fn write_f64<W: Write>(w: &mut W, v: f64) -> StoreResult<()> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

pub(crate) fn write_str<W: Write>(w: &mut W, s: &str) -> StoreResult<()> {
    write_u32(w, s.len() as u32)?;
    Ok(w.write_all(s.as_bytes())?)
}

pub(crate) fn write_f32s<W: Write>(w: &mut W, vs: &[f32]) -> StoreResult<()> {
    write_u64(w, vs.len() as u64)?;
    for &v in vs {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

pub(crate) fn read_u8<R: Read>(r: &mut R) -> StoreResult<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

pub(crate) fn read_u32<R: Read>(r: &mut R) -> StoreResult<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

pub(crate) fn read_u64<R: Read>(r: &mut R) -> StoreResult<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

pub(crate) fn read_f64<R: Read>(r: &mut R) -> StoreResult<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

pub(crate) fn read_str<R: Read>(r: &mut R) -> StoreResult<String> {
    let len = read_u32(r)? as usize;
    if len > MAX_STR {
        return Err(bad(format!("unreasonable string length {len}")));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| bad("string not utf-8"))
}

pub(crate) fn read_f32s<R: Read>(r: &mut R) -> StoreResult<Vec<f32>> {
    let len = read_u64(r)? as usize;
    if len > MAX_ELEMS {
        return Err(bad(format!("unreasonable vector length {len}")));
    }
    let mut out = vec![0f32; len];
    let mut b = [0u8; 4];
    for v in &mut out {
        r.read_exact(&mut b)?;
        *v = f32::from_le_bytes(b);
    }
    Ok(out)
}

// ---- checksummed frames ---------------------------------------------------

/// A decoded frame header: either a v1 stream (the payload follows,
/// unframed — keep reading from the same reader) or a verified v2 payload.
pub(crate) enum Payload {
    Legacy,
    Framed(Vec<u8>),
}

/// Write a v2 frame: magic, version, payload length, CRC32C, payload.
pub(crate) fn write_frame<W: Write>(w: &mut W, magic: &[u8; 8], body: &[u8]) -> StoreResult<()> {
    w.write_all(magic)?;
    write_u32(w, FORMAT_VERSION)?;
    write_u64(w, body.len() as u64)?;
    write_u32(w, crate::durable::crc32c(body))?;
    Ok(w.write_all(body)?)
}

/// Read one frame of the given container type. For v2 the payload is
/// length-checked and CRC-verified before a byte of it is interpreted;
/// `Read::take` bounds the read so a garbled length can never
/// over-allocate. Errors are frame-level ([`bad`]) — the container reader
/// attributes them via [`StoreError::into_format`].
pub(crate) fn read_frame<R: Read>(r: &mut R, magic: &[u8; 8], what: &str) -> StoreResult<Payload> {
    let mut got = [0u8; 8];
    r.read_exact(&mut got)?;
    if &got != magic {
        return Err(bad(format!("not a {what} (bad magic)")));
    }
    match read_u32(r)? {
        LEGACY_VERSION => Ok(Payload::Legacy),
        FORMAT_VERSION => {
            let len = read_u64(r)?;
            let crc = read_u32(r)?;
            let mut body = Vec::new();
            r.take(len).read_to_end(&mut body)?;
            if body.len() as u64 != len {
                return Err(bad(format!(
                    "truncated {what}: frame claims {len} payload bytes, found {}",
                    body.len()
                )));
            }
            let actual = crate::durable::crc32c(&body);
            if actual != crc {
                return Err(bad(format!(
                    "{what} checksum mismatch: stored {crc:#010x}, computed {actual:#010x} \
                     over {len} bytes"
                )));
            }
            Ok(Payload::Framed(body))
        }
        v => Err(bad(format!("unsupported {what} version {v}"))),
    }
}

/// Consume only a frame's header (magic, version, and for v2 the length
/// and CRC words), leaving the reader at the first payload byte,
/// **without** verifying the checksum. For cheap peeks like the index
/// cache fingerprint in `stats` — anything that acts on the payload must
/// go through [`read_frame`].
pub(crate) fn read_frame_header<R: Read>(
    r: &mut R,
    magic: &[u8; 8],
    what: &str,
) -> StoreResult<u32> {
    let mut got = [0u8; 8];
    r.read_exact(&mut got)?;
    if &got != magic {
        return Err(bad(format!("not a {what} (bad magic)")));
    }
    let version = read_u32(r)?;
    match version {
        LEGACY_VERSION => {}
        FORMAT_VERSION => {
            read_u64(r)?;
            read_u32(r)?;
        }
        v => return Err(bad(format!("unsupported {what} version {v}"))),
    }
    Ok(version)
}

/// Parse a verified v2 payload from its in-memory slice, rejecting
/// trailing bytes (a v2 frame states its exact length, so leftovers mean
/// the payload and header disagree).
pub(crate) fn parse_framed<T>(
    body: &[u8],
    parse: impl FnOnce(&mut &[u8]) -> StoreResult<T>,
) -> StoreResult<T> {
    let mut s = body;
    let v = parse(&mut s)?;
    if !s.is_empty() {
        return Err(bad(format!("{} trailing bytes after payload", s.len())));
    }
    Ok(v)
}

// ---- sketches -------------------------------------------------------------

pub fn write_minhash<W: Write>(w: &mut W, mh: &MinHash) -> StoreResult<()> {
    write_u32(w, mh.k() as u32)?;
    for &s in &mh.sig {
        write_u64(w, s)?;
    }
    Ok(())
}

pub fn read_minhash<R: Read>(r: &mut R) -> StoreResult<MinHash> {
    let k = read_u32(r)? as usize;
    if k > MAX_SIG {
        return Err(bad(format!("unreasonable signature width {k}")));
    }
    let mut sig = Vec::with_capacity(k);
    for _ in 0..k {
        sig.push(read_u64(r)?);
    }
    Ok(MinHash { sig })
}

pub fn write_numeric<W: Write>(w: &mut W, s: &NumericalSketch) -> StoreResult<()> {
    write_f64(w, s.unique_frac)?;
    write_f64(w, s.nan_frac)?;
    write_f64(w, s.cell_width)?;
    for &p in &s.percentiles {
        write_f64(w, p)?;
    }
    write_f64(w, s.mean)?;
    write_f64(w, s.std)?;
    write_f64(w, s.min)?;
    write_f64(w, s.max)
}

pub fn read_numeric<R: Read>(r: &mut R) -> StoreResult<NumericalSketch> {
    let unique_frac = read_f64(r)?;
    let nan_frac = read_f64(r)?;
    let cell_width = read_f64(r)?;
    let mut percentiles = [0.0; 9];
    for p in &mut percentiles {
        *p = read_f64(r)?;
    }
    Ok(NumericalSketch {
        unique_frac,
        nan_frac,
        cell_width,
        percentiles,
        mean: read_f64(r)?,
        std: read_f64(r)?,
        min: read_f64(r)?,
        max: read_f64(r)?,
    })
}

/// `ColType` ↔ on-disk tag, reusing the paper's stable Fig.-1 codes.
fn coltype_tag(ty: ColType) -> u8 {
    ty.embedding_id() as u8
}

fn coltype_from_tag(tag: u8) -> StoreResult<ColType> {
    match tag {
        1 => Ok(ColType::Str),
        2 => Ok(ColType::Int),
        3 => Ok(ColType::Float),
        4 => Ok(ColType::Date),
        _ => Err(bad(format!("unknown column type tag {tag}"))),
    }
}

fn write_column_sketch<W: Write>(w: &mut W, c: &ColumnSketch) -> StoreResult<()> {
    write_str(w, &c.name)?;
    write_u8(w, coltype_tag(c.ty))?;
    write_minhash(w, &c.cell_minhash)?;
    match &c.word_minhash {
        Some(mh) => {
            write_u8(w, 1)?;
            write_minhash(w, mh)?;
        }
        None => write_u8(w, 0)?,
    }
    write_numeric(w, &c.numeric)
}

fn read_column_sketch<R: Read>(r: &mut R) -> StoreResult<ColumnSketch> {
    let name = read_str(r)?;
    let ty = coltype_from_tag(read_u8(r)?)?;
    let cell_minhash = read_minhash(r)?;
    let word_minhash = match read_u8(r)? {
        0 => None,
        1 => Some(read_minhash(r)?),
        t => return Err(bad(format!("bad word-minhash flag {t}"))),
    };
    Ok(ColumnSketch { name, ty, cell_minhash, word_minhash, numeric: read_numeric(r)? })
}

pub fn write_table_sketch<W: Write>(w: &mut W, s: &TableSketch) -> StoreResult<()> {
    write_str(w, &s.table_id)?;
    write_str(w, &s.table_name)?;
    write_str(w, &s.description)?;
    write_u64(w, s.num_rows as u64)?;
    write_minhash(w, &s.content_snapshot)?;
    write_u32(w, s.columns.len() as u32)?;
    for c in &s.columns {
        write_column_sketch(w, c)?;
    }
    Ok(())
}

pub fn read_table_sketch<R: Read>(r: &mut R) -> StoreResult<TableSketch> {
    let table_id = read_str(r)?;
    let table_name = read_str(r)?;
    let description = read_str(r)?;
    let num_rows = read_u64(r)? as usize;
    let content_snapshot = read_minhash(r)?;
    let ncols = read_u32(r)? as usize;
    if ncols > MAX_COLS {
        return Err(bad(format!("unreasonable column count {ncols}")));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(read_column_sketch(r)?);
    }
    Ok(TableSketch { table_id, table_name, description, content_snapshot, columns, num_rows })
}

// ---- embedding matrices ---------------------------------------------------

/// Write a dense `rows.len() × dim` matrix as a v2 frame. Every row must
/// have `dim` elements.
pub fn write_embedding_matrix<W: Write>(w: &mut W, rows: &[Vec<f32>], dim: usize) -> StoreResult<()> {
    let mut body = Vec::new();
    write_u32(&mut body, rows.len() as u32)?;
    write_u32(&mut body, dim as u32)?;
    for row in rows {
        if row.len() != dim {
            return Err(bad(format!("embedding row of {} elements, expected {dim}", row.len())));
        }
        for &v in row {
            body.extend_from_slice(&v.to_le_bytes());
        }
    }
    write_frame(w, EMBEDDING_MAGIC, &body)
}

pub fn read_embedding_matrix<R: Read>(r: &mut R) -> StoreResult<Vec<Vec<f32>>> {
    let res = match read_frame(r, EMBEDDING_MAGIC, "TSFM embedding matrix") {
        Ok(Payload::Legacy) => read_embedding_matrix_body(r),
        Ok(Payload::Framed(body)) => parse_framed(&body, |s| read_embedding_matrix_body(s)),
        Err(e) => Err(e),
    };
    res.map_err(|e| e.into_format("TSFMEMB1"))
}

fn read_embedding_matrix_body<R: Read>(r: &mut R) -> StoreResult<Vec<Vec<f32>>> {
    let nrows = read_u32(r)? as usize;
    let dim = read_u32(r)? as usize;
    if nrows.saturating_mul(dim) > MAX_ELEMS {
        return Err(bad(format!("unreasonable embedding matrix {nrows}×{dim}")));
    }
    let mut rows = Vec::with_capacity(nrows);
    let mut b = [0u8; 4];
    for _ in 0..nrows {
        let mut row = vec![0f32; dim];
        for v in &mut row {
            r.read_exact(&mut b)?;
            *v = f32::from_le_bytes(b);
        }
        rows.push(row);
    }
    Ok(rows)
}

// ---- table records (segment payload) -------------------------------------

pub fn write_record<W: Write>(w: &mut W, rec: &TableRecord) -> StoreResult<()> {
    let mut body = Vec::new();
    write_u64(&mut body, rec.content_hash)?;
    write_table_sketch(&mut body, &rec.sketch)?;
    match &rec.table_embedding {
        Some(e) => {
            write_u8(&mut body, 1)?;
            write_f32s(&mut body, e)?;
        }
        None => write_u8(&mut body, 0)?,
    }
    // Column embeddings: an embedded TSFMEMB1 frame (0 rows = none) — its
    // own CRC is redundant under the segment's but keeps the matrix
    // readable as a standalone container.
    let dim = rec.column_embeddings.first().map_or(0, Vec::len);
    write_embedding_matrix(&mut body, &rec.column_embeddings, dim)?;
    write_frame(w, SEGMENT_MAGIC, &body)
}

pub fn read_record<R: Read>(r: &mut R) -> StoreResult<TableRecord> {
    let res = match read_frame(r, SEGMENT_MAGIC, "TSFM segment") {
        Ok(Payload::Legacy) => read_record_body(r),
        Ok(Payload::Framed(body)) => parse_framed(&body, |s| read_record_body(s)),
        Err(e) => Err(e),
    };
    res.map_err(|e| e.into_format("TSFMSEG1"))
}

fn read_record_body<R: Read>(r: &mut R) -> StoreResult<TableRecord> {
    let content_hash = read_u64(r)?;
    let sketch = read_table_sketch(r)?;
    let table_embedding = match read_u8(r)? {
        0 => None,
        1 => Some(read_f32s(r)?),
        t => return Err(bad(format!("bad table-embedding flag {t}"))),
    };
    let column_embeddings = read_embedding_matrix(r)?;
    if !column_embeddings.is_empty() && column_embeddings.len() != sketch.columns.len() {
        return Err(bad(format!(
            "{} column embeddings for {} columns",
            column_embeddings.len(),
            sketch.columns.len()
        )));
    }
    Ok(TableRecord { sketch, content_hash, table_embedding, column_embeddings })
}

// ---- HNSW graphs ----------------------------------------------------------

/// Walks the graph through [`Hnsw`]'s borrowing accessors:
/// [`Hnsw::snapshot`] would copy the arena and allocate a list per node
/// per layer only to be read once here.
pub fn write_hnsw<W: Write>(w: &mut W, index: &Hnsw) -> StoreResult<()> {
    let cfg = index.config();
    let mut body = Vec::new();
    write_u32(&mut body, index.dim() as u32)?;
    write_u8(&mut body, index.metric().tag())?;
    write_u32(&mut body, cfg.m as u32)?;
    write_u32(&mut body, cfg.ef_construction as u32)?;
    write_u32(&mut body, cfg.ef_search as u32)?;
    write_u64(&mut body, cfg.seed)?;
    write_u64(&mut body, index.rng_state())?;
    write_u64(&mut body, index.max_level() as u64)?;
    match index.entry() {
        Some(e) => {
            write_u8(&mut body, 1)?;
            write_u64(&mut body, e as u64)?;
        }
        None => write_u8(&mut body, 0)?,
    }
    write_f32s(&mut body, index.vectors())?;
    write_u32(&mut body, index.len() as u32)?;
    for layers in index.layers() {
        write_u32(&mut body, layers.len() as u32)?;
        for layer in layers {
            write_u32(&mut body, layer.len() as u32)?;
            for &n in layer {
                write_u64(&mut body, n as u64)?;
            }
        }
    }
    write_frame(w, HNSW_MAGIC, &body)
}

pub fn read_hnsw<R: Read>(r: &mut R) -> StoreResult<Hnsw> {
    let res = match read_frame(r, HNSW_MAGIC, "TSFM HNSW graph") {
        Ok(Payload::Legacy) => read_hnsw_body(r),
        Ok(Payload::Framed(body)) => parse_framed(&body, |s| read_hnsw_body(s)),
        Err(e) => Err(e),
    };
    res.map_err(|e| e.into_format("TSFMHNS1"))
}

fn read_hnsw_body<R: Read>(r: &mut R) -> StoreResult<Hnsw> {
    let dim = read_u32(r)? as usize;
    let metric = Metric::from_tag(read_u8(r)?)
        .ok_or_else(|| bad("unknown distance metric tag"))?;
    let cfg = HnswConfig {
        m: read_u32(r)? as usize,
        ef_construction: read_u32(r)? as usize,
        ef_search: read_u32(r)? as usize,
        seed: read_u64(r)?,
    };
    let rng_state = read_u64(r)?;
    let max_level = read_u64(r)? as usize;
    let entry = match read_u8(r)? {
        0 => None,
        1 => Some(read_u64(r)? as usize),
        t => return Err(bad(format!("bad entry flag {t}"))),
    };
    let data = read_f32s(r)?;
    let n = read_u32(r)? as usize;
    // `data` holds real file content, so bounding counts by it keeps a
    // garbled header from over-allocating before validation catches it.
    if dim == 0 || n != data.len() / dim {
        return Err(bad(format!("node count {n} does not match vector buffer")));
    }
    let mut neighbors = Vec::with_capacity(n);
    for _ in 0..n {
        let nlayers = read_u32(r)? as usize;
        if nlayers > 64 {
            return Err(bad(format!("unreasonable layer count {nlayers}")));
        }
        let mut layers = Vec::with_capacity(nlayers);
        for _ in 0..nlayers {
            let len = read_u32(r)? as usize;
            if len > n {
                return Err(bad(format!("unreasonable neighbour count {len}")));
            }
            let mut layer = Vec::with_capacity(len);
            for _ in 0..len {
                layer.push(read_u64(r)? as usize);
            }
            layers.push(layer);
        }
        neighbors.push(layers);
    }
    let snapshot =
        HnswSnapshot { cfg, dim, metric, data, neighbors, entry, max_level, rng_state };
    Hnsw::from_snapshot(snapshot).map_err(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsfm_sketch::{MinHasher, SketchConfig};
    use tsfm_table::{Column, Table, Value};

    fn sample_sketch() -> TableSketch {
        let mut t = Table::new("t1", "cities").with_description("city stats");
        t.push_column(Column::new(
            "city",
            vec![Value::Str("Vienna".into()), Value::Str("Graz".into())],
        ));
        t.push_column(Column::new("pop", vec![Value::Int(1900000), Value::Int(290000)]));
        TableSketch::build(&t, &SketchConfig::default())
    }

    #[test]
    fn minhash_roundtrip() {
        let mh = MinHasher::new(32, 7).signature(["a", "b", "c"]);
        let mut buf = Vec::new();
        write_minhash(&mut buf, &mh).unwrap();
        assert_eq!(read_minhash(&mut buf.as_slice()).unwrap(), mh);
    }

    #[test]
    fn record_roundtrip_with_embeddings() {
        let rec = TableRecord {
            sketch: sample_sketch(),
            content_hash: 0xdead_beef,
            table_embedding: Some(vec![1.0, -2.5, 3.25]),
            column_embeddings: vec![vec![0.5; 4], vec![-0.5; 4]],
        };
        let mut buf = Vec::new();
        write_record(&mut buf, &rec).unwrap();
        let back = read_record(&mut buf.as_slice()).unwrap();
        assert_eq!(back.content_hash, rec.content_hash);
        assert_eq!(back.table_embedding, rec.table_embedding);
        assert_eq!(back.column_embeddings, rec.column_embeddings);
        assert_eq!(back.sketch.table_id, "t1");
        assert_eq!(back.sketch.columns.len(), 2);
        assert_eq!(back.sketch.content_snapshot, rec.sketch.content_snapshot);
        for (a, b) in back.sketch.columns.iter().zip(&rec.sketch.columns) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.ty, b.ty);
            assert_eq!(a.cell_minhash, b.cell_minhash);
            assert_eq!(a.word_minhash, b.word_minhash);
            assert_eq!(a.numeric, b.numeric);
        }
    }

    #[test]
    fn record_without_embeddings() {
        let rec = TableRecord::from_sketch(sample_sketch(), 42);
        let mut buf = Vec::new();
        write_record(&mut buf, &rec).unwrap();
        let back = read_record(&mut buf.as_slice()).unwrap();
        assert_eq!(back.table_embedding, None);
        assert!(back.column_embeddings.is_empty());
    }

    #[test]
    fn corrupt_records_error_never_panic() {
        let rec = TableRecord::from_sketch(sample_sketch(), 1);
        let mut buf = Vec::new();
        write_record(&mut buf, &rec).unwrap();
        // Bad magic.
        let mut junk = buf.clone();
        junk[0] ^= 0xff;
        assert!(read_record(&mut junk.as_slice()).is_err());
        // Bad version.
        let mut junk = buf.clone();
        junk[8] = 0xff;
        assert!(read_record(&mut junk.as_slice()).is_err());
        // Every strict prefix must error (EOF mid-field), never panic.
        for cut in 0..buf.len() {
            assert!(read_record(&mut buf[..cut].to_vec().as_slice()).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn any_single_bit_flip_in_a_record_is_detected() {
        // The v2 frame guarantee: header flips die in field validation
        // (version 2 cannot single-bit-flip to 1, so the legacy path can
        // never be triggered by accident), payload flips die on the CRC.
        let rec = TableRecord {
            sketch: sample_sketch(),
            content_hash: 77,
            table_embedding: Some(vec![0.25, -1.5]),
            column_embeddings: vec![vec![1.0; 3], vec![2.0; 3]],
        };
        let mut buf = Vec::new();
        write_record(&mut buf, &rec).unwrap();
        for byte in 0..buf.len() {
            for bit in 0..8 {
                buf[byte] ^= 1 << bit;
                assert!(read_record(&mut buf.as_slice()).is_err(), "flip {byte}:{bit} accepted");
                buf[byte] ^= 1 << bit;
            }
        }
        assert!(read_record(&mut buf.as_slice()).is_ok(), "restored buffer must read");
    }

    #[test]
    fn legacy_v1_record_still_reads() {
        // A v1 frame is magic + version + the streamed payload, no length
        // or checksum. Readers must keep accepting it so pre-checksum
        // stores open for migration.
        let rec = TableRecord::from_sketch(sample_sketch(), 321);
        let mut buf = Vec::new();
        buf.extend_from_slice(SEGMENT_MAGIC);
        write_u32(&mut buf, LEGACY_VERSION).unwrap();
        write_u64(&mut buf, rec.content_hash).unwrap();
        write_table_sketch(&mut buf, &rec.sketch).unwrap();
        write_u8(&mut buf, 0).unwrap();
        write_embedding_matrix(&mut buf, &[], 0).unwrap();
        let back = read_record(&mut buf.as_slice()).unwrap();
        assert_eq!(back.content_hash, 321);
        assert_eq!(back.sketch.table_id, rec.sketch.table_id);
        assert_eq!(back.sketch.content_snapshot, rec.sketch.content_snapshot);
    }

    #[test]
    fn framed_payload_rejects_trailing_bytes() {
        let rec = TableRecord::from_sketch(sample_sketch(), 5);
        let mut body = Vec::new();
        write_u64(&mut body, rec.content_hash).unwrap();
        write_table_sketch(&mut body, &rec.sketch).unwrap();
        write_u8(&mut body, 0).unwrap();
        write_embedding_matrix(&mut body, &[], 0).unwrap();
        body.extend_from_slice(b"junk");
        let mut buf = Vec::new();
        write_frame(&mut buf, SEGMENT_MAGIC, &body).unwrap();
        let err = read_record(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn embedding_matrix_roundtrip_and_shape_check() {
        let rows = vec![vec![1.0f32, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let mut buf = Vec::new();
        write_embedding_matrix(&mut buf, &rows, 2).unwrap();
        assert_eq!(read_embedding_matrix(&mut buf.as_slice()).unwrap(), rows);
        // Ragged rows rejected at write time.
        let ragged = vec![vec![1.0f32], vec![2.0, 3.0]];
        assert!(write_embedding_matrix(&mut Vec::new(), &ragged, 1).is_err());
    }

    /// The `TSFMHNS1` encoding as `write_hnsw` produced it while it went
    /// through [`Hnsw::snapshot`] — the reference the borrowing writer
    /// must match byte for byte.
    fn write_hnsw_from_snapshot(s: &HnswSnapshot) -> Vec<u8> {
        let mut body = Vec::new();
        write_u32(&mut body, s.dim as u32).unwrap();
        write_u8(&mut body, s.metric.tag()).unwrap();
        write_u32(&mut body, s.cfg.m as u32).unwrap();
        write_u32(&mut body, s.cfg.ef_construction as u32).unwrap();
        write_u32(&mut body, s.cfg.ef_search as u32).unwrap();
        write_u64(&mut body, s.cfg.seed).unwrap();
        write_u64(&mut body, s.rng_state).unwrap();
        write_u64(&mut body, s.max_level as u64).unwrap();
        match s.entry {
            Some(e) => {
                write_u8(&mut body, 1).unwrap();
                write_u64(&mut body, e as u64).unwrap();
            }
            None => write_u8(&mut body, 0).unwrap(),
        }
        write_f32s(&mut body, &s.data).unwrap();
        write_u32(&mut body, s.neighbors.len() as u32).unwrap();
        for layers in &s.neighbors {
            write_u32(&mut body, layers.len() as u32).unwrap();
            for layer in layers {
                write_u32(&mut body, layer.len() as u32).unwrap();
                for &n in layer {
                    write_u64(&mut body, n as u64).unwrap();
                }
            }
        }
        let mut out = Vec::new();
        write_frame(&mut out, HNSW_MAGIC, &body).unwrap();
        out
    }

    #[test]
    fn hnsw_roundtrip_preserves_search() {
        use tsfm_search::Metric;
        let mut h = Hnsw::new(4, Metric::Cosine, HnswConfig::default());
        let mut empty = Vec::new();
        write_hnsw(&mut empty, &h).unwrap();
        assert_eq!(empty, write_hnsw_from_snapshot(&h.snapshot()), "empty graph bytes");
        for i in 0..50u32 {
            let v: Vec<f32> = (0..4).map(|j| ((i * 7 + j) % 13) as f32 - 6.0).collect();
            h.add(&v);
        }
        let mut buf = Vec::new();
        write_hnsw(&mut buf, &h).unwrap();
        assert_eq!(buf, write_hnsw_from_snapshot(&h.snapshot()), "bytes changed");
        let back = read_hnsw(&mut buf.as_slice()).unwrap();
        assert_eq!(h.snapshot(), back.snapshot());
        assert_eq!(h.search(&[1.0, 2.0, 3.0, 4.0], 5), back.search(&[1.0, 2.0, 3.0, 4.0], 5));
        // Truncations error out.
        for cut in [0, 7, 12, 20, buf.len() - 1] {
            assert!(read_hnsw(&mut buf[..cut].to_vec().as_slice()).is_err(), "cut {cut}");
        }
    }
}
