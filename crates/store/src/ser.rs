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
//!
//! ## One decoder, over borrowed bytes
//!
//! Every reader decodes from a `&mut &[u8]` cursor over bytes already in
//! memory — a whole file read once by
//! [`crate::durable::read_file_checked`], or one arena slot read by
//! [`crate::durable::read_at_checked`]. A v2 frame's CRC is checked over
//! its payload where it lies, and the payload is then parsed in place as a
//! borrowed sub-slice: no frame body, nested or not, is copied into a
//! buffer of its own. Every count is checked against the bytes left in its
//! frame before anything is allocated for it, and vectors, neighbour
//! lists and signatures decode in bulk.
//!
//! Writers work the same way round: a frame is written in place — the
//! 24-byte header with its length and CRC zeroed, the payload encoded
//! behind it, then both patched in — so a nested frame never passes
//! through a buffer of its own either. Nor is it checksummed twice: an
//! outer frame written through [`Payload::nested`] joins each nested
//! frame's payload CRC onto its own with
//! [`crate::durable::crc32c_combine`], reading only the nested header.

use crate::durable::{crc32c, crc32c_combine};
use crate::error::{StoreError, StoreResult, FRAME};
use crate::record::TableRecord;
use tsfm_search::{Hnsw, HnswConfig, HnswLoader, Metric};
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

/// Bytes of a v2 frame header: magic, version, payload length, CRC32C.
pub(crate) const FRAME_HEADER_LEN: usize = 24;

const MAX_STR: usize = 1 << 20;
const MAX_SIG: usize = 1 << 16;
const MAX_COLS: usize = 1 << 20;
const MAX_ELEMS: usize = 1 << 28;
/// The fewest bytes one column sketch encodes to: an empty name, its type
/// tag, an empty signature, the word-minhash flag and the numeric sketch.
const MIN_COLUMN_BYTES: usize = 4 + 1 + 4 + 1 + NUMERIC_BYTES;
/// A numeric sketch: 16 `f64`s.
const NUMERIC_BYTES: usize = 16 * 8;

/// Frame-level corruption, attributed to a concrete container format by
/// the caller via [`StoreError::into_format`].
pub(crate) fn bad(msg: impl Into<String>) -> StoreError {
    StoreError::corrupt(FRAME, msg)
}

// ---- writing ---------------------------------------------------------------

pub(crate) fn write_u8(w: &mut Vec<u8>, v: u8) -> StoreResult<()> {
    w.push(v);
    Ok(())
}

pub(crate) fn write_u32(w: &mut Vec<u8>, v: u32) -> StoreResult<()> {
    w.extend_from_slice(&v.to_le_bytes());
    Ok(())
}

pub(crate) fn write_u64(w: &mut Vec<u8>, v: u64) -> StoreResult<()> {
    w.extend_from_slice(&v.to_le_bytes());
    Ok(())
}

pub(crate) fn write_f64(w: &mut Vec<u8>, v: f64) -> StoreResult<()> {
    w.extend_from_slice(&v.to_le_bytes());
    Ok(())
}

pub(crate) fn write_str(w: &mut Vec<u8>, s: &str) -> StoreResult<()> {
    write_u32(w, s.len() as u32)?;
    w.extend_from_slice(s.as_bytes());
    Ok(())
}

pub(crate) fn write_f32s(w: &mut Vec<u8>, vs: &[f32]) -> StoreResult<()> {
    write_u64(w, vs.len() as u64)?;
    put_f32s(w, vs);
    Ok(())
}

fn put_f32s(w: &mut Vec<u8>, vs: &[f32]) {
    w.reserve(vs.len() * 4);
    for &v in vs {
        w.extend_from_slice(&v.to_le_bytes());
    }
}

/// Append a v2 frame to `w`, written in place: the header with its length
/// and CRC zeroed, `body` encoding the payload behind it, then the two
/// patched in. A failed `body` leaves `w` as it was.
pub(crate) fn write_framed(
    w: &mut Vec<u8>,
    magic: &[u8; 8],
    body: impl FnOnce(&mut Vec<u8>) -> StoreResult<()>,
) -> StoreResult<()> {
    write_framed_nesting(w, magic, |p| body(p.buf))
}

/// [`write_framed`] for a payload that nests whole frames: `body` writes
/// plain bytes through [`Payload::buf`] and each nested frame through
/// [`Payload::nested`], whose CRC is folded in from its header instead of
/// being read a second time. The bytes are the same either way.
pub(crate) fn write_framed_nesting(
    w: &mut Vec<u8>,
    magic: &[u8; 8],
    body: impl FnOnce(&mut Payload<'_>) -> StoreResult<()>,
) -> StoreResult<()> {
    let start = w.len();
    w.extend_from_slice(magic);
    w.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    w.extend_from_slice(&[0; 12]);
    let payload = start + FRAME_HEADER_LEN;
    let mut p = Payload { buf: w, crc: 0, done: payload };
    if let Err(e) = body(&mut p) {
        w.truncate(start);
        return Err(e);
    }
    p.fold(p.buf.len());
    let crc = p.crc;
    let len = (w.len() - payload) as u64;
    w[start + 12..start + 20].copy_from_slice(&len.to_le_bytes());
    w[start + 20..payload].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// A frame's payload while [`write_framed_nesting`] writes it: the buffer
/// and the CRC32C of the payload bytes before `done`.
pub(crate) struct Payload<'a> {
    buf: &'a mut Vec<u8>,
    crc: u32,
    done: usize,
}

impl Payload<'_> {
    /// The buffer, for plain payload bytes; they are checksummed when the
    /// next nested frame starts or the frame closes.
    pub(crate) fn buf(&mut self) -> &mut Vec<u8> {
        self.buf
    }

    /// Append the one whole v2 frame `frame` writes. Only its 24-byte
    /// header is read again: the CRC of its payload is the one in that
    /// header, joined on with [`crc32c_combine`].
    pub(crate) fn nested(
        &mut self,
        frame: impl FnOnce(&mut Vec<u8>) -> StoreResult<()>,
    ) -> StoreResult<()> {
        let at = self.buf.len();
        frame(self.buf)?;
        let body = at + FRAME_HEADER_LEN;
        self.fold(body);
        let len = u64_at(&self.buf[at + 12..at + 20]);
        let crc = u32::from_le_bytes([
            self.buf[at + 20],
            self.buf[at + 21],
            self.buf[at + 22],
            self.buf[at + 23],
        ]);
        debug_assert_eq!(body as u64 + len, self.buf.len() as u64, "one whole frame");
        self.crc = crc32c_combine(self.crc, crc, len);
        self.done = self.buf.len();
        Ok(())
    }

    /// Checksum the plain bytes from `done` to `end`.
    fn fold(&mut self, end: usize) {
        let bytes = &self.buf[self.done..end];
        self.crc = crc32c_combine(self.crc, crc32c(bytes), bytes.len() as u64);
        self.done = end;
    }
}

/// Write a v2 frame around an already-encoded payload.
#[cfg(test)]
pub(crate) fn write_frame(w: &mut Vec<u8>, magic: &[u8; 8], body: &[u8]) -> StoreResult<()> {
    write_framed(w, magic, |w| {
        w.extend_from_slice(body);
        Ok(())
    })
}

// ---- reading ---------------------------------------------------------------

/// Split the next `n` bytes off the cursor. Short input is truncation: it
/// consumes what is left, so the error's offset is the end of the input.
fn take<'a>(s: &mut &'a [u8], n: usize) -> StoreResult<&'a [u8]> {
    if n > s.len() {
        *s = &s[s.len()..];
        return Err(bad("truncated input"));
    }
    let (head, rest) = s.split_at(n);
    *s = rest;
    Ok(head)
}

/// Split off `count` elements of `width` bytes each. A count whose bytes
/// exceed what is left is rejected before anything is allocated for it.
fn take_elems<'a>(s: &mut &'a [u8], count: u64, width: usize, what: &str) -> StoreResult<&'a [u8]> {
    let bytes = usize::try_from(count).ok().and_then(|c| c.checked_mul(width));
    match bytes.filter(|&b| b <= s.len()) {
        Some(b) => take(s, b),
        None => Err(bad(format!("{what} of {count} elements overruns the {} bytes left", s.len()))),
    }
}

fn array<const N: usize>(s: &mut &[u8]) -> StoreResult<[u8; N]> {
    let mut a = [0u8; N];
    a.copy_from_slice(take(s, N)?);
    Ok(a)
}

fn u64_at(c: &[u8]) -> u64 {
    u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])
}

fn f32s_from(bytes: &[u8]) -> Vec<f32> {
    bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
}

pub(crate) fn read_u8(s: &mut &[u8]) -> StoreResult<u8> {
    Ok(take(s, 1)?[0])
}

pub(crate) fn read_u32(s: &mut &[u8]) -> StoreResult<u32> {
    Ok(u32::from_le_bytes(array(s)?))
}

pub(crate) fn read_u64(s: &mut &[u8]) -> StoreResult<u64> {
    Ok(u64::from_le_bytes(array(s)?))
}

pub(crate) fn read_str(s: &mut &[u8]) -> StoreResult<String> {
    let len = read_u32(s)? as usize;
    if len > MAX_STR {
        return Err(bad(format!("unreasonable string length {len}")));
    }
    std::str::from_utf8(take(s, len)?).map(str::to_owned).map_err(|_| bad("string not utf-8"))
}

pub(crate) fn read_f32s(s: &mut &[u8]) -> StoreResult<Vec<f32>> {
    let len = read_u64(s)?;
    if len > MAX_ELEMS as u64 {
        return Err(bad(format!("unreasonable vector length {len}")));
    }
    Ok(f32s_from(take_elems(s, len, 4, "vector")?))
}

// ---- checksummed frames ---------------------------------------------------

/// A decoded frame header: either a v1 stream (the payload follows,
/// unframed — keep reading from the same cursor) or a verified v2
/// payload, borrowed in place.
pub(crate) enum Frame<'a> {
    Legacy,
    Payload(&'a [u8]),
}

/// Consume a frame's magic and version, and for v2 its length and CRC
/// words (returned; `None` for v1).
fn frame_header(s: &mut &[u8], magic: &[u8; 8], what: &str) -> StoreResult<Option<(u64, u32)>> {
    if take(s, 8)? != magic {
        return Err(bad(format!("not a {what} (bad magic)")));
    }
    match read_u32(s)? {
        LEGACY_VERSION => Ok(None),
        FORMAT_VERSION => Ok(Some((read_u64(s)?, read_u32(s)?))),
        v => Err(bad(format!("unsupported {what} version {v}"))),
    }
}

/// Read one frame of the given container type off the cursor. A v2
/// payload is length-checked against the bytes left and CRC-verified
/// before a byte of it is interpreted, then handed back borrowed; the
/// cursor moves past it either way. Errors are frame-level ([`bad`]) —
/// the container reader attributes them via [`StoreError::into_format`].
pub(crate) fn read_frame<'a>(
    s: &mut &'a [u8],
    magic: &[u8; 8],
    what: &str,
) -> StoreResult<Frame<'a>> {
    let Some((len, crc)) = frame_header(s, magic, what)? else {
        return Ok(Frame::Legacy);
    };
    let found = s.len();
    let Some(body) = usize::try_from(len).ok().filter(|&l| l <= found) else {
        *s = &s[found..];
        return Err(bad(format!(
            "truncated {what}: frame claims {len} payload bytes, found {found}"
        )));
    };
    let body = take(s, body)?;
    let actual = crc32c(body);
    if actual != crc {
        return Err(bad(format!(
            "{what} checksum mismatch: stored {crc:#010x}, computed {actual:#010x} \
             over {len} bytes"
        )));
    }
    Ok(Frame::Payload(body))
}

/// Consume only a frame's header (magic, version, and for v2 the length
/// and CRC words), leaving the cursor at the first payload byte,
/// **without** verifying the checksum; returns the version. For cheap
/// peeks like the index cache fingerprint in `stats` — anything that acts
/// on the payload must go through [`read_frame`].
pub(crate) fn read_frame_header(s: &mut &[u8], magic: &[u8; 8], what: &str) -> StoreResult<u32> {
    Ok(match frame_header(s, magic, what)? {
        None => LEGACY_VERSION,
        Some(_) => FORMAT_VERSION,
    })
}

/// Parse a verified v2 payload in place, rejecting trailing bytes (a v2
/// frame states its exact length, so leftovers mean the payload and
/// header disagree).
pub(crate) fn parse_framed<'a, T>(
    body: &'a [u8],
    parse: impl FnOnce(&mut &'a [u8]) -> StoreResult<T>,
) -> StoreResult<T> {
    let mut s = body;
    let v = parse(&mut s)?;
    if !s.is_empty() {
        return Err(bad(format!("{} trailing bytes after payload", s.len())));
    }
    Ok(v)
}

/// Read one container whose v1 and v2 payloads share a layout: `body`
/// parses the v2 payload in place or the v1 stream off the cursor, and
/// errors are attributed to `format`.
fn read_container<'a, T>(
    s: &mut &'a [u8],
    magic: &[u8; 8],
    what: &str,
    format: &str,
    body: impl FnOnce(&mut &'a [u8]) -> StoreResult<T>,
) -> StoreResult<T> {
    let res = match read_frame(s, magic, what) {
        Ok(Frame::Legacy) => body(s),
        Ok(Frame::Payload(payload)) => parse_framed(payload, body),
        Err(e) => Err(e),
    };
    res.map_err(|e| e.into_format(format))
}

// ---- sketches -------------------------------------------------------------

pub fn write_minhash(w: &mut Vec<u8>, mh: &MinHash) -> StoreResult<()> {
    write_u32(w, mh.k() as u32)?;
    w.reserve(mh.sig.len() * 8);
    for &s in &mh.sig {
        w.extend_from_slice(&s.to_le_bytes());
    }
    Ok(())
}

pub fn read_minhash(s: &mut &[u8]) -> StoreResult<MinHash> {
    let k = read_u32(s)? as usize;
    if k > MAX_SIG {
        return Err(bad(format!("unreasonable signature width {k}")));
    }
    let sig = take_elems(s, k as u64, 8, "signature")?.chunks_exact(8).map(u64_at).collect();
    Ok(MinHash { sig })
}

pub fn write_numeric(w: &mut Vec<u8>, s: &NumericalSketch) -> StoreResult<()> {
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

pub fn read_numeric(s: &mut &[u8]) -> StoreResult<NumericalSketch> {
    // unique_frac, nan_frac, cell_width, 9 percentiles, mean, std, min, max.
    let mut v = [0f64; NUMERIC_BYTES / 8];
    for (x, c) in v.iter_mut().zip(take(s, NUMERIC_BYTES)?.chunks_exact(8)) {
        *x = f64::from_bits(u64_at(c));
    }
    let mut percentiles = [0.0; 9];
    percentiles.copy_from_slice(&v[3..12]);
    Ok(NumericalSketch {
        unique_frac: v[0],
        nan_frac: v[1],
        cell_width: v[2],
        percentiles,
        mean: v[12],
        std: v[13],
        min: v[14],
        max: v[15],
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

fn write_column_sketch(w: &mut Vec<u8>, c: &ColumnSketch) -> StoreResult<()> {
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

fn read_column_sketch(s: &mut &[u8]) -> StoreResult<ColumnSketch> {
    let name = read_str(s)?;
    let ty = coltype_from_tag(read_u8(s)?)?;
    let cell_minhash = read_minhash(s)?;
    let word_minhash = match read_u8(s)? {
        0 => None,
        1 => Some(read_minhash(s)?),
        t => return Err(bad(format!("bad word-minhash flag {t}"))),
    };
    Ok(ColumnSketch { name, ty, cell_minhash, word_minhash, numeric: read_numeric(s)? })
}

pub fn write_table_sketch(w: &mut Vec<u8>, s: &TableSketch) -> StoreResult<()> {
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

pub fn read_table_sketch(s: &mut &[u8]) -> StoreResult<TableSketch> {
    let table_id = read_str(s)?;
    let table_name = read_str(s)?;
    let description = read_str(s)?;
    let num_rows = read_u64(s)? as usize;
    let content_snapshot = read_minhash(s)?;
    let ncols = read_u32(s)? as usize;
    if ncols > MAX_COLS {
        return Err(bad(format!("unreasonable column count {ncols}")));
    }
    if ncols * MIN_COLUMN_BYTES > s.len() {
        return Err(bad(format!("{ncols} columns overrun the {} bytes left", s.len())));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(read_column_sketch(s)?);
    }
    Ok(TableSketch { table_id, table_name, description, content_snapshot, columns, num_rows })
}

// ---- embedding matrices ---------------------------------------------------

/// Write a dense `rows.len() × dim` matrix as a v2 frame. Every row must
/// have `dim` elements.
pub fn write_embedding_matrix(w: &mut Vec<u8>, rows: &[Vec<f32>], dim: usize) -> StoreResult<()> {
    if let Some(row) = rows.iter().find(|r| r.len() != dim) {
        return Err(bad(format!("embedding row of {} elements, expected {dim}", row.len())));
    }
    write_framed(w, EMBEDDING_MAGIC, |w| {
        write_u32(w, rows.len() as u32)?;
        write_u32(w, dim as u32)?;
        for row in rows {
            put_f32s(w, row);
        }
        Ok(())
    })
}

pub fn read_embedding_matrix(s: &mut &[u8]) -> StoreResult<Vec<Vec<f32>>> {
    let what = "TSFM embedding matrix";
    read_container(s, EMBEDDING_MAGIC, what, "TSFMEMB1", read_embedding_matrix_body)
}

fn read_embedding_matrix_body(s: &mut &[u8]) -> StoreResult<Vec<Vec<f32>>> {
    let nrows = read_u32(s)? as usize;
    let dim = read_u32(s)? as usize;
    if nrows.saturating_mul(dim) > MAX_ELEMS {
        return Err(bad(format!("unreasonable embedding matrix {nrows}×{dim}")));
    }
    if dim == 0 {
        // Rows without bytes: bounded by the column limit instead.
        if nrows > MAX_COLS {
            return Err(bad(format!("unreasonable embedding matrix {nrows}×0")));
        }
        return Ok(vec![Vec::new(); nrows]);
    }
    let bytes = take_elems(s, (nrows * dim) as u64, 4, "embedding matrix")?;
    Ok(bytes.chunks_exact(dim * 4).map(f32s_from).collect())
}

// ---- table records (segment payload) -------------------------------------

pub fn write_record(w: &mut Vec<u8>, rec: &TableRecord) -> StoreResult<()> {
    write_framed(w, SEGMENT_MAGIC, |w| {
        write_u64(w, rec.content_hash)?;
        write_table_sketch(w, &rec.sketch)?;
        match &rec.table_embedding {
            Some(e) => {
                write_u8(w, 1)?;
                write_f32s(w, e)?;
            }
            None => write_u8(w, 0)?,
        }
        // Column embeddings: an embedded TSFMEMB1 frame (0 rows = none) —
        // its own CRC is redundant under the segment's but keeps the
        // matrix readable as a standalone container.
        let dim = rec.column_embeddings.first().map_or(0, Vec::len);
        write_embedding_matrix(w, &rec.column_embeddings, dim)
    })
}

pub fn read_record(s: &mut &[u8]) -> StoreResult<TableRecord> {
    read_container(s, SEGMENT_MAGIC, "TSFM segment", "TSFMSEG1", read_record_body)
}

fn read_record_body(s: &mut &[u8]) -> StoreResult<TableRecord> {
    let content_hash = read_u64(s)?;
    let sketch = read_table_sketch(s)?;
    let table_embedding = match read_u8(s)? {
        0 => None,
        1 => Some(read_f32s(s)?),
        t => return Err(bad(format!("bad table-embedding flag {t}"))),
    };
    let column_embeddings = read_embedding_matrix(s)?;
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
pub fn write_hnsw(w: &mut Vec<u8>, index: &Hnsw) -> StoreResult<()> {
    let cfg = index.config();
    write_framed(w, HNSW_MAGIC, |w| {
        write_u32(w, index.dim() as u32)?;
        write_u8(w, index.metric().tag())?;
        write_u32(w, cfg.m as u32)?;
        write_u32(w, cfg.ef_construction as u32)?;
        write_u32(w, cfg.ef_search as u32)?;
        write_u64(w, cfg.seed)?;
        write_u64(w, index.rng_state())?;
        write_u64(w, index.max_level() as u64)?;
        match index.entry() {
            Some(e) => {
                write_u8(w, 1)?;
                write_u64(w, e as u64)?;
            }
            None => write_u8(w, 0)?,
        }
        write_f32s(w, index.vectors())?;
        write_u32(w, index.len() as u32)?;
        for layers in index.layers() {
            write_u32(w, layers.len() as u32)?;
            for layer in layers {
                write_u32(w, layer.len() as u32)?;
                w.reserve(layer.len() * 8);
                for &n in layer {
                    w.extend_from_slice(&u64::from(n).to_le_bytes());
                }
            }
        }
        Ok(())
    })
}

/// The bytes [`write_hnsw`] appends for `index`, its frame header
/// included, so a writer can size its buffer once.
pub(crate) fn hnsw_frame_len(index: &Hnsw) -> usize {
    let head = 4 + 1 + 4 + 4 + 4 + 8 + 8 + 8 + if index.entry().is_some() { 9 } else { 1 };
    let links: usize = index
        .layers()
        .map(|layers| 4 + layers.map(|layer| 4 + 8 * layer.len()).sum::<usize>())
        .sum();
    FRAME_HEADER_LEN + head + 8 + 4 * index.vectors().len() + 4 + links
}

pub fn read_hnsw(s: &mut &[u8]) -> StoreResult<Hnsw> {
    read_container(s, HNSW_MAGIC, "TSFM HNSW graph", "TSFMHNS1", read_hnsw_body)
}

fn read_hnsw_body(s: &mut &[u8]) -> StoreResult<Hnsw> {
    let dim = read_u32(s)? as usize;
    let metric = Metric::from_tag(read_u8(s)?)
        .ok_or_else(|| bad("unknown distance metric tag"))?;
    let cfg = HnswConfig {
        m: read_u32(s)? as usize,
        ef_construction: read_u32(s)? as usize,
        ef_search: read_u32(s)? as usize,
        seed: read_u64(s)?,
    };
    let rng_state = read_u64(s)?;
    let max_level = read_u64(s)? as usize;
    let entry = match read_u8(s)? {
        0 => None,
        1 => Some(read_u64(s)? as usize),
        t => return Err(bad(format!("bad entry flag {t}"))),
    };
    let data = read_f32s(s)?;
    let n = read_u32(s)? as usize;
    // `data` holds real file content, so bounding counts by it keeps a
    // garbled header from over-allocating before validation catches it.
    if dim == 0 || n != data.len() / dim {
        return Err(bad(format!("node count {n} does not match vector buffer")));
    }
    // Every node has a layer count and a layer-0 length, so the bytes
    // left bound the rows the loader sizes up front (`8·m` per node).
    if (s.len() as u64) < 8 * n as u64 {
        return Err(bad(format!("{n} nodes' lists overrun the {} bytes left", s.len())));
    }
    // Straight into the flat rows; the loader rejects an `m` above its
    // cap before sizing them, and a list longer than its layer's `m_max`.
    let mut graph = HnswLoader::new(cfg, dim, metric, data).map_err(bad)?;
    for _ in 0..n {
        let layers = read_u32(s)? as usize;
        graph.node(layers).map_err(bad)?;
        for _ in 0..layers {
            let len = read_u32(s)?;
            let ids = take_elems(s, u64::from(len), 8, "neighbour list")?;
            graph.list(ids.chunks_exact(8).map(u64_at)).map_err(bad)?;
        }
    }
    graph.finish(entry, max_level, rng_state).map_err(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsfm_search::HnswSnapshot;
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
