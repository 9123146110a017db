//! The shard layer: hash-partitioned manifests and flat sketch arenas.
//!
//! A compacted catalog keeps the bulk of its tables out of the root
//! manifest, partitioned into `shards/` by the top bits of each table
//! id's hash (stable under content updates, so a table never migrates
//! shards on re-ingest). Each shard is a pair of files sharing a
//! generation-stamped name:
//!
//! ```text
//! <dir>/shards/s042-0000000b.shard   TSFMSHD1: per-table metadata, sorted by id
//! <dir>/shards/s042-0000000b.arena   TSFMARN1: offset table + raw TSFMSEG1 payloads
//! ```
//!
//! The shard manifest is an ordinary CRC'd v2 frame (the [`crate::ser`]
//! machinery) listing `(id, content_hash, num_rows, num_cols)` per slot.
//! The arena is *not* a whole-file frame — the point is never reading all
//! of it — but a fixed-width layout made for positioned reads:
//!
//! ```text
//! magic(8) · version (u32) · shard_index (u32) · generation (u64) ·
//! count (u64) · index_crc (u32) ·                 ← 36-byte header
//! count × (offset u64 · len u64 · crc u32) ·      ← offset table, CRC'd as a unit
//! concatenated TSFMSEG1 frame bytes               ← payloads, CRC'd per slot
//! ```
//!
//! `index_crc` (CRC32C over the raw offset-table bytes) makes a flipped
//! bit in the table itself detectable before any offset is trusted;
//! each payload's own CRC is then verified by
//! [`crate::durable::read_at_checked`] on every positioned read, so a
//! lazy sketch load can never return silently corrupt bytes. Slot `i` of
//! the arena belongs to entry `i` of the shard manifest, and
//! [`ArenaIndex::check_entry`] is the one check that it holds that
//! entry's record (table id and content hash): `Catalog::get`,
//! `Catalog::load_all_records`, the lazy [`LazyCorpus::sketch_of`] and
//! `fsck` all read slots through it.
//!
//! A loose commit writes its records into an arena of the same layout,
//! a *run* under `segments/`, named by the root manifest's loose entries
//! rather than by a shard manifest ([`ArenaIndex::open_run`]).
//!
//! Both shard files are written whole through [`crate::durable::commit_file`]
//! under a *new* generation number; the root manifest flips to the new
//! generation in one atomic commit and only then are old-generation
//! files unlinked — readers holding the old files' descriptors (a
//! [`LazyCorpus`] snapshot taken before a compaction) keep reading them
//! untouched.

use crate::{catalog, durable};
use crate::error::{StoreError, StoreResult};
use crate::record::TableRecord;
use crate::ser::{self, ARENA_MAGIC, SHARD_MAGIC};
use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use tsfm_obs::sync::lock_unpoisoned;
use tsfm_sketch::TableSketch;
use tsfm_table::hash::hash_str;

/// Subdirectory of the catalog holding shard manifest + arena pairs.
pub const SHARD_DIR: &str = "shards";

/// Compaction aims for this many tables per shard; the shard count is
/// the next power of two that gets under it, capped at [`MAX_SHARDS`].
pub(crate) const SHARD_TARGET_TABLES: u64 = 4096;

/// Upper bound on the shard space (the root manifest stays O(shards)
/// tiny, and 256 shards × [`SHARD_TARGET_TABLES`] covers ~1M tables).
pub(crate) const MAX_SHARDS: u64 = 256;

/// Default capacity of a lazy snapshot's LRU sketch cache.
pub(crate) const SKETCH_CACHE_CAP: usize = 4096;

const ARENA_HEADER_LEN: u64 = 36;
const ARENA_SLOT_LEN: u64 = 20;

/// The most bytes one read of [`ArenaIndex::read_records`] covers: whole
/// slots, a larger slot alone. Small enough that the buffer never shows
/// beside the records it decodes.
const READ_WINDOW: u64 = 256 << 10;

/// Shard count for a catalog of `tables` active tables.
pub(crate) fn shard_count_for(tables: u64) -> u32 {
    tables
        .div_ceil(SHARD_TARGET_TABLES)
        .max(1)
        .next_power_of_two()
        .min(MAX_SHARDS) as u32
}

/// Which shard of a `shard_count`-wide space (a power of two) owns `id`.
/// Top bits of the id hash, so the assignment is stable when the shard
/// space is unchanged and refines evenly when it doubles.
pub(crate) fn shard_of(id: &str, shard_count: u32) -> u32 {
    debug_assert!(shard_count.is_power_of_two());
    if shard_count <= 1 {
        return 0;
    }
    (hash_str(id) >> (64 - shard_count.trailing_zeros())) as u32
}

pub(crate) fn shard_file_name(index: u32, generation: u64) -> String {
    format!("s{index:03}-{generation:08x}.shard")
}

pub(crate) fn arena_file_name(index: u32, generation: u64) -> String {
    format!("s{index:03}-{generation:08x}.arena")
}

/// Root-manifest metadata for one shard: everything `Catalog::open`
/// needs without touching the shard's own files, plus the aggregates
/// that keep `stats` O(shards).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    pub index: u32,
    pub generation: u64,
    pub entry_count: u64,
    pub total_rows: u64,
    pub total_cols: u64,
    /// Exact size of the arena file, validated against the filesystem
    /// before any offset in it is trusted.
    pub arena_bytes: u64,
}

impl ShardMeta {
    pub fn shard_file(&self) -> String {
        shard_file_name(self.index, self.generation)
    }

    pub fn arena_file(&self) -> String {
        arena_file_name(self.index, self.generation)
    }
}

/// One table's metadata inside a shard manifest. Slot `i` of the shard's
/// arena holds the corresponding `TSFMSEG1` payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    pub id: String,
    pub content_hash: u64,
    pub num_rows: u64,
    pub num_cols: u32,
}

/// A decoded `TSFMSHD1` shard manifest: entries sorted by id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    pub index: u32,
    /// The shard-space width this shard was written under (sanity-checked
    /// against the root manifest).
    pub shard_count: u32,
    pub generation: u64,
    pub entries: Vec<ShardEntry>,
}

impl ShardManifest {
    /// Binary-search a table id (entries are sorted and unique).
    pub fn find(&self, id: &str) -> Option<usize> {
        self.entries.binary_search_by(|e| e.id.as_str().cmp(id)).ok()
    }
}

/// Serialize and durably commit a shard manifest.
pub(crate) fn write_shard_manifest(path: &Path, m: &ShardManifest) -> StoreResult<()> {
    let mut file = Vec::new();
    ser::write_framed(&mut file, SHARD_MAGIC, |w| {
        ser::write_u32(w, m.index)?;
        ser::write_u32(w, m.shard_count)?;
        ser::write_u64(w, m.generation)?;
        ser::write_u64(w, m.entries.len() as u64)?;
        for e in &m.entries {
            ser::write_str(w, &e.id)?;
            ser::write_u64(w, e.content_hash)?;
            ser::write_u64(w, e.num_rows)?;
            ser::write_u32(w, e.num_cols)?;
        }
        Ok(())
    })?;
    durable::commit_file(path, &file)
}

/// Read and verify a shard manifest file.
pub fn read_shard_manifest(path: &Path) -> StoreResult<ShardManifest> {
    durable::read_file_checked(path, |r| {
        let res = match ser::read_frame(r, SHARD_MAGIC, "TSFM shard manifest") {
            // The shard layer postdates checksummed frames; a v1 shard
            // cannot have been written by any release.
            Ok(ser::Frame::Legacy) => {
                Err(StoreError::corrupt(SHARD_MAGIC_STR, "v1 shard manifests do not exist"))
            }
            Ok(ser::Frame::Payload(body)) => ser::parse_framed(body, read_shard_manifest_body),
            Err(e) => Err(e),
        };
        res.map_err(|e| e.into_format(SHARD_MAGIC_STR))
    })
}

const SHARD_MAGIC_STR: &str = "TSFMSHD1";
const ARENA_MAGIC_STR: &str = "TSFMARN1";

fn read_shard_manifest_body(r: &mut &[u8]) -> StoreResult<ShardManifest> {
    let index = ser::read_u32(r)?;
    let shard_count = ser::read_u32(r)?;
    if shard_count == 0
        || u64::from(shard_count) > MAX_SHARDS
        || !shard_count.is_power_of_two()
        || index >= shard_count
    {
        return Err(StoreError::corrupt(
            SHARD_MAGIC_STR,
            format!("implausible shard geometry: index {index} of {shard_count}"),
        ));
    }
    let generation = ser::read_u64(r)?;
    let count = ser::read_u64(r)? as usize;
    if count > 1 << 24 {
        return Err(StoreError::corrupt(
            SHARD_MAGIC_STR,
            format!("unreasonable shard entry count {count}"),
        ));
    }
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let e = ShardEntry {
            id: ser::read_str(r)?,
            content_hash: ser::read_u64(r)?,
            num_rows: ser::read_u64(r)?,
            num_cols: ser::read_u32(r)?,
        };
        if let Some(prev) = entries.last() {
            let prev: &ShardEntry = prev;
            if prev.id >= e.id {
                return Err(StoreError::corrupt(
                    SHARD_MAGIC_STR,
                    format!("shard entries out of order at slot {i} ({:?} >= {:?})", prev.id, e.id),
                ));
            }
        }
        if shard_of(&e.id, shard_count) != index {
            return Err(StoreError::corrupt(
                SHARD_MAGIC_STR,
                format!("table {:?} does not hash into shard {index} of {shard_count}", e.id),
            ));
        }
        entries.push(e);
    }
    Ok(ShardManifest { index, shard_count, generation, entries })
}

/// One slot of an arena's offset table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaSlot {
    /// Absolute file offset of the payload.
    pub offset: u64,
    pub len: u64,
    /// CRC32C of the payload bytes, verified on every positioned read.
    pub crc: u32,
}

/// Build the full byte image of an arena file for `payloads` (each one a
/// complete `TSFMSEG1` frame), in slot order: written in place, the
/// offset-table checksum patched into the header once the table is.
pub(crate) fn build_arena(index: u32, generation: u64, payloads: &[impl AsRef<[u8]>]) -> Vec<u8> {
    let table_end = (ARENA_HEADER_LEN + ARENA_SLOT_LEN * payloads.len() as u64) as usize;
    let total = table_end + payloads.iter().map(|p| p.as_ref().len()).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(ARENA_MAGIC);
    out.extend_from_slice(&ser::FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&(payloads.len() as u64).to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    let mut data_offset = table_end as u64;
    for p in payloads.iter().map(AsRef::as_ref) {
        out.extend_from_slice(&data_offset.to_le_bytes());
        out.extend_from_slice(&(p.len() as u64).to_le_bytes());
        out.extend_from_slice(&durable::crc32c(p).to_le_bytes());
        data_offset += p.len() as u64;
    }
    let table_crc = durable::crc32c(&out[ARENA_HEADER_LEN as usize..]);
    out[ARENA_HEADER_LEN as usize - 4..ARENA_HEADER_LEN as usize]
        .copy_from_slice(&table_crc.to_le_bytes());
    for p in payloads {
        out.extend_from_slice(p.as_ref());
    }
    out
}

/// An open arena: the file handle plus its verified offset table. Opening
/// reads exactly the header and the offset table — payload bytes stay on
/// disk until a positioned read asks for them. The handle outlives
/// compaction: new generations are written to new names and the old file
/// is unlinked, so a snapshot holding an `ArenaIndex` keeps reading the
/// generation it captured.
#[derive(Debug)]
pub struct ArenaIndex {
    file: File,
    path: PathBuf,
    pub index: u32,
    pub generation: u64,
    pub slots: Vec<ArenaSlot>,
}

impl ArenaIndex {
    /// Open and verify a shard's arena against its root-manifest metadata.
    /// Header-field disagreement, a bad offset-table checksum, or any
    /// out-of-bounds slot is a typed [`StoreError::Corrupt`] naming the
    /// shard and offset.
    pub fn open(path: &Path, meta: &ShardMeta) -> StoreResult<Self> {
        Self::open_checked(path, Some(meta))
    }

    /// Open and verify a loose run under `segments/`: the same layout
    /// checks as [`ArenaIndex::open`], with the header held against the
    /// generation and sequence number the run's file name encodes — each
    /// manifest entry naming a slot checks the record it reads there.
    pub fn open_run(path: &Path) -> StoreResult<Self> {
        let run = Self::open_checked(path, None)?;
        let named = path.file_name().and_then(|n| catalog::run_name_parts(n.to_str()?));
        if named == Some((run.generation, run.index)) {
            return Ok(run);
        }
        let (index, generation) = (run.index, run.generation);
        let detail = format!("run header (seq {index}, generation {generation}) contradicts its name");
        Err(durable::note_corruption(StoreError::corrupt(ARENA_MAGIC_STR, detail).with_file(path, 12)))
    }

    fn open_checked(path: &Path, meta: Option<&ShardMeta>) -> StoreResult<Self> {
        use std::os::unix::fs::FileExt;
        let corrupt = |offset: u64, detail: String| {
            durable::note_corruption(
                StoreError::corrupt(ARENA_MAGIC_STR, detail).with_file(path, offset),
            )
        };
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if let Some(meta) = meta.filter(|m| m.arena_bytes != file_len) {
            return Err(corrupt(
                file_len.min(meta.arena_bytes),
                format!(
                    "arena of shard {} is {file_len} bytes, root manifest says {}",
                    meta.index, meta.arena_bytes
                ),
            ));
        }
        let mut header = [0u8; ARENA_HEADER_LEN as usize];
        file.read_exact_at(&mut header, 0)
            .map_err(|_| corrupt(0, "arena shorter than its header".into()))?;
        if &header[..8] != ARENA_MAGIC {
            return Err(corrupt(0, "not a TSFM arena (bad magic)".into()));
        }
        // The fixed-width fields after the magic, in layout order (the
        // cursor reads cannot fail: `header` is exactly ARENA_HEADER_LEN).
        let mut fields = &header[8..];
        let version = ser::read_u32(&mut fields)?;
        if version != ser::FORMAT_VERSION {
            return Err(corrupt(8, format!("unsupported arena version {version}")));
        }
        let index = ser::read_u32(&mut fields)?;
        let generation = ser::read_u64(&mut fields)?;
        let count = ser::read_u64(&mut fields)?;
        let index_crc = ser::read_u32(&mut fields)?;
        if let Some(meta) = meta.filter(|m| {
            index != m.index || generation != m.generation || count != m.entry_count
        }) {
            return Err(corrupt(
                12,
                format!(
                    "arena header (shard {index}, generation {generation}, {count} slots) \
                     does not match the root manifest (shard {}, generation {}, {} slots)",
                    meta.index, meta.generation, meta.entry_count
                ),
            ));
        }
        let table_len = ARENA_SLOT_LEN
            .checked_mul(count)
            .filter(|l| ARENA_HEADER_LEN + l <= file_len)
            .ok_or_else(|| {
                corrupt(24, format!("offset table of {count} slots exceeds the arena file"))
            })?;
        let mut table = vec![0u8; table_len as usize];
        file.read_exact_at(&mut table, ARENA_HEADER_LEN)
            .map_err(|_| corrupt(ARENA_HEADER_LEN, "arena truncated inside its offset table".into()))?;
        let actual = durable::crc32c(&table);
        if actual != index_crc {
            return Err(corrupt(
                ARENA_HEADER_LEN,
                format!(
                    "offset-table checksum mismatch in shard {index}: \
                     stored {index_crc:#010x}, computed {actual:#010x}"
                ),
            ));
        }
        let data_start = ARENA_HEADER_LEN + table_len;
        let mut slots = Vec::with_capacity(count as usize);
        let mut expect = data_start;
        for (i, mut raw) in table.chunks_exact(ARENA_SLOT_LEN as usize).enumerate() {
            let slot = ArenaSlot {
                offset: ser::read_u64(&mut raw)?,
                len: ser::read_u64(&mut raw)?,
                crc: ser::read_u32(&mut raw)?,
            };
            // Slots must tile the data region exactly: contiguous,
            // in-bounds, nothing overlapping and nothing unaccounted.
            if slot.offset != expect
                || !slot.offset.checked_add(slot.len).is_some_and(|e| e <= file_len)
            {
                return Err(corrupt(
                    ARENA_HEADER_LEN + ARENA_SLOT_LEN * i as u64,
                    format!(
                        "slot {i} of shard {index} ({} bytes at offset {}) breaks the arena layout",
                        slot.len, slot.offset
                    ),
                ));
            }
            expect += slot.len;
            slots.push(slot);
        }
        if expect != file_len {
            return Err(corrupt(
                expect,
                format!("arena of shard {index} has {} trailing bytes", file_len - expect),
            ));
        }
        Ok(Self { file, path: path.to_path_buf(), index, generation, slots })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Positioned, CRC-verified read of one slot's raw payload bytes.
    pub fn read_payload(&self, slot: usize) -> StoreResult<Vec<u8>> {
        let s = self.slots.get(slot).ok_or_else(|| {
            StoreError::corrupt(
                ARENA_MAGIC_STR,
                format!("slot {slot} out of range ({} slots)", self.slots.len()),
            )
        })?;
        durable::read_at_checked(&self.file, &self.path, s.offset, s.len, s.crc, ARENA_MAGIC_STR)
    }

    /// Read and decode one slot's [`TableRecord`].
    pub fn read_record(&self, slot: usize) -> StoreResult<TableRecord> {
        let offset = self.slots.get(slot).map_or(0, |s| s.offset);
        let bytes = self.read_payload(slot)?;
        self.decode(&bytes, offset)
    }

    /// Read slot `slot` and [check](ArenaIndex::check_entry) it against
    /// the entry that names it.
    pub(crate) fn read_entry(
        &self,
        slot: usize,
        id: &str,
        content_hash: u64,
    ) -> StoreResult<TableRecord> {
        self.check_entry(slot, id, content_hash, self.read_record(slot)?)
    }

    /// The one check that a slot holds the record its entry names — a
    /// shard manifest's entry `slot`, or a loose manifest entry pointing
    /// into a run: table id *and* content hash. A mismatch is a counted
    /// [`StoreError::Corrupt`] naming the file and the slot's offset.
    /// `Catalog::get`, `Catalog::load_all_records`, [`LazyCorpus::sketch_of`]
    /// and `fsck` all check slots through it.
    pub(crate) fn check_entry(
        &self,
        slot: usize,
        id: &str,
        content_hash: u64,
        rec: TableRecord,
    ) -> StoreResult<TableRecord> {
        if rec.table_id() == id && rec.content_hash == content_hash {
            return Ok(rec);
        }
        let name = self.path.file_name().unwrap_or_default().to_string_lossy();
        Err(durable::note_corruption(
            StoreError::corrupt(
                ARENA_MAGIC_STR,
                format!(
                    "slot {slot} of {name} holds table {:?} hash {:#x}, its entry names \
                     {id:?} hash {content_hash:#x}",
                    rec.table_id(),
                    rec.content_hash
                ),
            )
            .with_file(&self.path, self.slots.get(slot).map_or(0, |s| s.offset)),
        ))
    }

    /// Decode every slot `wanted` accepts, in slot order, handing `f` the
    /// slot number and its record: what [`ArenaIndex::read_record`] does
    /// slot by slot, but consecutive slots come in one positioned read per
    /// window of up to [`READ_WINDOW`] bytes, into one reused buffer. Each
    /// slot is CRC-verified before it is decoded.
    pub(crate) fn read_records(
        &self,
        wanted: impl Fn(usize) -> bool,
        mut f: impl FnMut(usize, TableRecord) -> StoreResult<()>,
    ) -> StoreResult<()> {
        let mut buf = Vec::new();
        let mut next = 0;
        while next < self.slots.len() {
            let start = self.slots[next].offset;
            let fits = |s: &&ArenaSlot| s.offset + s.len - start <= READ_WINDOW;
            let window = next..next + 1 + self.slots[next + 1..].iter().take_while(fits).count();
            next = window.end;
            if !window.clone().any(&wanted) {
                continue;
            }
            let last = self.slots[window.end - 1];
            buf.resize((last.offset + last.len - start) as usize, 0);
            durable::read_at(&self.file, &self.path, start, &mut buf, ARENA_MAGIC_STR)?;
            for i in window.filter(|&i| wanted(i)) {
                let ArenaSlot { offset, len, crc } = self.slots[i];
                let at = (offset - start) as usize;
                let payload = &buf[at..at + len as usize];
                durable::check_at(payload, &self.path, offset, crc, ARENA_MAGIC_STR)?;
                f(i, self.decode(payload, offset)?)?;
            }
        }
        Ok(())
    }

    /// Decode a verified slot payload read at `offset`.
    fn decode(&self, mut payload: &[u8], offset: u64) -> StoreResult<TableRecord> {
        ser::read_record(&mut payload)
            .map_err(|e| durable::note_corruption(e.with_file(&self.path, offset)))
    }
}

// ---- the lazy corpus -------------------------------------------------------

/// One shard as seen by a lazy snapshot: the open arena, the shard
/// manifest the catalog loaded (shared, not copied), and the slots active
/// at capture time, ascending (so ascending by id).
pub(crate) struct LazyShard {
    pub arena: Arc<ArenaIndex>,
    pub manifest: Arc<ShardManifest>,
    pub live: Vec<u32>,
}

/// The lazy snapshot corpus: sketch payloads stay in their arenas and
/// are loaded by positioned read on first use, with an LRU-bounded cache
/// in front ([`SKETCH_CACHE_CAP`]). Loose (not-yet-compacted) tables are
/// held eagerly — they are the recent-churn minority. Holding the arena
/// `File` handles means a compaction (which writes new generations and
/// unlinks the old files) never invalidates a live snapshot.
pub struct LazyCorpus {
    shard_count: u32,
    shards: Vec<Option<LazyShard>>,
    /// Eager sketches of loose tables, ascending by table id.
    loose: Vec<Arc<TableSketch>>,
    cache: Mutex<SketchCache>,
    len: usize,
}

impl LazyCorpus {
    pub(crate) fn new(
        shard_count: u32,
        shards: Vec<Option<LazyShard>>,
        loose: Vec<Arc<TableSketch>>,
        cache_cap: usize,
    ) -> Self {
        debug_assert!(loose.windows(2).all(|w| w[0].table_id < w[1].table_id));
        let len = loose.len()
            + shards.iter().flatten().map(|s| s.live.len()).sum::<usize>();
        Self {
            shard_count,
            shards,
            loose,
            cache: Mutex::new(SketchCache::new(cache_cap)),
            len,
        }
    }

    /// Number of tables in the snapshot.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sketch of `id`, or `None` if the snapshot has no such table.
    /// Loose tables answer from memory; shard-resident tables from the
    /// cache or a positioned arena read, checked against the slot's
    /// manifest entry by [`ArenaIndex::read_entry`] (id and content hash).
    pub fn sketch_of(&self, id: &str) -> StoreResult<Option<Arc<TableSketch>>> {
        if let Ok(i) = self.loose.binary_search_by(|s| s.table_id.as_str().cmp(id)) {
            return Ok(Some(Arc::clone(&self.loose[i])));
        }
        if self.shard_count == 0 {
            return Ok(None);
        }
        let Some(shard) = &self.shards[shard_of(id, self.shard_count) as usize] else {
            return Ok(None);
        };
        let entries = &shard.manifest.entries;
        let Ok(i) = shard.live.binary_search_by(|&s| entries[s as usize].id.as_str().cmp(id)) else {
            return Ok(None);
        };
        if let Some(hit) = lock_unpoisoned(&self.cache).get(id) {
            catalog::shard_cache_hits_counter().inc();
            return Ok(Some(hit));
        }
        catalog::shard_cache_misses_counter().inc();
        let slot = shard.live[i] as usize;
        let rec = shard.arena.read_entry(slot, id, entries[slot].content_hash)?;
        let sketch = Arc::new(rec.sketch);
        lock_unpoisoned(&self.cache).insert(id, Arc::clone(&sketch));
        Ok(Some(sketch))
    }
}

/// A small LRU keyed by table id. Recency is a monotonically stamped
/// `BTreeMap` index, so get/insert/evict are all `O(log cap)`.
struct SketchCache {
    cap: usize,
    stamp: u64,
    map: HashMap<String, (Arc<TableSketch>, u64)>,
    order: std::collections::BTreeMap<u64, String>,
}

impl SketchCache {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            stamp: 0,
            map: HashMap::new(),
            order: std::collections::BTreeMap::new(),
        }
    }

    fn get(&mut self, id: &str) -> Option<Arc<TableSketch>> {
        let (sketch, at) = self.map.get_mut(id)?;
        let hit = Arc::clone(sketch);
        let old = *at;
        self.stamp += 1;
        *at = self.stamp;
        self.order.remove(&old);
        self.order.insert(self.stamp, id.to_string());
        Some(hit)
    }

    fn insert(&mut self, id: &str, sketch: Arc<TableSketch>) {
        if self.cap == 0 {
            return;
        }
        self.stamp += 1;
        if let Some((_, old)) = self.map.insert(id.to_string(), (sketch, self.stamp)) {
            self.order.remove(&old);
        }
        self.order.insert(self.stamp, id.to_string());
        while self.map.len() > self.cap {
            let Some((_, victim)) = self.order.pop_first() else { break };
            self.map.remove(&victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsfm_sketch::SketchConfig;
    use tsfm_table::{Column, Table, Value};

    fn record(id: &str, vals: &[i64]) -> TableRecord {
        let mut t = Table::new(id, id);
        t.push_column(Column::new("v", vals.iter().map(|&v| Value::Int(v)).collect()));
        let sketch = TableSketch::build(&t, &SketchConfig::default());
        TableRecord::from_sketch(sketch, hash_str(id))
    }

    fn payload(rec: &TableRecord) -> Vec<u8> {
        let mut buf = Vec::new();
        ser::write_record(&mut buf, rec).unwrap();
        buf
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tsfm_shard_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn shard_geometry_is_stable_and_bounded() {
        assert_eq!(shard_count_for(0), 1);
        assert_eq!(shard_count_for(4096), 1);
        assert_eq!(shard_count_for(4097), 2);
        assert_eq!(shard_count_for(100_000), 32);
        assert_eq!(shard_count_for(u64::MAX), MAX_SHARDS as u32);
        for id in ["a", "b", "weird id/with:stuff", ""] {
            assert_eq!(shard_of(id, 1), 0);
            let wide = shard_of(id, 256);
            assert!(wide < 256);
            // Halving the space coarsens the same prefix, so entries
            // only ever merge, never scatter, when the space shrinks.
            assert_eq!(shard_of(id, 128), wide / 2);
        }
    }

    #[test]
    fn shard_manifest_roundtrip_and_ordering_check() {
        let dir = tmp("manifest");
        // Pick ids that actually hash into shard 0 of 2.
        let ids: Vec<String> = (0..200)
            .map(|i| format!("table_{i:03}"))
            .filter(|id| shard_of(id, 2) == 0)
            .take(6)
            .collect();
        let mut entries: Vec<ShardEntry> = ids
            .iter()
            .map(|id| ShardEntry {
                id: id.clone(),
                content_hash: hash_str(id),
                num_rows: 3,
                num_cols: 1,
            })
            .collect();
        entries.sort_by(|a, b| a.id.cmp(&b.id));
        let m = ShardManifest { index: 0, shard_count: 2, generation: 7, entries };
        let path = dir.join(shard_file_name(0, 7));
        write_shard_manifest(&path, &m).unwrap();
        let back = read_shard_manifest(&path).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.find(&m.entries[2].id), Some(2));
        assert_eq!(back.find("not here"), None);

        // Out-of-order entries are corruption, not a bad binary search.
        let mut swapped = m;
        swapped.entries.swap(0, 1);
        write_shard_manifest(&path, &swapped).unwrap();
        let err = read_shard_manifest(&path).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt { format, .. } if format == "TSFMSHD1"),
            "{err}"
        );
    }

    #[test]
    fn arena_roundtrip_positioned_reads() {
        let dir = tmp("arena");
        let recs: Vec<TableRecord> =
            (0..5).map(|i| record(&format!("t{i}"), &[i, i + 1, i * 3])).collect();
        let payloads: Vec<Vec<u8>> = recs.iter().map(payload).collect();
        let bytes = build_arena(3, 9, &payloads);
        let path = dir.join(arena_file_name(3, 9));
        durable::commit_file(&path, &bytes).unwrap();
        let meta = ShardMeta {
            index: 3,
            generation: 9,
            entry_count: 5,
            total_rows: 0,
            total_cols: 0,
            arena_bytes: bytes.len() as u64,
        };
        let arena = ArenaIndex::open(&path, &meta).unwrap();
        assert_eq!(arena.slots.len(), 5);
        // Read out of order — positioned reads have no cursor.
        for i in [4usize, 0, 2, 1, 3] {
            let rec = arena.read_record(i).unwrap();
            assert_eq!(rec.table_id(), recs[i].table_id());
            assert_eq!(rec.content_hash, recs[i].content_hash);
            assert_eq!(rec.sketch.content_snapshot, recs[i].sketch.content_snapshot);
        }
        assert!(arena.read_payload(5).is_err());
    }

    #[test]
    fn arena_corruption_is_typed_never_a_panic() {
        let dir = tmp("arena_corrupt");
        let payloads: Vec<Vec<u8>> =
            (0..3).map(|i| payload(&record(&format!("t{i}"), &[i, 7 - i]))).collect();
        let bytes = build_arena(0, 1, &payloads);
        let path = dir.join(arena_file_name(0, 1));
        let meta = ShardMeta {
            index: 0,
            generation: 1,
            entry_count: 3,
            total_rows: 0,
            total_cols: 0,
            arena_bytes: bytes.len() as u64,
        };
        let assert_corrupt = |err: StoreError| {
            let StoreError::Corrupt { format, file, offset, .. } = &err else {
                panic!("want Corrupt, got {err}");
            };
            assert!(format == "TSFMARN1" || format == "TSFMSEG1", "{err}");
            assert!(file.is_some() && offset.is_some(), "must name shard file + offset: {err}");
        };

        // A flipped bit anywhere in header or offset table fails open();
        // a flipped payload bit fails the positioned read of that slot.
        let table_end = (ARENA_HEADER_LEN + 3 * ARENA_SLOT_LEN) as usize;
        for at in [0usize, 9, 13, 20, 30, 34, ARENA_HEADER_LEN as usize + 5, table_end - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            durable::commit_file(&path, &bad).unwrap();
            assert_corrupt(ArenaIndex::open(&path, &meta).unwrap_err());
        }
        let mut bad = bytes.clone();
        bad[table_end + 10] ^= 1; // inside payload 0
        durable::commit_file(&path, &bad).unwrap();
        let arena = ArenaIndex::open(&path, &meta).unwrap();
        assert_corrupt(arena.read_record(0).unwrap_err());
        assert!(arena.read_record(1).is_ok(), "other slots unaffected");

        // Truncation: both against the recorded size and within it.
        durable::commit_file(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert_corrupt(ArenaIndex::open(&path, &meta).unwrap_err());
        let short = ShardMeta { arena_bytes: meta.arena_bytes - 4, ..meta };
        assert_corrupt(ArenaIndex::open(&path, &short).unwrap_err());
    }

    /// Batched reads hand back exactly what slot-by-slot reads do, across
    /// several windows and past a slot larger than one, skip what is not
    /// wanted, and still fail a flipped payload bit at that slot's offset.
    #[test]
    fn read_records_matches_slot_reads_across_windows() {
        let dir = tmp("windows");
        let mut recs: Vec<TableRecord> =
            (0..1500).map(|i| record(&format!("t{i:04}"), &[i, i + 1, i * 7])).collect();
        recs[250].table_embedding = Some(vec![0.5; READ_WINDOW as usize / 4 + 100]);
        let payloads: Vec<Vec<u8>> = recs.iter().map(payload).collect();
        let mut bytes = build_arena(0, 1, &payloads);
        assert!(bytes.len() as u64 > 3 * READ_WINDOW, "several windows: {}", bytes.len());
        let meta = ShardMeta {
            index: 0,
            generation: 1,
            entry_count: 1500,
            total_rows: 0,
            total_cols: 0,
            arena_bytes: bytes.len() as u64,
        };
        let path = dir.join(arena_file_name(0, 1));
        durable::commit_file(&path, &bytes).unwrap();
        let arena = ArenaIndex::open(&path, &meta).unwrap();
        let wanted = |i: usize| i % 7 != 3;
        let mut got = Vec::new();
        arena
            .read_records(wanted, |i, rec| {
                got.push((i, rec.table_id().to_string(), rec.table_embedding.map(|e| e.len())));
                Ok(())
            })
            .unwrap();
        let want: Vec<_> = (0..1500)
            .filter(|&i| wanted(i))
            .map(|i| {
                let rec = arena.read_record(i).unwrap();
                (i, rec.table_id().to_string(), rec.table_embedding.map(|e| e.len()))
            })
            .collect();
        assert_eq!(got, want);

        let bad = arena.slots[1200];
        bytes[(bad.offset + bad.len / 2) as usize] ^= 1;
        durable::commit_file(&path, &bytes).unwrap();
        let arena = ArenaIndex::open(&path, &meta).unwrap();
        let err = arena.read_records(|_| true, |_, _| Ok(())).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt { offset: Some(at), .. } if *at == bad.offset),
            "{err}"
        );
    }

    #[test]
    fn sketch_cache_is_lru_bounded() {
        let mut c = SketchCache::new(2);
        let sk = |id: &str| Arc::new(record(id, &[1]).sketch);
        c.insert("a", sk("a"));
        c.insert("b", sk("b"));
        assert!(c.get("a").is_some(), "a refreshed");
        c.insert("c", sk("c"));
        assert!(c.get("b").is_none(), "b was least recent");
        assert!(c.get("a").is_some() && c.get("c").is_some());
        assert_eq!(c.map.len(), 2);
        assert_eq!(c.order.len(), 2);
    }
}
