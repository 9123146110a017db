//! The persistent discovery catalog.
//!
//! On-disk layout under the catalog directory:
//!
//! ```text
//! <dir>/catalog.manifest   TSFMCAT1: sketch config + loose entries + shard metas + tombstones
//! <dir>/segments/<r>.arena TSFMARN1: one loose run — the records of one loose commit
//! <dir>/segments/<f>.seg   TSFMSEG1: one legacy loose record (read-only; see below)
//! <dir>/shards/<s>.shard   TSFMSHD1: per-shard table metadata (see crate::shard)
//! <dir>/shards/<s>.arena   TSFMARN1: per-shard flat sketch arena, read positionally
//! <dir>/index.cache        TSFMIDX1: fingerprint + join/union HNSW graphs + per-table engine meta
//! ```
//!
//! Two storage tiers share the namespace. **Sharded** tables live in
//! `shards/`: the id space is partitioned by hash prefix, and each shard
//! packs its records into a flat arena behind a fixed-width offset
//! table, so `Catalog::open` reads only the root manifest — O(shards)
//! metadata, not O(tables) of sketches — and sketch payloads load lazily
//! by positioned read. Every ingest lands there: the first commit of a
//! catalog without a shard layer folds everything it holds into arenas.
//! **Loose** tables — updates small against the shard population — are
//! the mutation journal: listed directly in the root manifest, each entry
//! naming a *run* under `segments/` and its slot there. A run has the
//! arena layout and holds every record one loose commit wrote. Stores
//! written before runs existed may still list one-record `.seg` files;
//! those are read as they are and folded like runs, never written. A
//! loose entry shadows (and a *tombstone* marks removed/shadowed) any
//! shard-resident copy of the same id. [`Catalog::compact`] folds loose
//! entries and tombstones into rewritten shards — only *dirty* shards are
//! rewritten, to a fresh generation committed file-by-file through
//! [`crate::durable::commit_file`], with the root manifest flip as the
//! single commit point — and [`Catalog::commit`] folds instead of
//! committing loose whenever [`Catalog::compaction_due`] says so.
//!
//! Mutations (`add_table`, `add_record`, `remove`) write no file: a new
//! record is serialized into its `TSFMSEG1` frame and held in memory
//! beside its manifest entry until [`Catalog::commit`] (also called on
//! drop, best effort), the single durability point, decides where its
//! bytes land. A commit with nothing uncommitted writes nothing, so
//! opening and querying a store never rewrites its manifest, segments or
//! shards. A *folding* commit copies the frames straight into new shard
//! arenas; a *loose* one copies them, in id order, into one new run.
//! Either way every file is written whole through `commit_file` (one
//! fsync, one rename, one directory sync), the root manifest commits
//! last, and only then are the files it stopped referencing unlinked. A
//! crash at any instant leaves the catalog at the previous committed
//! epoch: uncommitted records were only ever in memory, a commit
//! interrupted before its manifest rename leaves files no manifest
//! references (`tsfm fsck` sweeps them), and superseded files survive
//! until no manifest on disk mentions them. A failed commit keeps every
//! uncommitted frame, so a retry writes the same bytes.
//!
//! Reads are split from writes: [`Catalog::searcher`] returns a
//! [`Searcher`] — an immutable `Arc`-shared snapshot of the query engine
//! that is `Send + Sync` — so queries never hold `&mut Catalog`. Every
//! mutation bumps the catalog [`Catalog::epoch`] and drops the cached
//! snapshot; snapshots already handed out keep serving their generation.
//! The next `searcher()` call finds its engine the cheapest way the
//! contents allow:
//!
//! 1. the engine the previous snapshot served, as is, when the contents
//!    fingerprint is unchanged (a snapshot-mode switch, a compaction),
//!    and an eager previous snapshot's corpus with it;
//! 2. the on-disk index cache when its fingerprint matches, so a cold
//!    reopen of an unchanged catalog skips graph construction entirely;
//! 3. the previous engine *updated* by the churn since it was built: the
//!    catalog keeps that engine and one content hash per table across
//!    mutations, diffs them against the active `(id, content_hash)` set,
//!    and hands [`QueryEngine::update`] the removed ids and the records of
//!    the changed and added tables. When the previous snapshot was eager,
//!    the catalog kept its sketches too (the same `Arc`s), so the new
//!    eager corpus is those minus the removed and replaced tables plus the
//!    changed and added records — the only records it reads — and an
//!    update becomes visible in time proportional to churn;
//! 4. a full [`QueryEngine::build`] over the live records, when there is
//!    no previous engine (a fresh open) or the update would leave a
//!    quarter of the graph dead.
//!
//! Paths 3 and 4 rewrite the index cache for the new contents; a write that
//! fails leaves the snapshot serving from memory and is counted in
//! `tsfm_catalog_index_cache_write_failures_total`. Every other snapshot
//! that is eager, and every lazy one's loose tier, loads its records.
//!
//! Every read of a stored record is checked against the entry that names
//! it: a shard manifest against its root metadata (`slot_manifest`), a
//! shard or run slot against its entry's table id *and* content hash
//! ([`ArenaIndex::check_entry`], for `get`, `load_all_records` and the lazy
//! snapshot's `sketch_of` alike), a legacy segment file against its loose
//! entry. `tsfm fsck` opens the store through the same open path and
//! verifies through these same readers, so the catalog and fsck share one
//! definition of a valid store.
//!
//! Incremental ingest: every record stores the stable hash of its source
//! bytes. [`Catalog::ingest_dir`] hashes each CSV *before* parsing and
//! skips unchanged files without sketching them, so re-ingesting an
//! unchanged directory touches nothing and adding one file re-sketches
//! exactly one table. Within one process a catalog also skips the *read*:
//! it remembers, in memory only, each source's file stamp (device, inode,
//! length, mtime and ctime to the nanosecond) from its last scan of the
//! directory beside the hash of the bytes read under it, and the next scan
//! takes a file whose stamp is unchanged, and whose table still has that
//! hash, as unchanged on one `stat`. Only a stamp whose mtime and ctime
//! both lie [`SETTLE_NS`] before the scan started is remembered (git's
//! "racily clean" rule), so a same-length write inside one timestamp tick
//! cannot hide behind it; ctime catches an mtime set back by hand, the
//! inode a rename over the file. Nothing of this is persisted: a fresh
//! process reads and hashes every source.

use crate::durable;
use crate::engine::{QueryEngine, SpanMeta};
use crate::error::{StoreError, StoreResult};
use crate::record::TableRecord;
use crate::searcher::Searcher;
use crate::ser;
use crate::shard::{self, ArenaIndex, ShardEntry, ShardManifest, ShardMeta};
use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use tsfm_search::Hnsw;
use std::sync::{Arc, OnceLock};
use tsfm_search::HnswConfig;
use tsfm_sketch::{MinHasher, SketchConfig, TableSketch};
use tsfm_table::hash::{hash_str, splitmix64};
use tsfm_table::{csv, Table};

/// The process-wide metrics registry (`{"op":"metrics"}` surfaces it).
fn obs() -> &'static tsfm_obs::metrics::Registry {
    tsfm_obs::metrics::global()
}

// Every store instrument, declared once. They live in `obs()`, not on the
// `Catalog`, so counts survive catalog reopen: "why is this process
// rebuilding its index every reload?" spans catalog instances.
// `Catalog::open_with` registers them all, so the metrics verb exports
// each series (at zero) before its first event.
tsfm_obs::instruments! {
    in obs(), fn register_instruments;
    fn opens_counter() -> Counter = ("tsfm_catalog_opens_total", "Catalog open attempts");
    pub(crate) fn corruptions_counter() -> Counter = ("tsfm_store_corruptions_detected_total",
        "Checksum or format violations detected while reading store files");
    pub(crate) fn fsck_repairs_counter() -> Counter = ("tsfm_store_fsck_repairs_total",
        "Repair actions taken by tsfm fsck");
    pub(crate) fn shard_cache_hits_counter() -> Counter = ("tsfm_store_shard_cache_hits_total",
        "Lazy sketch loads answered by the shard cache");
    pub(crate) fn shard_cache_misses_counter() -> Counter = ("tsfm_store_shard_cache_misses_total",
        "Lazy sketch loads that went to an arena read");
    fn compactions_counter() -> Counter = ("tsfm_store_compactions_total",
        "Shard compaction passes completed");
    pub(crate) fn arena_read_histogram() -> Histogram = ("tsfm_store_arena_read_us",
        "Positioned arena payload read latency");
    fn segments_written_counter() -> Counter = ("tsfm_catalog_segments_written_total",
        "Segment files written");
    fn segment_bytes_counter() -> Counter = ("tsfm_catalog_segment_bytes_written_total",
        "Segment bytes written");
    fn snapshot_build_histogram() -> Histogram = ("tsfm_catalog_snapshot_build_us",
        "Snapshot (re)build latency");
    fn index_cache_hits_counter() -> Counter = ("tsfm_catalog_index_cache_hits_total",
        "Snapshots served from the on-disk HNSW cache");
    fn index_rebuilds_counter() -> Counter = ("tsfm_catalog_index_rebuilds_total",
        "Snapshots that rebuilt the HNSW graphs from records");
    fn index_build_histogram() -> Histogram = ("tsfm_catalog_index_build_us",
        "QueryEngine::build latency (join and union HNSW lanes) on an index rebuild");
    fn index_cache_load_histogram() -> Histogram = ("tsfm_catalog_index_cache_load_us",
        "index.cache read, checksum and decode latency, engine reassembly included");
    fn index_cache_write_histogram() -> Histogram = ("tsfm_catalog_index_cache_write_us",
        "index.cache encode and commit latency (fsync and rename included)");
    fn load_records_histogram() -> Histogram = ("tsfm_catalog_load_records_us",
        "Latency of loading every active record, both tiers, for a snapshot or rebuild");
    fn index_updates_counter() -> Counter = ("tsfm_catalog_index_updates_total",
        "Snapshots whose engine was derived from the previous one by inserting only changed tables");
    fn index_cache_write_failures_counter() -> Counter = (
        "tsfm_catalog_index_cache_write_failures_total",
        "index.cache writes that failed; the snapshot still serves, and the next cold open rebuilds");
    fn index_update_histogram() -> Histogram = ("tsfm_catalog_index_update_us",
        "QueryEngine::update latency (fork both graphs, insert the changed columns)");
    fn dead_columns_gauge() -> Gauge = ("tsfm_catalog_index_dead_columns",
        "Columns of removed or replaced tables still in the newest snapshot's graphs");
    fn index_bytes_gauge() -> Gauge = ("tsfm_engine_index_bytes",
        "Heap bytes of the newest snapshot's join and union graphs (vectors, norm roots, link rows)");
}

// Format magics live in `ser`, the crate's single magic module (the
// `format-magic-once` lint enforces this).
use crate::ser::{INDEX_MAGIC, MANIFEST_MAGIC};

pub(crate) const MANIFEST_FILE: &str = "catalog.manifest";
pub(crate) const INDEX_FILE: &str = "index.cache";
pub(crate) const SEGMENT_DIR: &str = "segments";

/// Manifest entry for one loose table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    pub content_hash: u64,
    /// The file under `segments/` holding the record: a run, or a legacy
    /// one-record `.seg` file. Empty until a loose commit writes it.
    pub segment: String,
    /// The record's slot in its run; `None` for a legacy `.seg` file and
    /// for an uncommitted entry.
    pub slot: Option<u32>,
    pub num_rows: u64,
    pub num_cols: u32,
}

/// What happened to one table during ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// New table id: sketched and stored.
    Added,
    /// Known id whose content hash changed: re-sketched and replaced.
    Updated,
    /// Known id with identical content hash: nothing done.
    Unchanged,
}

/// Summary of a directory ingest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    pub added: usize,
    pub updated: usize,
    pub unchanged: usize,
    /// `(file name, error)` for sources that could not be read or parsed.
    pub failed: Vec<(String, String)>,
}

impl IngestReport {
    /// Number of tables actually (re-)sketched.
    pub fn sketched(&self) -> usize {
        self.added + self.updated
    }

    fn count(&mut self, outcome: IngestOutcome) {
        match outcome {
            IngestOutcome::Added => self.added += 1,
            IngestOutcome::Updated => self.updated += 1,
            IngestOutcome::Unchanged => self.unchanged += 1,
        }
    }
}

/// A record serialized for the catalog: its `TSFMSEG1` frame and the
/// manifest entry it is held under. Encoding reads no catalog state, so
/// ingest workers do it.
struct Encoded {
    id: String,
    entry: ManifestEntry,
    frame: Vec<u8>,
}

impl Encoded {
    fn new(rec: &TableRecord) -> StoreResult<Self> {
        let _g = tsfm_obs::span!("catalog.segment.encode");
        let mut frame = Vec::new();
        ser::write_record(&mut frame, rec)?;
        let id = rec.table_id().to_string();
        let entry = ManifestEntry {
            content_hash: rec.content_hash,
            segment: String::new(),
            slot: None,
            num_rows: rec.num_rows() as u64,
            num_cols: rec.num_cols() as u32,
        };
        Ok(Self { id, entry, frame })
    }
}

/// What an ingest worker made of one source, applied in input order.
enum Prepared {
    /// The active copy already has the source's content hash.
    Unchanged,
    /// A new or changed table; `prior` is the content hash of the active
    /// copy it replaces.
    Changed { prior: Option<u64>, rec: Encoded },
    /// `(file name, error)` for a source that could not be read.
    Failed(String, String),
}

/// How long before a scan starts a source's mtime and ctime must both lie
/// for its stamp to be remembered (git's "racily clean" rule). A write
/// that lands after a scan has started changes one of them to a time past
/// this line, so it cannot hide behind a stamp taken before it, even on a
/// filesystem that keeps times to the second or to two seconds.
pub(crate) const SETTLE_NS: i128 = 2_000_000_000;

/// A file's identity and version as `stat` reports them; times in
/// nanoseconds since the Unix epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    dev: u64,
    ino: u64,
    len: u64,
    mtime: i128,
    ctime: i128,
}

impl Stamp {
    /// Whether both times lie [`SETTLE_NS`] or more before `scan_start`.
    fn settled(&self, scan_start: i128) -> bool {
        self.mtime.max(self.ctime) <= scan_start - SETTLE_NS
    }
}

/// One source as the last scan of its directory read it: the stamp taken
/// before the read, and the content hash of the bytes read.
#[derive(Debug, Clone, Copy)]
struct Source {
    stamp: Stamp,
    hash: u64,
}

#[cfg(unix)]
fn file_stamp(md: &fs::Metadata) -> Option<Stamp> {
    use std::os::unix::fs::MetadataExt;
    let ns = |secs: i64, nanos: i64| i128::from(secs) * 1_000_000_000 + i128::from(nanos);
    Some(Stamp {
        dev: md.dev(),
        ino: md.ino(),
        len: md.size(),
        mtime: ns(md.mtime(), md.mtime_nsec()),
        ctime: ns(md.ctime(), md.ctime_nsec()),
    })
}

#[cfg(not(unix))]
fn file_stamp(_: &fs::Metadata) -> Option<Stamp> {
    None
}

/// `t` in nanoseconds since the Unix epoch (negative before it).
fn unix_ns(t: std::time::SystemTime) -> i128 {
    match t.duration_since(std::time::UNIX_EPOCH) {
        Ok(d) => d.as_nanos() as i128,
        Err(e) => -(e.duration().as_nanos() as i128),
    }
}

/// A source's bytes as text, and the stamp of the handle they were read
/// through, taken before the read. The buffer is sized from that one
/// `fstat`, as `fs::read_to_string` sizes it from its own:
/// `File::read_to_string` would `fstat` and `lseek` again for the hint.
fn read_source(path: &Path) -> std::io::Result<(Option<Stamp>, String)> {
    use std::io::{ErrorKind, Read};
    let mut file = fs::File::open(path)?;
    let md = file.metadata()?;
    // One byte past the length, so the read that finds EOF needs no growth.
    let mut bytes = vec![0; usize::try_from(md.len()).unwrap_or(0) + 1];
    let mut len = 0;
    loop {
        if len == bytes.len() {
            bytes.resize(2 * len, 0);
        }
        match file.read(&mut bytes[len..]) {
            Ok(0) => break,
            Ok(n) => len += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    bytes.truncate(len);
    let text = String::from_utf8(bytes).map_err(|_| {
        std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })?;
    Ok((file_stamp(&md), text))
}

/// Aggregate catalog statistics (the `tsfm stats` output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogStats {
    pub tables: usize,
    pub columns: u64,
    pub rows: u64,
    pub segment_bytes: u64,
    pub minhash_k: usize,
    /// Whether a valid on-disk index cache exists for the current contents.
    pub index_cached: bool,
    /// Width of the shard space (0 until the first compaction).
    pub shards: usize,
}

/// Below this many tables, [`SnapshotMode::Auto`] stays eager even over
/// a sharded catalog: the one-time cost of paging every sketch in is
/// tens-to-hundreds of milliseconds and repays itself immediately in
/// query latency (a lazy snapshot's LRU thrashes when the hot candidate
/// set exceeds its capacity). Past it, corpus size dominates and the
/// lazy path's bounded RSS and O(shards) snapshot build win.
pub(crate) const AUTO_LAZY_MIN_TABLES: usize = 65_536;

/// How [`Catalog::searcher`] materializes the corpus behind a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotMode {
    /// Lazy when a shard layer exists *and* the corpus is too large to
    /// hold eagerly ([`AUTO_LAZY_MIN_TABLES`]); eager otherwise.
    #[default]
    Auto,
    /// Hold every sketch in memory (the historical behavior; right for
    /// small catalogs where RSS is cheap and `sketch_of` is hot).
    Eager,
    /// Keep shard-resident sketches on disk; `sketch_of` loads them by
    /// positioned arena read through an LRU cache. Bounds snapshot RSS
    /// by churn + cache size instead of corpus size.
    Lazy,
}

/// One shard as the catalog tracks it: root-manifest metadata plus
/// lazily-loaded (once per catalog instance) manifest and arena. The
/// `OnceLock`s keep `Catalog::open` O(shards): nothing under `shards/`
/// is touched until a lookup lands there.
pub(crate) struct ShardSlot {
    pub(crate) meta: ShardMeta,
    manifest: OnceLock<Arc<ShardManifest>>,
    arena: OnceLock<Arc<ArenaIndex>>,
}

impl ShardSlot {
    fn new(meta: ShardMeta) -> Self {
        Self { meta, manifest: OnceLock::new(), arena: OnceLock::new() }
    }
}

/// The engine a catalog last built, loaded or derived (the same `Arc`
/// its snapshot holds) and the contents it indexes.
struct IndexBase {
    engine: Arc<QueryEngine>,
    /// Fingerprint of those contents.
    fingerprint: u64,
    /// Content hash per table, parallel to `engine.table_ids()`.
    hashes: Vec<u64>,
    /// The sketches of the newest snapshot when it is eager — the same
    /// `Arc` it holds, parallel to `engine.table_ids()` — carried into
    /// the next eager one; `None` after a lazy snapshot.
    corpus: Option<Corpus>,
}

/// An eager snapshot's sketches, in ascending table-id order.
type Corpus = Arc<Vec<Arc<TableSketch>>>;

/// A persistent, incrementally-updatable table catalog.
pub struct Catalog {
    dir: PathBuf,
    sketch_cfg: SketchConfig,
    hnsw_cfg: HnswConfig,
    /// Loose tables: the root manifest's own id → segment map.
    entries: BTreeMap<String, ManifestEntry>,
    /// The shard layer, indexed by shard number; the vector length is the
    /// hash-space width (a power of two). Empty for loose-only catalogs;
    /// a `None` hole is a shard fsck quarantined.
    shards: Vec<Option<ShardSlot>>,
    /// Shard-resident ids that are removed, or shadowed by a loose
    /// update, since the last compaction.
    tombstones: BTreeSet<String>,
    snapshot_mode: SnapshotMode,
    /// Cached read snapshot for the current epoch; dropped on mutation.
    snapshot: Option<Searcher>,
    /// The engine the newest snapshot serves, kept across mutations as
    /// the base the next one is derived from (module docs, path 3).
    base: Option<IndexBase>,
    /// Bumped by every mutation; snapshots carry the epoch they captured.
    epoch: u64,
    manifest_dirty: bool,
    /// The serialized `TSFMSEG1` frame of every table added since the
    /// last commit, by id, beside its uncommitted entry in `entries`. No
    /// file exists for them yet: the commit decides whether they go into
    /// one loose run or straight into shard arenas.
    pending: BTreeMap<String, Vec<u8>>,
    /// The `segments/` files a manifest on disk may reference: those the
    /// last committed manifest names, plus any run written for a manifest
    /// whose commit failed. A commit unlinks the ones its manifest stops
    /// naming, after the flip; a new run never takes one of their names.
    committed: BTreeSet<String>,
    /// Per directory [`Catalog::ingest_dir`] scanned, the settled sources
    /// of its last scan by table id: in memory only.
    sources: BTreeMap<PathBuf, BTreeMap<String, Source>>,
}

impl Catalog {
    /// Open a catalog directory, creating an empty catalog (with the
    /// default [`SketchConfig`]) if none exists yet.
    pub fn open(dir: impl Into<PathBuf>) -> StoreResult<Self> {
        Self::open_with(dir, SketchConfig::default())
    }

    /// Open with an explicit sketch configuration. If the catalog already
    /// exists its persisted configuration wins — sketches on disk were
    /// built with it — and a mismatch with `cfg` is an
    /// [`StoreError::InvalidRequest`].
    pub fn open_with(dir: impl Into<PathBuf>, cfg: SketchConfig) -> StoreResult<Self> {
        let _g = tsfm_obs::span!("catalog.open");
        register_instruments();
        opens_counter().inc();
        let dir = dir.into();
        if dir.join(MANIFEST_FILE).exists() {
            let cat = Self::open_existing(dir)?;
            let on_disk = &cat.sketch_cfg;
            if (on_disk.minhash_k, on_disk.max_rows, on_disk.seed)
                != (cfg.minhash_k, cfg.max_rows, cfg.seed)
            {
                return Err(StoreError::invalid(format!(
                    "catalog was created with (k={}, max_rows={}, seed={:#x}); \
                     refusing to open with a different sketch config",
                    on_disk.minhash_k, on_disk.max_rows, on_disk.seed
                )));
            }
            return Ok(cat);
        }
        fs::create_dir_all(dir.join(SEGMENT_DIR))?;
        let cat = Self::with_contents(dir, (cfg, BTreeMap::new(), Vec::new(), BTreeSet::new()));
        // The empty manifest is the catalog's first committed state: the
        // first commit without mutations writes nothing.
        cat.write_manifest()?;
        Ok(cat)
    }

    /// Open the catalog whose manifest is in `dir`, with the sketch
    /// configuration it persisted — the one open path, which
    /// [`Catalog::open_with`] and `fsck` share. Reads the root manifest
    /// only; nothing under `segments/` or `shards/` is touched.
    pub(crate) fn open_existing(dir: PathBuf) -> StoreResult<Self> {
        let contents = read_manifest(&dir.join(MANIFEST_FILE))?;
        Ok(Self::with_contents(dir, contents))
    }

    fn with_contents(dir: PathBuf, contents: ManifestContents) -> Self {
        let (sketch_cfg, entries, metas, tombstones) = contents;
        let mut cat = Self {
            dir,
            sketch_cfg,
            hnsw_cfg: HnswConfig::default(),
            shards: metas.into_iter().map(|m| m.map(ShardSlot::new)).collect(),
            tombstones,
            snapshot_mode: SnapshotMode::default(),
            snapshot: None,
            base: None,
            epoch: 0,
            manifest_dirty: false,
            pending: BTreeMap::new(),
            committed: entries.values().map(|e| e.segment.clone()).collect(),
            entries,
            sources: BTreeMap::new(),
        };
        cat.prune_tombstones();
        cat
    }

    /// Drop the tombstones that point into a quarantined (missing) shard:
    /// they mark nothing, and keeping them would undercount `len`.
    fn prune_tombstones(&mut self) {
        let space = self.shards.len() as u32;
        if space > 0 {
            let shards = &self.shards;
            self.tombstones.retain(|id| shards[shard::shard_of(id, space) as usize].is_some());
        }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the on-disk manifest committed by every mutation. External
    /// watchers (e.g. the serve hot-reload loop) poll this file's
    /// mtime/len to detect that another process changed the catalog.
    pub fn manifest_path(&self) -> std::path::PathBuf {
        self.dir.join(MANIFEST_FILE)
    }

    pub fn sketch_config(&self) -> &SketchConfig {
        &self.sketch_cfg
    }

    /// Number of active tables: shard-resident (minus tombstones) plus
    /// loose. O(shards) — counted from root-manifest metadata alone.
    pub fn len(&self) -> usize {
        let sharded: u64 = self.shards.iter().flatten().map(|s| s.meta.entry_count).sum();
        (sharded - self.tombstones.len() as u64) as usize + self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The mutation generation of this catalog. Bumped by every
    /// `add_table` / `add_record` / `remove`; a [`Searcher`] whose
    /// [`Searcher::epoch`] is older was taken before those mutations.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// All active table ids in ascending order. For a sharded catalog
    /// this loads shard manifests (metadata only — sketch payloads stay
    /// on disk), so it is fallible and O(tables); prefer [`Catalog::len`]
    /// when only the count matters.
    pub fn table_ids(&self) -> StoreResult<Vec<String>> {
        let mut ids: Vec<String> = self.entries.keys().cloned().collect();
        for slot in self.shards.iter().flatten() {
            let m = self.slot_manifest(slot)?;
            ids.extend(
                m.entries
                    .iter()
                    .map(|e| e.id.as_str())
                    .filter(|id| !self.tombstones.contains(*id))
                    .map(str::to_string),
            );
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// The *loose* manifest entry for `id`, if the table lives in the
    /// loose tier: added or updated since the last commit, committed by a
    /// small update beside the shard layer, or held by a store written
    /// before the shard layer existed. Shard-resident tables — every
    /// table a catalog's first commit folded — have no loose entry; use
    /// [`Catalog::get`] / [`Catalog::record`] for tier-agnostic access.
    /// An uncommitted entry names no file yet: the next commit puts its
    /// record into a run only if that commit stays loose.
    pub fn entry(&self, id: &str) -> Option<&ManifestEntry> {
        self.entries.get(id)
    }

    /// The shard layer's width (0 for a loose-only catalog).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_dir(&self) -> PathBuf {
        self.dir.join(shard::SHARD_DIR)
    }

    /// The shard that would own `id`, if the shard layer has it.
    fn shard_slot(&self, id: &str) -> Option<&ShardSlot> {
        if self.shards.is_empty() {
            return None;
        }
        self.shards[shard::shard_of(id, self.shards.len() as u32) as usize].as_ref()
    }

    /// The loose tier: the root manifest's own id → entry map.
    pub(crate) fn loose_entries(&self) -> &BTreeMap<String, ManifestEntry> {
        &self.entries
    }

    /// Every shard the root manifest lists (quarantine holes skipped).
    pub(crate) fn shard_slots(&self) -> impl Iterator<Item = &ShardSlot> {
        self.shards.iter().flatten()
    }

    /// Whether a shard-resident copy of `id` is its table's active copy:
    /// neither removed nor shadowed by a loose entry since the last
    /// compaction. Every other slot is dead data.
    fn shard_copy_active(&self, id: &str) -> bool {
        !self.tombstones.contains(id) && !self.entries.contains_key(id)
    }

    /// The slots of shard manifest `m` that hold active copies, ascending.
    pub(crate) fn live_slots(&self, m: &ShardManifest) -> Vec<u32> {
        (0..m.entries.len() as u32)
            .filter(|&i| self.shard_copy_active(&m.entries[i as usize].id))
            .collect()
    }

    /// Load (once) a shard's manifest, cross-checked against its root
    /// metadata: the one definition of a valid shard manifest. Errors are
    /// not cached: a transient failure retries on the next call.
    pub(crate) fn slot_manifest(&self, slot: &ShardSlot) -> StoreResult<Arc<ShardManifest>> {
        if let Some(m) = slot.manifest.get() {
            return Ok(Arc::clone(m));
        }
        let path = self.shard_dir().join(slot.meta.shard_file());
        let m = shard::read_shard_manifest(&path)?;
        if m.index != slot.meta.index
            || m.generation != slot.meta.generation
            || m.shard_count != self.shards.len() as u32
            || m.entries.len() as u64 != slot.meta.entry_count
        {
            return Err(durable::note_corruption(
                StoreError::corrupt(
                    "TSFMSHD1",
                    format!(
                        "shard file {} (shard {} of {}, generation {}, {} entries) does not \
                         match the root manifest (shard {} of {}, generation {}, {} entries)",
                        slot.meta.shard_file(),
                        m.index,
                        m.shard_count,
                        m.generation,
                        m.entries.len(),
                        slot.meta.index,
                        self.shards.len(),
                        slot.meta.generation,
                        slot.meta.entry_count
                    ),
                )
                .with_file(&path, 0),
            ));
        }
        Ok(Arc::clone(slot.manifest.get_or_init(|| Arc::new(m))))
    }

    /// Open (once) a shard's arena: header + offset table only.
    pub(crate) fn slot_arena(&self, slot: &ShardSlot) -> StoreResult<Arc<ArenaIndex>> {
        if let Some(a) = slot.arena.get() {
            return Ok(Arc::clone(a));
        }
        let path = self.shard_dir().join(slot.meta.arena_file());
        let a = ArenaIndex::open(&path, &slot.meta)?;
        Ok(Arc::clone(slot.arena.get_or_init(|| Arc::new(a))))
    }

    /// Locate `id` in the shard layer (tombstones NOT applied): the
    /// owning slot, its manifest, and the entry index.
    fn shard_locate(&self, id: &str) -> StoreResult<Option<(&ShardSlot, Arc<ShardManifest>, usize)>> {
        let Some(slot) = self.shard_slot(id) else {
            return Ok(None);
        };
        let m = self.slot_manifest(slot)?;
        match m.find(id) {
            Some(i) => Ok(Some((slot, m, i))),
            None => Ok(None),
        }
    }

    /// Content hash of the *active* copy of `id`, whichever tier holds it.
    fn active_content_hash(&self, id: &str) -> StoreResult<Option<u64>> {
        if let Some(e) = self.entries.get(id) {
            return Ok(Some(e.content_hash));
        }
        if self.tombstones.contains(id) {
            return Ok(None);
        }
        Ok(self.shard_locate(id)?.map(|(_, m, i)| m.entries[i].content_hash))
    }

    /// Load one table's full record — from its uncommitted frame in
    /// memory, its loose run (or legacy segment file), or by positioned
    /// read out of its shard's arena.
    pub fn get(&self, id: &str) -> StoreResult<Option<TableRecord>> {
        if let Some(entry) = self.entries.get(id) {
            return self.loose_record(id, entry, &mut OpenRuns::new()).map(Some);
        }
        if self.tombstones.contains(id) {
            return Ok(None);
        }
        let Some((slot, m, i)) = self.shard_locate(id)? else {
            return Ok(None);
        };
        self.slot_arena(slot)?.read_entry(i, id, m.entries[i].content_hash).map(Some)
    }

    /// Like [`Catalog::get`] but a missing id is a typed
    /// [`StoreError::UnknownTable`] instead of `None`.
    pub fn record(&self, id: &str) -> StoreResult<TableRecord> {
        self.get(id)?.ok_or_else(|| StoreError::UnknownTable(id.to_string()))
    }

    /// The records of active tables `ids`, in order, as [`Catalog::record`]
    /// reads them, each loose run opened once.
    fn records_of<'a>(
        &self,
        ids: impl IntoIterator<Item = &'a String>,
    ) -> StoreResult<Vec<TableRecord>> {
        let mut runs = OpenRuns::new();
        ids.into_iter()
            .map(|id| match self.entries.get(id) {
                Some(entry) => self.loose_record(id, entry, &mut runs),
                None => self.record(id),
            })
            .collect()
    }

    /// Sketch `table` and store it under `table.id`. `content_hash` is the
    /// stable hash of the source bytes; if the stored record already has
    /// this hash nothing is re-sketched.
    pub fn add_table(&mut self, table: &Table, content_hash: u64) -> StoreResult<IngestOutcome> {
        if self.active_content_hash(&table.id)? == Some(content_hash) {
            return Ok(IngestOutcome::Unchanged);
        }
        let sketch = TableSketch::build(table, &self.sketch_cfg);
        self.add_record(&TableRecord::from_sketch(sketch, content_hash))
    }

    /// Store a pre-built record (the path for records carrying
    /// embeddings). The record is serialized here and held in memory;
    /// the next commit writes it.
    pub fn add_record(&mut self, rec: &TableRecord) -> StoreResult<IngestOutcome> {
        let prior = self.active_content_hash(rec.table_id())?;
        if prior == Some(rec.content_hash) {
            return Ok(IngestOutcome::Unchanged);
        }
        Ok(self.apply(Encoded::new(rec)?, prior))
    }

    /// Hold an encoded record as its table's new loose entry. `prior` is
    /// the content hash of the active copy it replaces (`None` for a new
    /// id), read from the current state and known to differ from the
    /// record's.
    fn apply(&mut self, rec: Encoded, prior: Option<u64>) -> IngestOutcome {
        let Encoded { id, entry, frame } = rec;
        // An active copy without a loose entry is shard-resident: the new
        // entry shadows it, and its tombstone keeps `len` counting the
        // table once and lets compaction drop the stale copy.
        if prior.is_some() && !self.entries.contains_key(&id) {
            self.tombstones.insert(id.clone());
        }
        // A replaced committed record stays in its run until the next
        // commit's manifest stops referencing it.
        self.entries.insert(id.clone(), entry);
        self.pending.insert(id, frame);
        self.invalidate();
        if prior.is_some() {
            IngestOutcome::Updated
        } else {
            IngestOutcome::Added
        }
    }

    /// Remove a table; returns whether it existed. An uncommitted table
    /// just drops its frame. A committed loose table's run is unlinked by
    /// the first commit whose manifest references none of its records —
    /// deleting first would lose the table on a crash before commit. A
    /// shard-resident table is tombstoned; the next compaction reclaims its
    /// arena bytes.
    pub fn remove(&mut self, id: &str) -> StoreResult<bool> {
        self.pending.remove(id);
        let mut existed = self.entries.remove(id).is_some();
        if !self.tombstones.contains(id) && self.shard_locate(id)?.is_some() {
            self.tombstones.insert(id.to_string());
            existed = true;
        }
        if existed {
            self.invalidate();
        }
        Ok(existed)
    }

    /// Ingest every `*.csv` file of a directory (sorted by name; the file
    /// stem becomes the table id), parsing and sketching across the
    /// host's available parallelism. Unchanged files are skipped before
    /// parsing, and settled files this catalog already read, before
    /// reading (see [`Catalog::ingest_dir_with_threads`]). Commits the
    /// manifest at the end.
    pub fn ingest_dir(&mut self, dir: impl AsRef<Path>) -> StoreResult<IngestReport> {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        self.ingest_dir_with_threads(dir, threads)
    }

    /// [`Catalog::ingest_dir`] with an explicit worker count (`0` or `1`
    /// runs inline). Each worker does the whole job for one file: read
    /// it, hash it, check the hash against the catalog (reads only — file
    /// stems are unique within a directory, so no job changes what
    /// another checks), and for a new or changed source parse, sketch and
    /// encode its record. The results are applied in sorted file order,
    /// so the report, the committed files and every future query answer
    /// are identical at any thread count.
    ///
    /// A source this catalog read in its last scan of `dir` is not opened
    /// again when its file stamp — device, inode, length, mtime and ctime
    /// to the nanosecond — is the one that read recorded *and* its table's
    /// active copy still has the hash of the bytes read then: it is
    /// [`IngestOutcome::Unchanged`] on one `stat`. Only settled stamps are
    /// recorded ([`SETTLE_NS`]), the stamp is taken from the open handle
    /// before its bytes are read, and nothing of it is persisted: a fresh
    /// catalog reads and hashes every file. Elsewhere than on Unix every
    /// file is read.
    pub fn ingest_dir_with_threads(
        &mut self,
        dir: impl AsRef<Path>,
        threads: usize,
    ) -> StoreResult<IngestReport> {
        let dir = dir.as_ref();
        let scan_start = unix_ns(std::time::SystemTime::now());
        let mut files: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "csv"))
            .collect();
        files.sort();
        let _g = tsfm_obs::span!("catalog.ingest_dir");
        let mut report = IngestReport::default();
        let hasher = self.hasher();
        let max_rows = self.sketch_cfg.max_rows;
        // One pass over every file: a worker keeps only the encoded frame
        // of a changed source, which the catalog holds until the commit
        // anyway.
        let this = &*self;
        let known = self.sources.get(dir);
        let scanned = crate::parallel_map(files.len(), threads, |j| {
            let path = &files[j];
            let id = path.file_stem().unwrap_or_default().to_string_lossy().into_owned();
            if let Some(&last) = known.and_then(|k| k.get(&id)) {
                let now = fs::metadata(path).ok().and_then(|md| file_stamp(&md));
                let same = now == Some(last.stamp);
                match this.active_content_hash(&id) {
                    Ok(active) if same && active == Some(last.hash) => {
                        return (Some((id, last)), Ok(Prepared::Unchanged));
                    }
                    Ok(_) => {}
                    Err(e) => return (None, Err(e)),
                }
            }
            let (stamp, text) = match read_source(path) {
                Ok(read) => read,
                Err(e) => {
                    let name = path.file_name().unwrap_or_default().to_string_lossy();
                    return (None, Ok(Prepared::Failed(name.into_owned(), e.to_string())));
                }
            };
            let hash = hash_str(&text);
            let prepared = this.prepare(&id, hash, || {
                let table = csv::table_from_csv(&id, &id, &text);
                TableSketch::build_with_hasher(&table, &hasher, max_rows)
            });
            let seen = stamp.filter(|s| s.settled(scan_start)).map(|stamp| Source { stamp, hash });
            (seen.map(|seen| (id, seen)), prepared)
        })?;
        let (seen, prepared): (Vec<_>, Vec<_>) = scanned.into_iter().unzip();
        self.apply_prepared(prepared, &mut report)?;
        // Files this scan did not list, or did not see settled, drop out.
        self.sources.insert(dir.to_path_buf(), seen.into_iter().flatten().collect());
        self.commit()?;
        Ok(report)
    }

    /// Bulk-add in-memory tables, checking, sketching and encoding across
    /// `threads` workers. Results are identical to calling
    /// [`Catalog::add_table`] for each table in order (the
    /// `parallel_ingest_matches_serial` test holds 4 threads to 1).
    /// `tables` and `content_hashes` must be parallel slices.
    pub fn ingest_tables(
        &mut self,
        tables: &[Table],
        content_hashes: &[u64],
        threads: usize,
    ) -> StoreResult<IngestReport> {
        assert_eq!(tables.len(), content_hashes.len(), "one content hash per table");
        let mut report = IngestReport::default();
        // A batch that repeats a table id would have its workers judge a
        // later duplicate against the pre-batch state, not the state its
        // predecessor left; take the exact serial path for those.
        let mut seen = BTreeSet::new();
        if tables.iter().any(|t| !seen.insert(t.id.as_str())) {
            for (t, &h) in tables.iter().zip(content_hashes) {
                report.count(self.add_table(t, h)?);
            }
            return Ok(report);
        }
        let hasher = self.hasher();
        let max_rows = self.sketch_cfg.max_rows;
        let this = &*self;
        let prepared = crate::parallel_map(tables.len(), threads, |i| {
            this.prepare(&tables[i].id, content_hashes[i], || {
                TableSketch::build_with_hasher(&tables[i], &hasher, max_rows)
            })
        })?;
        self.apply_prepared(prepared, &mut report)?;
        Ok(report)
    }

    /// An ingest worker's job for one source, reading the catalog only:
    /// [`Prepared::Unchanged`] when `id`'s active copy already has
    /// `content_hash`, else the record `sketch` builds, encoded.
    fn prepare(
        &self,
        id: &str,
        content_hash: u64,
        sketch: impl FnOnce() -> TableSketch,
    ) -> StoreResult<Prepared> {
        let prior = self.active_content_hash(id)?;
        if prior == Some(content_hash) {
            return Ok(Prepared::Unchanged);
        }
        let rec = Encoded::new(&TableRecord::from_sketch(sketch(), content_hash))?;
        Ok(Prepared::Changed { prior, rec })
    }

    /// Apply ingest workers' results in input order.
    fn apply_prepared(
        &mut self,
        prepared: Vec<StoreResult<Prepared>>,
        report: &mut IngestReport,
    ) -> StoreResult<()> {
        for p in prepared {
            match p? {
                Prepared::Unchanged => report.count(IngestOutcome::Unchanged),
                Prepared::Changed { prior, rec } => report.count(self.apply(rec, prior)),
                Prepared::Failed(name, err) => report.failed.push((name, err)),
            }
        }
        Ok(())
    }

    /// The catalog's shared MinHash family (a pure function of the sketch
    /// config, amortized across a whole ingest).
    fn hasher(&self) -> MinHasher {
        MinHasher::new(self.sketch_cfg.minhash_k, self.sketch_cfg.seed)
    }

    /// Make every mutation since the last commit durable, choosing where
    /// the new records' bytes land; with none, write nothing. When
    /// [`Catalog::compaction_due`] says so — the first commit of a
    /// catalog without a shard layer, or churn past a quarter of the
    /// shard residents — the commit *folds*: the batch's frames go
    /// straight from memory into new shard arenas beside the committed
    /// loose tier (see [`Catalog::compact`]), so every ingest lands in
    /// shards without anyone calling `compact`. Otherwise it is a *loose*
    /// commit, ordered for crash safety:
    ///
    /// 1. write every new record, in id order, into one new run under
    ///    `segments/` through [`durable::commit_file`], and point each
    ///    record's entry at its slot — a crash here leaves at most a run
    ///    no manifest references, which `tsfm fsck` sweeps;
    /// 2. commit the manifest atomically — the single commit point;
    /// 3. only now unlink the `segments/` files the previous manifest
    ///    referenced and this one does not (best effort — a leftover is an
    ///    orphan `tsfm fsck` sweeps, never data loss).
    ///
    /// The run's name follows from the committed state and is never one a
    /// manifest on disk may reference, so a run that is read never changes
    /// under its reader. A failed commit of either kind keeps every
    /// uncommitted record in memory, so a retry commits the same bytes.
    pub fn commit(&mut self) -> StoreResult<()> {
        // A store that was only opened and queried keeps its manifest and
        // segments, even one the folding rule would move into arenas.
        if !self.manifest_dirty {
            return Ok(());
        }
        if self.compaction_due() {
            self.compact_inner()
        } else {
            self.commit_loose()
        }
    }

    /// Fold the loose tier — committed runs, legacy segments and
    /// uncommitted records alike — and all tombstones into the shard
    /// layer now, regardless of
    /// thresholds (the `tsfm compact` verb and the monolithic→sharded
    /// migration path). The root manifest flip is the commit point for
    /// the mutations since the last commit too: a crash before it leaves
    /// the previous committed catalog.
    pub fn compact(&mut self) -> StoreResult<()> {
        self.compact_inner()
    }

    /// Whether [`Catalog::commit`] will fold into the shard layer instead
    /// of committing loose. A catalog without a shard layer folds at its
    /// first commit that changes it while it holds any table: every
    /// ingest, however small, and the first mutation of a store written
    /// before the shard layer existed. A sharded one folds once loose
    /// churn (updates + tombstones) reaches a quarter of the sharded
    /// population.
    pub fn compaction_due(&self) -> bool {
        if self.shards.is_empty() {
            return self.manifest_dirty && !self.entries.is_empty();
        }
        let sharded: u64 = self.shards.iter().flatten().map(|s| s.meta.entry_count).sum();
        (self.entries.len() + self.tombstones.len()) as u64 * 4 >= sharded.max(1)
    }

    fn commit_loose(&mut self) -> StoreResult<()> {
        if !self.manifest_dirty {
            return Ok(());
        }
        let _g = tsfm_obs::span!("catalog.commit");
        let run = if self.pending.is_empty() { None } else { Some(self.write_run()?) };
        if let Err(e) = self.write_manifest() {
            // The manifest may have landed (a failed directory sync follows
            // its rename), so the run it names keeps its name reserved.
            self.committed.extend(run);
            return Err(e);
        }
        self.manifest_dirty = false;
        self.pending.clear();
        let referenced: BTreeSet<String> =
            self.entries.values().map(|e| e.segment.clone()).collect();
        self.unlink_unreferenced(referenced);
        Ok(())
    }

    /// Write every uncommitted frame, in id order, into one new run under
    /// `segments/` and point each frame's entry at its slot; returns the
    /// run's file name. The name takes the next sequence number past every
    /// run a manifest on disk may reference, within the current shard
    /// generation, so a retry of a failed commit writes the same file with
    /// the same bytes. Leaves `pending` untouched: until the manifest
    /// commits, a failure keeps every frame for the retry.
    fn write_run(&mut self) -> StoreResult<String> {
        let _g = tsfm_obs::span!("catalog.segment.write");
        let generation =
            self.shards.iter().flatten().map(|s| s.meta.generation).max().unwrap_or(0);
        let last = self.committed.iter().filter_map(|f| run_seq(f, generation)).max();
        let seq = last.unwrap_or(0) + 1;
        let name = run_file_name(generation, seq);
        let frames: Vec<&Vec<u8>> = self.pending.values().collect();
        let bytes = shard::build_arena(seq, generation, &frames);
        durable::commit_file(&self.dir.join(SEGMENT_DIR).join(&name), &bytes)?;
        segments_written_counter().inc();
        segment_bytes_counter().add(bytes.len() as u64);
        for (slot, id) in self.pending.keys().enumerate() {
            let entry = self.entries.get_mut(id).ok_or_else(|| {
                StoreError::internal(format!("uncommitted record {id:?} has no manifest entry"))
            })?;
            entry.segment.clone_from(&name);
            entry.slot = Some(slot as u32);
        }
        Ok(name)
    }

    /// After a manifest flip: unlink every `segments/` file a manifest on
    /// disk may have referenced that the new one, naming `referenced`,
    /// does not (best effort — a leftover is an orphan `tsfm fsck`
    /// sweeps), and make `referenced` the committed set.
    fn unlink_unreferenced(&mut self, referenced: BTreeSet<String>) {
        let seg_dir = self.dir.join(SEGMENT_DIR);
        for gone in self.committed.difference(&referenced) {
            let _ = fs::remove_file(seg_dir.join(gone));
        }
        self.committed = referenced;
    }

    /// Rewrite dirty shards: fold the loose tier — committed runs, legacy
    /// segments and uncommitted frames — and tombstones into the shard
    /// layer under a fresh generation. Crash-safety ordering mirrors a
    /// loose commit:
    ///
    /// 1. new-generation arena + shard-manifest files are committed one
    ///    by one ([`durable::commit_file`] each) — a crash here leaves
    ///    orphan files the root manifest never mentions (`tsfm fsck`
    ///    sweeps them);
    /// 2. the root manifest flips to the new generation in one atomic
    ///    commit — the single commit point, for the fold and for every
    ///    mutation since the last commit;
    /// 3. only then are old-generation shard files and every `segments/`
    ///    file unlinked (best effort). Snapshots holding the old arenas
    ///    keep reading them through their open descriptors.
    ///
    /// Nothing in memory changes before the flip, so a failure anywhere
    /// earlier leaves the catalog as it was, ready for a retry that
    /// writes the same bytes. Only shards touched by churn are rewritten,
    /// unless the shard space itself changes width (then every table
    /// re-buckets). With nothing to fold it is a loose commit.
    fn compact_inner(&mut self) -> StoreResult<()> {
        if self.shards.is_empty() && self.entries.is_empty() {
            return self.commit_loose();
        }
        let _g = tsfm_obs::span!("catalog.compact");
        let space = shard::shard_count_for(self.len() as u64) as usize;
        let reshard = space != self.shards.len();
        // Which target shards must be rewritten: all of them on a
        // reshard; otherwise those hit by loose churn — plus quarantine
        // holes, rewritten (possibly empty) so the namespace heals.
        let mut dirty = vec![reshard; space];
        if !reshard {
            for id in self.entries.keys().chain(self.tombstones.iter()) {
                dirty[shard::shard_of(id, space as u32) as usize] = true;
            }
            for (i, s) in self.shards.iter().enumerate() {
                if s.is_none() {
                    dirty[i] = true;
                }
            }
        }
        if !dirty.iter().any(|&d| d) {
            return self.commit_loose();
        }
        let generation =
            self.shards.iter().flatten().map(|s| s.meta.generation).max().unwrap_or(0) + 1;

        // Gather each dirty target shard's new contents as raw TSFMSEG1
        // frame bytes: copied verbatim (CRC-verified) out of old arenas and
        // loose runs, borrowed from the uncommitted frames, or read from
        // legacy segment files — re-parsed there, so a corrupt segment
        // fails the compaction instead of poisoning a shard.
        let mut buckets: Vec<Vec<(ShardEntry, Cow<'_, [u8]>)>> = vec![Vec::new(); space];
        for slot in self.shards.iter().flatten() {
            if !reshard && !dirty[slot.meta.index as usize] {
                continue; // clean shard: carried over untouched
            }
            let m = self.slot_manifest(slot)?;
            let arena = self.slot_arena(slot)?;
            for (i, e) in m.entries.iter().enumerate() {
                if !self.shard_copy_active(&e.id) {
                    continue;
                }
                let payload = arena.read_payload(i)?;
                buckets[shard::shard_of(&e.id, space as u32) as usize]
                    .push((e.clone(), Cow::Owned(payload)));
            }
        }
        let mut runs = OpenRuns::new();
        for (id, le) in &self.entries {
            let payload = match self.pending.get(id) {
                Some(frame) => Cow::Borrowed(frame.as_slice()),
                None => Cow::Owned(self.loose_frame(id, le, &mut runs)?),
            };
            let entry = ShardEntry {
                id: id.clone(),
                content_hash: le.content_hash,
                num_rows: le.num_rows,
                num_cols: le.num_cols,
            };
            buckets[shard::shard_of(id, space as u32) as usize].push((entry, payload));
        }

        // Write every dirty shard's new generation (arena first, then its
        // manifest). Clean shards keep their slot, taken over after the
        // flip so its already-loaded manifest/arena caches survive.
        let shard_dir = self.shard_dir();
        fs::create_dir_all(&shard_dir)?;
        let mut new_shards: Vec<Option<ShardSlot>> = Vec::with_capacity(space);
        let mut metas: Vec<Option<ShardMeta>> = Vec::with_capacity(space);
        for (idx, mut bucket) in buckets.into_iter().enumerate() {
            if !dirty[idx] {
                // Same index: the space is unchanged. A hole here is
                // impossible — holes are always marked dirty.
                let Some(slot) = &self.shards[idx] else {
                    return Err(StoreError::internal("clean shard slot missing in compaction"));
                };
                metas.push(Some(slot.meta.clone()));
                new_shards.push(None);
                continue;
            }
            bucket.sort_by(|a, b| a.0.id.cmp(&b.0.id));
            let (entries, payloads): (Vec<ShardEntry>, Vec<Cow<'_, [u8]>>) =
                bucket.into_iter().unzip();
            let arena_bytes = shard::build_arena(idx as u32, generation, &payloads);
            let meta = ShardMeta {
                index: idx as u32,
                generation,
                entry_count: entries.len() as u64,
                total_rows: entries.iter().map(|e| e.num_rows).sum(),
                total_cols: entries.iter().map(|e| u64::from(e.num_cols)).sum(),
                arena_bytes: arena_bytes.len() as u64,
            };
            durable::commit_file(&shard_dir.join(meta.arena_file()), &arena_bytes)?;
            let manifest = ShardManifest {
                index: idx as u32,
                shard_count: space as u32,
                generation,
                entries,
            };
            shard::write_shard_manifest(&shard_dir.join(meta.shard_file()), &manifest)?;
            metas.push(Some(meta.clone()));
            let slot = ShardSlot::new(meta);
            let _ = slot.manifest.set(Arc::new(manifest));
            new_shards.push(Some(slot));
        }

        // Rewritten shards' old generation, collected before the flip and
        // deleted only after it, with every `segments/` file.
        let mut doomed: Vec<PathBuf> = Vec::new();
        for (idx, slot) in self.shards.iter().enumerate() {
            if let Some(slot) = slot.as_ref().filter(|_| reshard || dirty[idx]) {
                doomed.push(shard_dir.join(slot.meta.shard_file()));
                doomed.push(shard_dir.join(slot.meta.arena_file()));
            }
        }

        // The commit point: flip the root manifest to the new generation.
        write_manifest_file(
            &self.dir.join(MANIFEST_FILE),
            &self.sketch_cfg,
            &BTreeMap::new(),
            &metas,
            &BTreeSet::new(),
        )?;
        for (idx, slot) in new_shards.iter_mut().enumerate() {
            if !dirty[idx] {
                *slot = self.shards[idx].take();
            }
        }
        self.shards = new_shards;
        self.entries.clear();
        self.pending.clear();
        self.tombstones.clear();
        self.manifest_dirty = false;
        for path in doomed {
            let _ = fs::remove_file(path);
        }
        self.unlink_unreferenced(BTreeSet::new());
        // Content-preserving: the merged fingerprint is unchanged, so the
        // index cache stays valid, handed-out snapshots stay correct, and
        // neither the epoch nor the cached snapshot needs to move.
        compactions_counter().inc();
        Ok(())
    }

    /// A committed loose record's raw `TSFMSEG1` frame: a run slot by
    /// positioned, CRC-checked read (opened once per pass through `runs`),
    /// or a legacy segment file read whole, verified to decode and to match
    /// its manifest entry.
    fn loose_frame(
        &self,
        id: &str,
        le: &ManifestEntry,
        runs: &mut OpenRuns,
    ) -> StoreResult<Vec<u8>> {
        match le.slot {
            Some(slot) => self.run(&le.segment, runs)?.read_payload(slot as usize),
            None => self.legacy_segment(id, le).map(|(bytes, _)| bytes),
        }
    }

    /// A loose record, decoded: from its uncommitted frame, or from its run
    /// slot or legacy segment file, verified to match its manifest entry
    /// (a run slot by [`ArenaIndex::read_entry`]). The one read `get`,
    /// every snapshot and `fsck` take for the loose tier.
    pub(crate) fn loose_record(
        &self,
        id: &str,
        le: &ManifestEntry,
        runs: &mut OpenRuns,
    ) -> StoreResult<TableRecord> {
        if let Some(frame) = self.pending.get(id) {
            return ser::read_record(&mut frame.as_slice());
        }
        let Some(slot) = le.slot else {
            return self.legacy_segment(id, le).map(|(_, rec)| rec);
        };
        self.run(&le.segment, runs)?.read_entry(slot as usize, id, le.content_hash)
    }

    /// A legacy one-record segment file's bytes and record, verified to
    /// decode and to be the record its manifest entry names.
    fn legacy_segment(&self, id: &str, le: &ManifestEntry) -> StoreResult<(Vec<u8>, TableRecord)> {
        let path = self.dir.join(SEGMENT_DIR).join(&le.segment);
        let bytes = fs::read(&path)?;
        let mut rest = bytes.as_slice();
        let corrupt = |e: StoreError, at| durable::note_corruption(e.with_file(&path, at));
        let rec = ser::read_record(&mut rest)
            .map_err(|e| corrupt(e, (bytes.len() - rest.len()) as u64))?;
        if rec.content_hash != le.content_hash || rec.table_id() != id {
            let detail = format!("segment {} does not match manifest entry for {id:?}", le.segment);
            return Err(corrupt(StoreError::corrupt("TSFMSEG1", detail), 0));
        }
        Ok((bytes, rec))
    }

    /// The loose run `name`, opened at most once per read pass.
    fn run<'r>(&self, name: &str, runs: &'r mut OpenRuns) -> StoreResult<&'r ArenaIndex> {
        match runs.entry(name.to_string()) {
            Entry::Occupied(open) => Ok(open.into_mut()),
            Entry::Vacant(slot) => {
                Ok(slot.insert(ArenaIndex::open_run(&self.dir.join(SEGMENT_DIR).join(name))?))
            }
        }
    }

    pub fn stats(&self) -> CatalogStats {
        let files: BTreeSet<&str> = self
            .entries
            .iter()
            .filter(|(id, _)| !self.pending.contains_key(*id))
            .map(|(_, e)| e.segment.as_str())
            .collect();
        let mut segment_bytes: u64 = self.pending.values().map(|f| f.len() as u64).sum();
        segment_bytes += files
            .into_iter()
            .filter_map(|f| fs::metadata(self.dir.join(SEGMENT_DIR).join(f)).ok())
            .map(|m| m.len())
            .sum::<u64>();
        let mut columns: u64 = self.entries.values().map(|e| u64::from(e.num_cols)).sum();
        let mut rows: u64 = self.entries.values().map(|e| e.num_rows).sum();
        for slot in self.shards.iter().flatten() {
            columns += slot.meta.total_cols;
            rows += slot.meta.total_rows;
            segment_bytes += slot.meta.arena_bytes;
        }
        // Tombstoned shard entries still occupy arena bytes but are not
        // active rows/columns. Stats stay best-effort (infallible): an
        // unreadable shard manifest just leaves its aggregates in.
        for id in &self.tombstones {
            if let Some(slot) = self.shard_slot(id) {
                if let Ok(m) = self.slot_manifest(slot) {
                    if let Some(i) = m.find(id) {
                        rows = rows.saturating_sub(m.entries[i].num_rows);
                        columns = columns.saturating_sub(u64::from(m.entries[i].num_cols));
                    }
                }
            }
        }
        CatalogStats {
            tables: self.len(),
            columns,
            rows,
            segment_bytes,
            minhash_k: self.sketch_cfg.minhash_k,
            index_cached: self.cached_index_valid(),
            shards: self.shards.len(),
        }
    }

    /// An immutable, `Send + Sync` read snapshot of the current contents:
    /// the query path. The first call after any mutation (or a cold open)
    /// finds the engine as the module docs describe — reused, loaded from
    /// the on-disk cache, updated from the previous engine, or built —
    /// and the result is cached until the next mutation, so repeated
    /// calls are two `Arc` clones.
    pub fn searcher(&mut self) -> StoreResult<Searcher> {
        if let Some(s) = &self.snapshot {
            return Ok(s.clone());
        }
        let lazy = match self.snapshot_mode {
            SnapshotMode::Eager => false,
            SnapshotMode::Lazy => true,
            SnapshotMode::Auto => !self.shards.is_empty() && self.len() >= AUTO_LAZY_MIN_TABLES,
        };
        let (engine, sketches) = {
            let _t = snapshot_build_histogram().time("catalog.snapshot");
            self.index_engine(lazy)?
        };
        let snapshot = if lazy {
            let mut lazy_shards = Vec::with_capacity(self.shards.len());
            for slot in &self.shards {
                lazy_shards.push(match slot {
                    Some(s) => {
                        let manifest = self.slot_manifest(s)?;
                        let live = self.live_slots(&manifest);
                        Some(shard::LazyShard { arena: self.slot_arena(s)?, manifest, live })
                    }
                    None => None,
                });
            }
            // Collected for this snapshot alone: the one reference.
            let loose = Arc::try_unwrap(sketches).unwrap_or_else(|shared| shared.to_vec());
            let corpus = shard::LazyCorpus::new(
                self.shards.len() as u32,
                lazy_shards,
                loose,
                shard::SKETCH_CACHE_CAP,
            );
            Searcher::lazy(engine, Arc::new(corpus), self.sketch_cfg.clone(), self.epoch)
        } else {
            Searcher::eager(engine, sketches, self.sketch_cfg.clone(), self.epoch)
        };
        self.snapshot = Some(snapshot.clone());
        Ok(snapshot)
    }

    /// The engine for the current contents (module docs, paths 1–4),
    /// recorded as the new base, and the snapshot's in-memory sketches, in
    /// ascending-id order — exactly the engine's canonical order, so they
    /// double as the searcher's id-addressable corpus. A `lazy` snapshot
    /// holds the loose tier's only (its shard-resident sketches are
    /// re-loaded on demand by positioned arena read). An eager one holds
    /// all of them: those of the base's eager corpus carried forward, with
    /// only the changed and added records read, or, without such a base,
    /// every record loaded. Records are read after a cache load has
    /// released the file's bytes, so the two never peak together.
    fn index_engine(&mut self, lazy: bool) -> StoreResult<(Arc<QueryEngine>, Corpus)> {
        let (fp, hashes, churn) = self.with_active_pairs(|pairs| {
            let fp = fingerprint_pairs(&self.sketch_cfg, pairs.iter().copied());
            let churn = self
                .base
                .as_ref()
                .filter(|b| b.fingerprint != fp)
                .map(|b| churn_since(b.engine.table_ids(), &b.hashes, pairs));
            (fp, pairs.iter().map(|&(_, h)| h).collect::<Vec<u64>>(), churn)
        })?;
        let reused =
            self.base.as_ref().filter(|b| b.fingerprint == fp).map(|b| Arc::clone(&b.engine));
        let cached = if reused.is_none() { self.load_index_cache(fp) } else { None };
        let carried = self.base.as_ref().and_then(|b| b.corpus.clone()).filter(|_| !lazy);
        // `all`: `records` is every active record, not a part of them.
        let (mut records, mut all) = if lazy {
            (self.load_loose_records()?, false)
        } else if carried.is_some() {
            (self.records_of(churn.iter().flat_map(|(_, upserts)| upserts))?, false)
        } else {
            (self.load_all_records()?, true)
        };
        let engine = if let Some(engine) = reused {
            engine
        } else {
            let engine = if let Some(e) = cached {
                index_cache_hits_counter().inc();
                e
            } else {
                let e = match self.update_base(churn.as_ref(), &records)? {
                    Some(e) => e,
                    None if all => self.rebuild_engine(&records),
                    None => {
                        let every = self.load_all_records()?;
                        let e = self.rebuild_engine(&every);
                        if !lazy {
                            (records, all) = (every, true);
                        }
                        e
                    }
                };
                // The cache is an optimization: a read-only or full
                // filesystem must not make an in-memory engine unqueryable.
                // But every cold open rebuilds until a write succeeds, so a
                // failure is counted.
                if self.write_index_cache(&e, fp).is_err() {
                    index_cache_write_failures_counter().inc();
                }
                e
            };
            dead_columns_gauge().set(engine.dead_columns() as i64);
            index_bytes_gauge().set(engine.index_bytes() as i64);
            Arc::new(engine)
        };
        let sketches = match (carried.filter(|_| !all), &churn, &self.base) {
            (Some(prev), None, _) => prev,
            (Some(prev), Some((removed, _)), Some(base)) => {
                Arc::new(carry_forward(base.engine.table_ids(), &prev, removed, records))
            }
            _ => Arc::new(records.into_iter().map(|r| Arc::new(r.sketch)).collect()),
        };
        self.base = Some(IndexBase {
            engine: Arc::clone(&engine),
            fingerprint: fp,
            hashes,
            corpus: (!lazy).then(|| Arc::clone(&sketches)),
        });
        Ok((engine, sketches))
    }

    /// The base engine updated by `churn` (removed ids, changed-or-added
    /// ids), reading only the changed and added records — from `loaded`
    /// where they are, else from their tier. `None` without a base, or
    /// when [`QueryEngine::update`] declines.
    fn update_base(
        &self,
        churn: Option<&(Vec<String>, Vec<String>)>,
        loaded: &[TableRecord],
    ) -> StoreResult<Option<QueryEngine>> {
        let (Some(base), Some((removed, upserts))) = (&self.base, churn) else {
            return Ok(None);
        };
        let fetched: Vec<TableRecord>;
        let exact = loaded.iter().map(TableRecord::table_id).eq(upserts.iter().map(String::as_str));
        let upserts = if exact {
            loaded
        } else {
            fetched = upserts
                .iter()
                .map(|id| match loaded.binary_search_by(|r| r.table_id().cmp(id)) {
                    Ok(i) => Ok(loaded[i].clone()),
                    Err(_) => self.record(id),
                })
                .collect::<StoreResult<Vec<_>>>()?;
            &fetched
        };
        let timer = index_update_histogram().time("engine.update");
        let updated = base.engine.update(removed, upserts);
        if updated.is_some() {
            index_updates_counter().inc();
        } else {
            timer.discard();
        }
        Ok(updated)
    }

    /// The engine persisted in `index.cache`, if it indexes exactly the
    /// contents fingerprinted `fp`. The fingerprint is peeked first: a
    /// readable header naming other contents skips the full read and its
    /// checksum pass. Anything else — a match, a missing file, an
    /// unreadable header — takes [`read_index_engine`], the check fsck
    /// reports by, which has already counted a corrupt cache in
    /// `tsfm_store_corruptions_detected_total` when it fails (the failure
    /// itself is swallowed: a rebuild answers the query). A cache without
    /// the engine-meta section is a miss.
    fn load_index_cache(&self, fp: u64) -> Option<QueryEngine> {
        let path = self.dir.join(INDEX_FILE);
        if peek_index_fingerprint(&path).is_some_and(|on_disk| on_disk != fp) {
            return None;
        }
        let _t = index_cache_load_histogram().time("catalog.index_cache.load");
        match read_index_engine(&path, self.sketch_cfg.minhash_k) {
            Ok((cached_fp, engine)) if cached_fp == fp => engine,
            _ => None,
        }
    }

    /// Choose how future snapshots materialize the corpus (see
    /// [`SnapshotMode`]). Drops the cached snapshot — contents are
    /// unchanged, so the epoch does not move — and the next
    /// [`Catalog::searcher`] call rebuilds in the new mode. Snapshots
    /// already handed out are unaffected.
    pub fn set_snapshot_mode(&mut self, mode: SnapshotMode) {
        if self.snapshot_mode != mode {
            self.snapshot_mode = mode;
            self.snapshot = None;
        }
    }

    /// The query engine over the current contents, building (or loading
    /// from the index cache) on first use after a mutation. Prefer
    /// [`Catalog::searcher`], which hands out an owned shareable snapshot.
    pub fn engine(&mut self) -> StoreResult<&QueryEngine> {
        self.searcher()?;
        self.snapshot
            .as_ref()
            .map(Searcher::engine)
            .ok_or_else(|| StoreError::internal("snapshot missing right after build"))
    }

    /// Load only the loose tier's records (ascending id order) — the part
    /// of the corpus with no arena home. The lazy-open fast path builds
    /// its in-memory corpus from exactly this.
    fn load_loose_records(&self) -> StoreResult<Vec<TableRecord>> {
        let mut runs = OpenRuns::new();
        self.entries.iter().map(|(id, e)| self.loose_record(id, e, &mut runs)).collect()
    }

    /// Load every active record (ascending id order), across both tiers.
    pub fn load_all_records(&self) -> StoreResult<Vec<TableRecord>> {
        let _t = load_records_histogram().time("catalog.load_records");
        let mut out = self.load_loose_records()?;
        out.reserve(self.len().saturating_sub(out.len()));
        for slot in self.shards.iter().flatten() {
            let m = self.slot_manifest(slot)?;
            let arena = self.slot_arena(slot)?;
            // Slot `i` pairs with entry `i`; both counts were checked
            // against the root manifest when the two were opened.
            let live = |i: usize| m.entries.get(i).is_some_and(|e| self.shard_copy_active(&e.id));
            arena.read_records(live, |i, rec| {
                let e = &m.entries[i];
                out.push(arena.check_entry(i, &e.id, e.content_hash, rec)?);
                Ok(())
            })?;
        }
        out.sort_by(|a, b| a.table_id().cmp(b.table_id()));
        Ok(out)
    }

    fn invalidate(&mut self) {
        self.snapshot = None;
        self.epoch += 1;
        self.manifest_dirty = true;
    }

    /// Fingerprint of the catalog contents + sketch config; the index
    /// cache is valid only while this matches. Computed over the merged
    /// *active* `(id, content_hash)` set in ascending id order, whichever
    /// tier holds each table — so a compaction (which moves tables
    /// between tiers without changing contents) leaves it unchanged and
    /// the index cache stays warm across it.
    pub(crate) fn fingerprint(&self) -> StoreResult<u64> {
        self.with_active_pairs(|pairs| fingerprint_pairs(&self.sketch_cfg, pairs.iter().copied()))
    }

    /// Hand `f` the merged active `(id, content_hash)` set in ascending id
    /// order, whichever tier holds each table.
    fn with_active_pairs<R>(&self, f: impl FnOnce(&[(&str, u64)]) -> R) -> StoreResult<R> {
        let mut shard_manifests = Vec::with_capacity(self.shards.len());
        for slot in self.shards.iter().flatten() {
            shard_manifests.push(self.slot_manifest(slot)?);
        }
        let mut pairs: Vec<(&str, u64)> =
            self.entries.iter().map(|(id, e)| (id.as_str(), e.content_hash)).collect();
        for m in &shard_manifests {
            let active = m.entries.iter().filter(|e| self.shard_copy_active(&e.id));
            pairs.extend(active.map(|e| (e.id.as_str(), e.content_hash)));
        }
        pairs.sort_unstable();
        Ok(f(&pairs))
    }

    fn cached_index_valid(&self) -> bool {
        match (peek_index_fingerprint(&self.dir.join(INDEX_FILE)), self.fingerprint()) {
            (Some(on_disk), Ok(want)) => on_disk == want,
            _ => false,
        }
    }


    /// Build the engine from all live records — the path taken when no
    /// usable cache or base exists, or an update would leave too much of
    /// the graph dead.
    fn rebuild_engine(&self, records: &[TableRecord]) -> QueryEngine {
        index_rebuilds_counter().inc();
        let _t = index_build_histogram().time("engine.build");
        QueryEngine::build(records, self.sketch_cfg.minhash_k, self.hnsw_cfg.clone())
    }

    fn write_index_cache(&self, engine: &QueryEngine, fp: u64) -> StoreResult<()> {
        let _t = index_cache_write_histogram().time("catalog.index_cache.write");
        let (join, union) = (engine.join_index(), engine.union_index());
        let len = ser::FRAME_HEADER_LEN
            + 8
            + ser::hnsw_frame_len(join)
            + ser::hnsw_frame_len(union)
            + engine_meta_len(engine);
        let mut file = Vec::with_capacity(len);
        ser::write_framed_nesting(&mut file, INDEX_MAGIC, |p| {
            ser::write_u64(p.buf(), fp)?;
            p.nested(|w| ser::write_hnsw(w, join))?;
            p.nested(|w| ser::write_hnsw(w, union))?;
            write_engine_meta(p.buf(), engine)
        })?;
        debug_assert_eq!(file.len(), len, "index.cache sized exactly");
        durable::commit_file(&self.dir.join(INDEX_FILE), &file)
    }

    /// Drop loose `tables` and whole `shards` — each leaves a hole in the
    /// shard space, healed by the next compaction — and durably commit the
    /// pruned manifest: what `fsck --repair` keeps of a damaged store.
    pub(crate) fn drop_damaged(&mut self, tables: &[String], shards: &[u32]) -> StoreResult<()> {
        for id in tables {
            self.entries.remove(id);
        }
        for &i in shards {
            self.shards[i as usize] = None;
        }
        self.prune_tombstones();
        self.write_manifest()
    }

    fn write_manifest(&self) -> StoreResult<()> {
        let metas: Vec<Option<ShardMeta>> =
            self.shards.iter().map(|s| s.as_ref().map(|s| s.meta.clone())).collect();
        write_manifest_file(
            &self.dir.join(MANIFEST_FILE),
            &self.sketch_cfg,
            &self.entries,
            &metas,
            &self.tombstones,
        )
    }
}

/// What changed between an engine's tables — `ids` with their content
/// `hashes` — and the active `(id, content_hash)` pairs, both ascending
/// by id: the ids gone from the catalog, and the ids whose record is new
/// or replaced (each list ascending).
fn churn_since(
    ids: &[String],
    hashes: &[u64],
    active: &[(&str, u64)],
) -> (Vec<String>, Vec<String>) {
    let (mut removed, mut upserts) = (Vec::new(), Vec::new());
    let mut old = ids.iter().zip(hashes).peekable();
    for &(id, hash) in active {
        while let Some((gone, _)) = old.next_if(|(o, _)| o.as_str() < id) {
            removed.push(gone.clone());
        }
        if !matches!(old.next_if(|(o, _)| o.as_str() == id), Some((_, &h)) if h == hash) {
            upserts.push(id.to_string());
        }
    }
    removed.extend(old.map(|(gone, _)| gone.clone()));
    (removed, upserts)
}

/// An eager corpus carried across churn: `prev` — the sketches of `ids`,
/// both ascending — without the `removed` tables, with the sketches of
/// `upserts` (ascending by id) replacing or joining theirs. Every other
/// table keeps its `Arc`.
fn carry_forward(
    ids: &[String],
    prev: &[Arc<TableSketch>],
    removed: &[String],
    upserts: Vec<TableRecord>,
) -> Vec<Arc<TableSketch>> {
    let mut fresh = upserts.into_iter().map(|r| Arc::new(r.sketch)).peekable();
    let mut out = Vec::with_capacity(prev.len() + fresh.len());
    for (id, sketch) in ids.iter().zip(prev) {
        while let Some(s) = fresh.next_if(|s| s.table_id < *id) {
            out.push(s);
        }
        match fresh.next_if(|s| s.table_id == *id) {
            Some(replaced) => out.push(replaced),
            None if removed.binary_search(id).is_err() => out.push(Arc::clone(sketch)),
            None => {}
        }
    }
    out.extend(fresh);
    out
}

/// The fingerprint chain over ascending-id `(id, content_hash)` pairs of
/// the contents + sketch config — what the index cache is keyed on.
/// Tier-agnostic, so a loose-only catalog and its compacted twin agree.
fn fingerprint_pairs<'a>(
    cfg: &SketchConfig,
    pairs: impl Iterator<Item = (&'a str, u64)>,
) -> u64 {
    let mut acc = splitmix64(cfg.minhash_k as u64 ^ cfg.seed);
    acc = splitmix64(acc ^ cfg.max_rows as u64);
    for (id, content_hash) in pairs {
        acc = splitmix64(acc ^ hash_str(id));
        acc = splitmix64(acc ^ content_hash);
    }
    acc
}

/// Read just the fingerprint out of an index cache file — header +
/// 8 bytes, **without** checksum verification (used by `stats`, where
/// reading whole graphs to answer a validity bit would defeat the
/// cache). `None` for a missing, unreadable, or visibly corrupt header.
pub(crate) fn peek_index_fingerprint(path: &Path) -> Option<u64> {
    let head = durable::read_prefix(path, ser::FRAME_HEADER_LEN as u64 + 8).ok()?;
    let mut s = head.as_slice();
    ser::read_frame_header(&mut s, INDEX_MAGIC, "TSFM index cache").ok()?;
    ser::read_u64(&mut s).ok()
}

/// What an index cache file holds: fingerprint, join and union graphs,
/// and the engine-meta section when present.
type IndexCacheParts = (u64, Hnsw, Hnsw, Option<Vec<SpanMeta>>);

/// Read and fully verify an index cache file: fingerprint, the join and
/// union HNSW graphs, and — when present — the trailing engine-meta
/// section (`None` for caches written before it existed, which the
/// catalog treats as a miss). Corruption comes back as a typed
/// [`StoreError::Corrupt`] naming the file and offset. Public so the
/// corruption tests can drive verification directly.
pub fn read_index_cache(path: &Path) -> StoreResult<IndexCacheParts> {
    durable::read_file_checked(path, |s| {
        let res = match ser::read_frame(s, INDEX_MAGIC, "TSFM index cache") {
            Ok(ser::Frame::Legacy) => {
                // v1 caches predate the meta section.
                let fp = ser::read_u64(s)?;
                let join = ser::read_hnsw(s)?;
                let union = ser::read_hnsw(s)?;
                Ok((fp, join, union, None))
            }
            Ok(ser::Frame::Payload(body)) => ser::parse_framed(body, |s| {
                let fp = ser::read_u64(s)?;
                let join = ser::read_hnsw(s)?;
                let union = ser::read_hnsw(s)?;
                let meta = if s.is_empty() { None } else { Some(read_engine_meta(s)?) };
                Ok((fp, join, union, meta))
            }),
            Err(e) => Err(e),
        };
        res.map_err(|e| e.into_format("TSFMIDX1"))
    })
}

/// The one definition of a valid index cache, which the catalog serves
/// from and `fsck` reports by: the file reads and verifies
/// ([`read_index_cache`]) and [`QueryEngine::from_meta`] accepts its
/// engine-meta section. Returns the fingerprint the cache was written for
/// and the reassembled engine (`None` for a cache without the section).
/// A section `from_meta` rejects is a typed [`StoreError::Corrupt`] like a
/// bad checksum: stamped with the file (at its end: every byte was
/// decoded), counted in `tsfm_store_corruptions_detected_total`. The
/// engine is assembled after the file's bytes are released, so the two
/// never peak together.
pub(crate) fn read_index_engine(
    path: &Path,
    minhash_k: usize,
) -> StoreResult<(u64, Option<QueryEngine>)> {
    let (fp, join, union, meta) = read_index_cache(path)?;
    let Some(meta) = meta else { return Ok((fp, None)) };
    let engine = QueryEngine::from_meta(meta, minhash_k, join, union).map_err(|e| {
        let end = fs::metadata(path).map_or(0, |m| m.len());
        durable::note_corruption(e.into_format("TSFMIDX1").with_file(path, end))
    })?;
    Ok((fp, Some(engine)))
}

/// Tags opening the index cache's trailing engine-meta section. Tag 1: a
/// canonical engine's tables in id order (what a fresh build writes, byte
/// for byte what every earlier release wrote). Tag 2: every span in node
/// order, each led by a live byte (1 live, 0 dead; a dead span's id is
/// empty) — what an updated engine writes.
const META_CANONICAL: u8 = 1;
const META_SPANS: u8 = 2;

/// Append the engine-meta section: per span, what
/// [`QueryEngine::from_meta`] needs to reassemble the engine without
/// records, streamed from the engine's own state. Presence is signalled
/// purely by trailing bytes — a cache without it still parses.
fn write_engine_meta(w: &mut Vec<u8>, engine: &QueryEngine) -> StoreResult<()> {
    let canonical = engine.is_canonical();
    ser::write_u8(w, if canonical { META_CANONICAL } else { META_SPANS })?;
    ser::write_u64(w, engine.spans().len() as u64)?;
    for (id, snapshot, names) in engine.spans() {
        if !canonical {
            ser::write_u8(w, u8::from(id.is_some()))?;
        }
        ser::write_str(w, id.unwrap_or_default())?;
        ser::write_minhash(w, snapshot)?;
        ser::write_u32(w, names.len() as u32)?;
        for name in names {
            ser::write_str(w, name)?;
        }
    }
    Ok(())
}

/// The bytes [`write_engine_meta`] appends for `engine`.
fn engine_meta_len(engine: &QueryEngine) -> usize {
    let live_byte = usize::from(!engine.is_canonical());
    let spans: usize = engine
        .spans()
        .map(|(id, snapshot, names)| {
            let names: usize = names.iter().map(|n| 4 + n.len()).sum();
            live_byte + 4 + id.unwrap_or_default().len() + 4 + 8 * snapshot.sig.len() + 4 + names
        })
        .sum();
    1 + 8 + spans
}

fn read_engine_meta(s: &mut &[u8]) -> StoreResult<Vec<SpanMeta>> {
    let tag = ser::read_u8(s)?;
    if tag != META_CANONICAL && tag != META_SPANS {
        return Err(ser::bad(format!("unknown engine-meta section tag {tag}")));
    }
    let n = ser::read_u64(s)?;
    // The payload CRC has already been verified, so `n` is what the
    // writer put there — but bound it anyway (and grow the vec
    // geometrically rather than trusting it for one big allocation).
    if n > (1 << 40) {
        return Err(ser::bad(format!("unreasonable engine-meta span count {n}")));
    }
    let mut out = Vec::new();
    for _ in 0..n {
        let live = match tag {
            META_CANONICAL => true,
            _ => match ser::read_u8(s)? {
                0 => false,
                1 => true,
                b => return Err(ser::bad(format!("engine-meta live byte {b}"))),
            },
        };
        let table_id = ser::read_str(s)?;
        let content_snapshot = ser::read_minhash(s)?;
        let ncols = ser::read_u32(s)?;
        let mut column_names = Vec::new();
        for _ in 0..ncols {
            column_names.push(ser::read_str(s)?);
        }
        out.push(SpanMeta { table_id: live.then_some(table_id), content_snapshot, column_names });
    }
    Ok(out)
}

/// Serialize and durably commit a manifest.
///
/// The shard section (space width, present shard metas, tombstones)
/// trails the loose entries and is written only when a shard layer
/// exists — a loose-only catalog's manifest stays byte-identical to
/// every pre-shard release, so old fixtures (and their index-cache
/// fingerprints) remain valid.
fn write_manifest_file(
    path: &Path,
    cfg: &SketchConfig,
    entries: &BTreeMap<String, ManifestEntry>,
    shards: &[Option<ShardMeta>],
    tombstones: &BTreeSet<String>,
) -> StoreResult<()> {
    let mut file = Vec::new();
    ser::write_framed(&mut file, MANIFEST_MAGIC, |w| {
        ser::write_u32(w, cfg.minhash_k as u32)?;
        ser::write_u64(w, cfg.max_rows as u64)?;
        ser::write_u64(w, cfg.seed)?;
        ser::write_u32(w, entries.len() as u32)?;
        for (id, e) in entries {
            ser::write_str(w, id)?;
            match e.slot {
                Some(slot) => ser::write_str(w, &format!("{}#{slot}", e.segment))?,
                None => ser::write_str(w, &e.segment)?,
            }
            ser::write_u64(w, e.content_hash)?;
            ser::write_u64(w, e.num_rows)?;
            ser::write_u32(w, e.num_cols)?;
        }
        if !shards.is_empty() {
            ser::write_u32(w, shards.len() as u32)?;
            let present: Vec<&ShardMeta> = shards.iter().flatten().collect();
            ser::write_u32(w, present.len() as u32)?;
            for m in present {
                ser::write_u32(w, m.index)?;
                ser::write_u64(w, m.generation)?;
                ser::write_u64(w, m.entry_count)?;
                ser::write_u64(w, m.total_rows)?;
                ser::write_u64(w, m.total_cols)?;
                ser::write_u64(w, m.arena_bytes)?;
            }
            ser::write_u32(w, tombstones.len() as u32)?;
            for id in tombstones {
                ser::write_str(w, id)?;
            }
        }
        Ok(())
    })?;
    durable::commit_file(path, &file)
}

impl Drop for Catalog {
    fn drop(&mut self) {
        // Best-effort durability for callers that forget to commit.
        let _ = self.commit();
    }
}

type ManifestContents =
    (SketchConfig, BTreeMap<String, ManifestEntry>, Vec<Option<ShardMeta>>, BTreeSet<String>);

fn read_manifest(path: &Path) -> StoreResult<ManifestContents> {
    durable::read_file_checked(path, |r| {
        let res = match ser::read_frame(r, MANIFEST_MAGIC, "TSFM catalog manifest") {
            // v1 manifests predate the shard layer.
            Ok(ser::Frame::Legacy) => {
                let (cfg, entries) = read_manifest_body(r)?;
                Ok((cfg, entries, Vec::new(), BTreeSet::new()))
            }
            Ok(ser::Frame::Payload(body)) => ser::parse_framed(body, |s| {
                let (cfg, entries) = read_manifest_body(s)?;
                // The shard section is optional: absent means loose-only
                // (and `parse_framed` still rejects trailing garbage).
                let (metas, tombstones) =
                    if s.is_empty() { (Vec::new(), BTreeSet::new()) } else { read_shard_section(s)? };
                Ok((cfg, entries, metas, tombstones))
            }),
            Err(e) => Err(e),
        };
        res.map_err(|e| e.into_format("TSFMCAT1"))
    })
}

fn read_shard_section(
    r: &mut &[u8],
) -> StoreResult<(Vec<Option<ShardMeta>>, BTreeSet<String>)> {
    let space = ser::read_u32(r)? as usize;
    if space == 0 || space as u64 > shard::MAX_SHARDS || !space.is_power_of_two() {
        return Err(StoreError::corrupt("TSFMCAT1", format!("implausible shard space {space}")));
    }
    let present = ser::read_u32(r)? as usize;
    if present > space {
        return Err(StoreError::corrupt(
            "TSFMCAT1",
            format!("{present} shards present in a space of {space}"),
        ));
    }
    let mut metas: Vec<Option<ShardMeta>> = vec![None; space];
    for _ in 0..present {
        let index = ser::read_u32(r)?;
        if index as usize >= space || metas[index as usize].is_some() {
            return Err(StoreError::corrupt(
                "TSFMCAT1",
                format!("shard index {index} out of range or duplicated (space {space})"),
            ));
        }
        metas[index as usize] = Some(ShardMeta {
            index,
            generation: ser::read_u64(r)?,
            entry_count: ser::read_u64(r)?,
            total_rows: ser::read_u64(r)?,
            total_cols: ser::read_u64(r)?,
            arena_bytes: ser::read_u64(r)?,
        });
    }
    let tomb_count = ser::read_u32(r)? as usize;
    if tomb_count > 1 << 24 {
        return Err(StoreError::corrupt(
            "TSFMCAT1",
            format!("unreasonable tombstone count {tomb_count}"),
        ));
    }
    let mut tombstones = BTreeSet::new();
    for _ in 0..tomb_count {
        tombstones.insert(ser::read_str(r)?);
    }
    Ok((metas, tombstones))
}

fn read_manifest_body(
    r: &mut &[u8],
) -> StoreResult<(SketchConfig, BTreeMap<String, ManifestEntry>)> {
    let cfg = SketchConfig {
        minhash_k: ser::read_u32(r)? as usize,
        max_rows: ser::read_u64(r)? as usize,
        seed: ser::read_u64(r)?,
    };
    let count = ser::read_u32(r)? as usize;
    if count > 1 << 24 {
        return Err(StoreError::corrupt("TSFMCAT1", format!("unreasonable table count {count}")));
    }
    let mut entries = BTreeMap::new();
    for _ in 0..count {
        let id = ser::read_str(r)?;
        // A run entry's location is `<run>#<slot>`; a legacy segment's is
        // its file name.
        let location = ser::read_str(r)?;
        let parsed = match location.split_once('#') {
            Some((run, slot)) => slot.parse::<u32>().ok().map(|slot| (run, Some(slot))),
            None => Some((location.as_str(), None)),
        };
        let Some((segment, slot)) =
            parsed.filter(|(f, _)| !f.is_empty() && !f.contains('/') && !f.contains(".."))
        else {
            return Err(StoreError::corrupt(
                "TSFMCAT1",
                format!("suspicious segment location {location:?}"),
            ));
        };
        let entry = ManifestEntry {
            slot,
            segment: segment.to_string(),
            content_hash: ser::read_u64(r)?,
            num_rows: ser::read_u64(r)?,
            num_cols: ser::read_u32(r)?,
        };
        entries.insert(id, entry);
    }
    Ok((cfg, entries))
}

/// A loose run's file name under `segments/`: the shard generation it was
/// written under and its sequence number within that generation.
fn run_file_name(generation: u64, seq: u32) -> String {
    format!("run-{generation:08x}-{seq:08x}.arena")
}

/// The `(generation, seq)` a run's file name encodes.
pub(crate) fn run_name_parts(name: &str) -> Option<(u64, u32)> {
    let (generation, seq) = name.strip_prefix("run-")?.strip_suffix(".arena")?.split_once('-')?;
    Some((u64::from_str_radix(generation, 16).ok()?, u32::from_str_radix(seq, 16).ok()?))
}

/// The sequence number of `name` if it is a run written under `generation`.
fn run_seq(name: &str, generation: u64) -> Option<u32> {
    run_name_parts(name).filter(|&(g, _)| g == generation).map(|(_, seq)| seq)
}

/// Loose runs opened during one read pass, by file name.
pub(crate) type OpenRuns = BTreeMap<String, ArenaIndex>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryMode;
    use crate::request::DiscoveryRequest;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tsfm_table::{Column, Value};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("tsfm_store_{tag}_{}_{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn table(id: &str, vals: &[i64]) -> Table {
        let mut t = Table::new(id, id);
        t.push_column(Column::new("v", vals.iter().map(|&v| Value::Int(v)).collect()));
        t
    }

    fn join_req(k: usize) -> DiscoveryRequest {
        DiscoveryRequest::builder(QueryMode::Join).k(k).build().unwrap()
    }

    #[test]
    fn open_add_reopen_get() {
        let dir = tmp_dir("reopen");
        {
            let mut cat = Catalog::open(&dir).unwrap();
            assert_eq!(cat.add_table(&table("t1", &[1, 2, 3]), 99).unwrap(), IngestOutcome::Added);
            cat.commit().unwrap();
        }
        let cat = Catalog::open(&dir).unwrap();
        assert_eq!(cat.len(), 1);
        let rec = cat.get("t1").unwrap().expect("persisted");
        assert_eq!(rec.content_hash, 99);
        assert_eq!(rec.sketch.columns.len(), 1);
        assert!(cat.get("missing").unwrap().is_none());
        assert!(matches!(cat.record("missing"), Err(StoreError::UnknownTable(id)) if id == "missing"));
    }

    #[test]
    fn index_build_histogram_registers_at_open_and_records_rebuilds() {
        let dir = tmp_dir("index_build_us");
        let mut cat = Catalog::open(&dir).unwrap();
        assert!(
            obs().names().iter().any(|n| n == "tsfm_catalog_index_build_us"),
            "exported before the first rebuild"
        );
        // The registry is process-wide and tests run in parallel: only
        // growth is attributable.
        let before = index_build_histogram().count();
        cat.add_table(&table("t", &[1, 2, 3]), 1).unwrap();
        cat.commit().unwrap();
        cat.searcher().unwrap();
        assert!(index_build_histogram().count() > before, "a rebuild records its build time");
    }

    /// The index-size gauge is exported from open on and set when a
    /// snapshot installs its engine.
    #[test]
    fn index_bytes_gauge_registers_at_open_and_is_set_by_a_snapshot() {
        let dir = tmp_dir("index_bytes");
        let mut cat = Catalog::open(&dir).unwrap();
        assert!(obs().names().iter().any(|n| n == "tsfm_engine_index_bytes"), "exported at open");
        cat.add_table(&table("t", &[1, 2, 3]), 1).unwrap();
        cat.commit().unwrap();
        let engine_bytes = cat.searcher().unwrap().engine().index_bytes();
        assert!(engine_bytes > 0);
        // Process-wide and tests run in parallel: another catalog may
        // have set it since, but never to zero.
        assert!(index_bytes_gauge().get() > 0);
    }

    /// The three histograms that say where a restart's time goes are
    /// exported from open on, and a build (cache write, record load) and a
    /// cold reopen (cache load) each record into theirs.
    #[test]
    fn restart_histograms_register_at_open_and_record() {
        let dir = tmp_dir("restart_us");
        let mut cat = Catalog::open(&dir).unwrap();
        let names = obs().names();
        for name in [
            "tsfm_catalog_index_cache_load_us",
            "tsfm_catalog_index_cache_write_us",
            "tsfm_catalog_load_records_us",
        ] {
            assert!(names.iter().any(|n| n == name), "{name} exported at open");
        }
        let counts = || {
            [index_cache_load_histogram(), index_cache_write_histogram(), load_records_histogram()]
                .map(|h| h.count())
        };
        let [load0, write0, records0] = counts();
        cat.add_table(&table("t", &[1, 2, 3]), 1).unwrap();
        cat.commit().unwrap();
        cat.searcher().unwrap();
        let [_, write1, records1] = counts();
        assert!(write1 > write0 && records1 > records0, "a build writes the cache, loads records");
        drop(cat);
        let mut cat = Catalog::open(&dir).unwrap();
        cat.searcher().unwrap();
        assert!(counts()[0] > load0, "a cold reopen loads the cache");
    }

    /// Fold `n` filler tables into the shard layer — a catalog's first
    /// commit always folds — so that a later commit of fewer than `n / 4`
    /// changes stays loose and writes a run.
    fn folded_baseline(cat: &mut Catalog, n: i64) {
        for i in 0..n {
            cat.add_table(&table(&format!("base{i}"), &[i, i + 7]), 1000 + i as u64).unwrap();
        }
        cat.commit().unwrap();
        assert_eq!(cat.shard_count(), 1, "a first commit folds");
        assert_eq!(segment_files(&cat.dir), 0);
    }

    #[test]
    fn unchanged_content_is_noop_changed_is_update() {
        let dir = tmp_dir("incr");
        let mut cat = Catalog::open(&dir).unwrap();
        folded_baseline(&mut cat, 8);
        assert_eq!(cat.add_table(&table("t", &[1]), 5).unwrap(), IngestOutcome::Added);
        assert_eq!(cat.add_table(&table("t", &[1]), 5).unwrap(), IngestOutcome::Unchanged);
        assert_eq!(cat.add_table(&table("t", &[1, 2]), 6).unwrap(), IngestOutcome::Updated);
        assert_eq!(cat.len(), 9);
        // Only the last version is held, so the commit writes one run of
        // one record.
        cat.commit().unwrap();
        assert_eq!(segment_files(&dir), 1);
        let entry = cat.entry("t").unwrap();
        assert_eq!((entry.content_hash, entry.slot), (6, Some(0)));
        assert_eq!(cat.record("t").unwrap().content_hash, 6);
    }

    #[test]
    fn colliding_sanitized_ids_keep_distinct_segments() {
        // "a b" and "a_b" would sanitize to the same file-name prefix, and
        // identical contents give identical content hashes: in one run
        // they still take distinct slots, each read back as its own id.
        let dir = tmp_dir("collide");
        let mut cat = Catalog::open(&dir).unwrap();
        folded_baseline(&mut cat, 12);
        cat.add_table(&table("a b", &[1, 2]), 7).unwrap();
        cat.add_table(&table("a_b", &[1, 2]), 7).unwrap();
        cat.commit().unwrap();
        assert_eq!(segment_files(&dir), 1);
        let (ea, eb) = (cat.entry("a b").unwrap(), cat.entry("a_b").unwrap());
        assert_eq!(ea.segment, eb.segment, "one loose commit, one run");
        assert_eq!((ea.slot, eb.slot), (Some(0), Some(1)));
        drop(cat);
        let cat = Catalog::open(&dir).unwrap();
        assert_eq!(cat.len(), 14);
        let ra = cat.get("a b").unwrap().expect("first id intact");
        let rb = cat.get("a_b").unwrap().expect("second id intact");
        assert_eq!(ra.table_id(), "a b");
        assert_eq!(rb.table_id(), "a_b");
        assert!(cat.load_all_records().unwrap().len() == 14);
    }

    /// Opening a fresh directory commits its empty manifest once; a
    /// commit with nothing uncommitted, and the drop, leave that file as
    /// it is.
    #[test]
    fn fresh_open_writes_its_manifest_once() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmp_dir("fresh");
        let mut cat = Catalog::open(&dir).unwrap();
        let path = cat.manifest_path();
        let (ino, bytes) = (fs::metadata(&path).unwrap().ino(), fs::read(&path).unwrap());
        cat.commit().unwrap();
        drop(cat);
        assert_eq!(fs::metadata(&path).unwrap().ino(), ino, "the manifest was rewritten");
        assert_eq!(fs::read(&path).unwrap(), bytes);
    }

    fn segment_files(dir: &Path) -> usize {
        fs::read_dir(dir.join(SEGMENT_DIR)).unwrap().count()
    }

    #[test]
    fn remove_deletes_segment() {
        let dir = tmp_dir("rm");
        let mut cat = Catalog::open(&dir).unwrap();
        folded_baseline(&mut cat, 8);
        // An uncommitted add writes no file, so removing it leaves none.
        cat.add_table(&table("t", &[1]), 5).unwrap();
        assert_eq!(segment_files(&dir), 0);
        assert!(cat.remove("t").unwrap());
        assert!(!cat.remove("t").unwrap());
        assert_eq!(cat.len(), 8);
        cat.commit().unwrap();
        assert_eq!(segment_files(&dir), 0);
        // A committed table's run survives its removal until the removal
        // is committed — until then the on-disk manifest still references
        // it — and goes with the commit that leaves it unreferenced.
        cat.add_table(&table("t", &[1]), 5).unwrap();
        cat.commit().unwrap();
        assert_eq!(segment_files(&dir), 1);
        assert!(cat.remove("t").unwrap());
        assert_eq!(segment_files(&dir), 1);
        cat.commit().unwrap();
        assert_eq!(segment_files(&dir), 0);
    }

    /// Replacing a committed table and then restoring its committed
    /// content, all in one batch, must leave the file the new manifest
    /// names on disk — a new run in a loose commit (the old one goes), an
    /// arena in a folding one.
    #[test]
    fn restoring_committed_content_keeps_its_segment() {
        let dir = tmp_dir("restore");
        let mut cat = Catalog::open(&dir).unwrap();
        folded_baseline(&mut cat, 8);
        cat.add_table(&table("t", &[1]), 5).unwrap();
        cat.commit().unwrap();
        assert_eq!(segment_files(&dir), 1);
        assert_eq!(cat.add_table(&table("t", &[1, 2]), 6).unwrap(), IngestOutcome::Updated);
        assert_eq!(cat.add_table(&table("t", &[1]), 5).unwrap(), IngestOutcome::Updated);
        let old_run = cat.committed.clone();
        cat.commit().unwrap();
        assert_eq!(segment_files(&dir), 1);
        assert_ne!(cat.committed, old_run, "the restored record went into a new run");
        drop(cat);
        let mut cat = Catalog::open(&dir).unwrap();
        assert_eq!(cat.record("t").unwrap().content_hash, 5);
        assert_eq!(cat.add_table(&table("t", &[1, 2]), 6).unwrap(), IngestOutcome::Updated);
        assert_eq!(cat.add_table(&table("t", &[1]), 5).unwrap(), IngestOutcome::Updated);
        cat.compact().unwrap();
        assert_eq!(segment_files(&dir), 0, "the fold absorbed the committed run");
        drop(cat);
        assert_eq!(Catalog::open(&dir).unwrap().record("t").unwrap().content_hash, 5);
    }

    #[test]
    fn index_cache_written_and_reused() {
        let dir = tmp_dir("cache");
        let mut cat = Catalog::open(&dir).unwrap();
        for i in 0..5 {
            cat.add_table(&table(&format!("t{i}"), &[i, i + 1, i + 2]), i as u64).unwrap();
        }
        assert!(!cat.stats().index_cached, "no cache before the first snapshot");
        let hits =
            cat.searcher().unwrap().search_table(&table("q", &[1, 2, 3]), &join_req(3)).unwrap().hits;
        assert!(!hits.is_empty());
        cat.commit().unwrap();
        assert!(cat.stats().index_cached, "first snapshot persists the index");
        drop(cat);

        // Reopen: the cache fingerprint still matches, and queries agree.
        let mut cat2 = Catalog::open(&dir).unwrap();
        assert!(cat2.stats().index_cached);
        assert_eq!(
            cat2.searcher()
                .unwrap()
                .search_table(&table("q", &[1, 2, 3]), &join_req(3))
                .unwrap()
                .hits,
            hits
        );

        // A mutation invalidates the fingerprint and the cached snapshot.
        let before = cat2.epoch();
        cat2.add_table(&table("t9", &[7]), 70).unwrap();
        assert_eq!(cat2.epoch(), before + 1);
        assert!(!cat2.stats().index_cached);
        let rebuilt = cat2.searcher().unwrap();
        assert_eq!(rebuilt.epoch(), cat2.epoch());
        assert_eq!(rebuilt.len(), 6);
        assert!(cat2.stats().index_cached, "rebuilt cache covers the new contents");
    }

    #[test]
    fn searcher_snapshot_survives_mutation() {
        let dir = tmp_dir("snapshot");
        let mut cat = Catalog::open(&dir).unwrap();
        for i in 0..4 {
            cat.add_table(&table(&format!("t{i}"), &[i, i + 1]), i as u64).unwrap();
        }
        let old = cat.searcher().unwrap();
        assert_eq!(old.len(), 4);
        // Mutate: the old snapshot keeps answering from its generation.
        cat.remove("t0").unwrap();
        assert_eq!(old.len(), 4, "handed-out snapshots are immutable");
        assert!(old.sketch_of("t0").is_ok());
        let fresh = cat.searcher().unwrap();
        assert_eq!(fresh.len(), 3);
        assert!(matches!(fresh.sketch_of("t0"), Err(StoreError::UnknownTable(_))));
        assert!(fresh.epoch() > old.epoch());
    }

    #[test]
    fn refuses_mismatched_sketch_config() {
        let dir = tmp_dir("cfg");
        drop(Catalog::open(&dir).unwrap());
        let other = SketchConfig { minhash_k: 64, ..SketchConfig::default() };
        let Err(err) = Catalog::open_with(&dir, other) else {
            panic!("must refuse a mismatched sketch config")
        };
        assert!(matches!(err, StoreError::InvalidRequest(_)), "{err}");
    }

    #[test]
    fn corrupt_manifest_is_a_typed_error_not_a_panic() {
        let dir = tmp_dir("corrupt");
        drop(Catalog::open(&dir).unwrap());
        fs::write(dir.join(MANIFEST_FILE), b"TSFMCAT1garbage").unwrap();
        let Err(err) = Catalog::open(&dir) else { panic!("garbage manifest must not open") };
        assert!(
            matches!(&err, StoreError::Corrupt { format, .. } if format == "TSFMCAT1"),
            "{err}"
        );
        fs::write(dir.join(MANIFEST_FILE), b"NOTAMAGIC").unwrap();
        assert!(Catalog::open(&dir).is_err());
    }

    #[test]
    fn ingest_dir_incremental() {
        let dir = tmp_dir("ingest");
        let data = tmp_dir("ingest_data");
        fs::create_dir_all(&data).unwrap();
        fs::write(data.join("a.csv"), "x,y\n1,2\n3,4\n").unwrap();
        fs::write(data.join("b.csv"), "name\nann\nbob\n").unwrap();
        fs::write(data.join("ignored.txt"), "not a csv").unwrap();

        let mut cat = Catalog::open(&dir).unwrap();
        let r1 = cat.ingest_dir(&data).unwrap();
        assert_eq!((r1.added, r1.updated, r1.unchanged), (2, 0, 0));

        let r2 = cat.ingest_dir(&data).unwrap();
        assert_eq!((r2.added, r2.updated, r2.unchanged), (0, 0, 2), "re-ingest is a no-op");
        assert_eq!(r2.sketched(), 0);

        fs::write(data.join("c.csv"), "z\n9\n").unwrap();
        let r3 = cat.ingest_dir(&data).unwrap();
        assert_eq!((r3.added, r3.updated, r3.unchanged), (1, 0, 2), "one new file, one sketch");

        fs::write(data.join("a.csv"), "x,y\n1,2\n3,4\n5,6\n").unwrap();
        let r4 = cat.ingest_dir(&data).unwrap();
        assert_eq!((r4.added, r4.updated, r4.unchanged), (0, 1, 2), "changed file re-sketched");

        let stats = cat.stats();
        assert_eq!(stats.tables, 3);
        assert!(stats.segment_bytes > 0);

        // A fresh catalog ingesting the same directory over an explicit
        // worker pool ends up with the same tables at the same content.
        let dir2 = tmp_dir("ingest_par");
        let mut cat2 = Catalog::open(&dir2).unwrap();
        let rp = cat2.ingest_dir_with_threads(&data, 4).unwrap();
        assert_eq!((rp.added, rp.updated, rp.unchanged), (3, 0, 0));
        let contents = |c: &Catalog| -> Vec<(String, u64)> {
            let ids = c.table_ids().unwrap();
            ids.into_iter().map(|id| (id.clone(), c.record(&id).unwrap().content_hash)).collect()
        };
        assert_eq!(contents(&cat), contents(&cat2));
    }

    /// A stamp is remembered only once both its times lie a full
    /// [`SETTLE_NS`] before the scan: one nanosecond later on either is
    /// too late.
    #[test]
    fn a_stamp_settles_at_exactly_the_settle_window() {
        let start = 1_700_000_000_000_000_000i128;
        let at = |mtime, ctime| Stamp { dev: 1, ino: 2, len: 3, mtime, ctime };
        let edge = start - SETTLE_NS;
        assert!(at(edge, edge).settled(start));
        assert!(at(edge - 5, edge - 9).settled(start));
        assert!(!at(edge + 1, edge).settled(start), "mtime inside the window");
        assert!(!at(edge, edge + 1).settled(start), "ctime inside the window");
        assert!(!at(start, start).settled(start));
    }

    /// On one long-lived catalog, a settled source is skipped by its stamp
    /// alone, and no change to a source slips past that skip: a
    /// same-length rewrite with its mtime restored, a rewrite inside the
    /// settle window, a rename over the file, a change to the table made
    /// through the API, and a deletion.
    #[test]
    fn the_stamp_fast_path_never_misses_a_change() {
        let dir = tmp_dir("stamps");
        let lake = tmp_dir("stamps_lake");
        fs::create_dir_all(&lake).unwrap();
        let csv = |tag: char| format!("k,v\n{tag}1,1\n{tag}2,2\n");
        let file = |id: &str| lake.join(format!("{id}.csv"));
        for id in ["a", "b", "c", "d", "e", "f"] {
            fs::write(file(id), csv('x')).unwrap();
        }
        // ctime cannot be set back: let every source settle.
        std::thread::sleep(std::time::Duration::from_nanos(SETTLE_NS as u64 + 100_000_000));
        let mut cat = Catalog::open(&dir).unwrap();
        let counts = |r: IngestReport| (r.added, r.updated, r.unchanged, r.failed.len());
        assert_eq!(counts(cat.ingest_dir(&lake).unwrap()), (6, 0, 0, 0));
        let remembered = |cat: &Catalog, id: &str| cat.sources[&lake].contains_key(id);
        assert_eq!(cat.sources[&lake].len(), 6, "every settled source is remembered");
        assert_eq!(counts(cat.ingest_dir(&lake).unwrap()), (0, 0, 6, 0));

        // (i) Same length, different bytes, mtime restored: ctime moved.
        let mtime = fs::metadata(file("a")).unwrap().modified().unwrap();
        fs::write(file("a"), csv('y')).unwrap();
        fs::File::options().write(true).open(file("a")).unwrap().set_modified(mtime).unwrap();
        assert_eq!(fs::metadata(file("a")).unwrap().modified().unwrap(), mtime);
        assert_eq!(counts(cat.ingest_dir(&lake).unwrap()), (0, 1, 5, 0), "(i)");
        assert!(!remembered(&cat, "a"), "a source read inside the window is not remembered");

        // (ii) Rewritten right after the scan that read it, inside the
        // window, and again after the next one.
        for tag in ['z', 'x'] {
            fs::write(file("a"), csv(tag)).unwrap();
            assert_eq!(counts(cat.ingest_dir(&lake).unwrap()), (0, 1, 5, 0), "(ii) {tag}");
        }

        // (iii) Replaced by a rename over it, same length and mtime.
        let mtime = fs::metadata(file("b")).unwrap().modified().unwrap();
        let staged = lake.join("b.next");
        fs::write(&staged, csv('y')).unwrap();
        fs::File::options().write(true).open(&staged).unwrap().set_modified(mtime).unwrap();
        fs::rename(&staged, file("b")).unwrap();
        assert_eq!(counts(cat.ingest_dir(&lake).unwrap()), (0, 1, 5, 0), "(iii)");
        assert_eq!(cat.record("b").unwrap().content_hash, hash_str(&csv('y')));

        // (iv) The table changed through the API: the untouched file is
        // read again and its version restored.
        assert!(remembered(&cat, "c"));
        cat.add_table(&table("c", &[7, 8, 9]), 42).unwrap();
        assert_eq!(counts(cat.ingest_dir(&lake).unwrap()), (0, 1, 5, 0), "(iv)");
        assert_eq!(cat.record("c").unwrap().content_hash, hash_str(&csv('x')));

        // (v) A deleted source drops out of the scan and its stamp with it.
        fs::remove_file(file("d")).unwrap();
        assert_eq!(counts(cat.ingest_dir(&lake).unwrap()), (0, 0, 5, 0), "(v)");
        assert!(!remembered(&cat, "d"));
        assert!(cat.get("d").unwrap().is_some(), "ingest never removes a table");

        // The skip is taken on the stamp and the active hash alone: with
        // the stamp of changed bytes forged in, the file is not opened.
        fs::write(file("e"), csv('y')).unwrap();
        let forged = file_stamp(&fs::metadata(file("e")).unwrap()).unwrap();
        cat.sources.get_mut(&lake).unwrap().get_mut("e").unwrap().stamp = forged;
        assert_eq!(counts(cat.ingest_dir(&lake).unwrap()), (0, 0, 5, 0), "forged stamp");
        assert_eq!(cat.record("e").unwrap().content_hash, hash_str(&csv('x')));
    }

    /// The committed bytes an ingest must reproduce at any thread count:
    /// the root manifest and every shard file, by name.
    fn committed_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        let mut out: BTreeMap<String, Vec<u8>> = fs::read_dir(dir.join(shard::SHARD_DIR))
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().to_string_lossy().into_owned(), fs::read(e.path()).unwrap())
            })
            .collect();
        out.insert(MANIFEST_FILE.to_string(), fs::read(dir.join(MANIFEST_FILE)).unwrap());
        out
    }

    /// The parallel ingest pool must be invisible: any thread count
    /// produces the same report — failures in the same order — the same
    /// committed files, and a catalog whose every query answer matches a
    /// serial ingest.
    #[test]
    fn parallel_ingest_matches_serial() {
        let tables: Vec<Table> = (0..12)
            .map(|i| table(&format!("t{i:02}"), &[i, i * 3 % 7, i + 1, 40 - i]))
            .collect();
        let hashes: Vec<u64> = (0..12).map(|i| 1000 + i as u64).collect();

        let serial_dir = tmp_dir("par_serial");
        let mut serial = Catalog::open(&serial_dir).unwrap();
        let sr = serial.ingest_tables(&tables, &hashes, 1).unwrap();
        serial.commit().unwrap();
        assert_eq!((sr.added, sr.updated, sr.unchanged), (12, 0, 0));

        let par_dir = tmp_dir("par_pool");
        let mut par = Catalog::open(&par_dir).unwrap();
        let pr = par.ingest_tables(&tables, &hashes, 4).unwrap();
        par.commit().unwrap();
        assert_eq!(sr, pr, "report differs between thread counts");

        // The same committed bytes and the same persisted records.
        assert_eq!(committed_files(&serial_dir), committed_files(&par_dir));
        for id in serial.table_ids().unwrap() {
            let a = serial.record(&id).unwrap();
            let b = par.record(&id).unwrap();
            assert_eq!(a.sketch.content_snapshot, b.sketch.content_snapshot, "{id}");
            assert_eq!(a.content_hash, b.content_hash);
        }
        let q = table("q", &[1, 2, 3]);
        assert_eq!(
            serial.searcher().unwrap().search_table(&q, &join_req(5)).unwrap().hits,
            par.searcher().unwrap().search_table(&q, &join_req(5)).unwrap().hits,
        );

        // Incremental semantics survive the pool: re-ingest is a no-op,
        // a changed hash is an update.
        let again = par.ingest_tables(&tables, &hashes, 4).unwrap();
        assert_eq!((again.added, again.updated, again.unchanged), (0, 0, 12));
        let mut new_hashes = hashes.clone();
        new_hashes[3] = 9999;
        let third = par.ingest_tables(&tables, &new_hashes, 4).unwrap();
        assert_eq!((third.added, third.updated, third.unchanged), (0, 1, 11));

        // A directory at 1, 2 and 8 workers, with unreadable sources (two
        // directories named like CSVs) among the readable ones.
        let lake = tmp_dir("par_lake");
        fs::create_dir_all(&lake).unwrap();
        for i in 0..40 {
            let stem = match i {
                0..=19 => format!("a{i:02}"),
                20..=29 => format!("n{i:02}"),
                _ => format!("z{i:02}"),
            };
            let text = format!("k,v\nkey{i},{}\nalt{},{}\n", i * 3, i % 7, 40 - i);
            fs::write(lake.join(format!("{stem}.csv")), text).unwrap();
        }
        fs::create_dir_all(lake.join("m.csv")).unwrap();
        fs::create_dir_all(lake.join("x.csv")).unwrap();
        let runs: Vec<(IngestReport, BTreeMap<String, Vec<u8>>)> = [1, 2, 8]
            .into_iter()
            .map(|threads| {
                let dir = tmp_dir(&format!("par_dir{threads}"));
                let mut cat = Catalog::open(&dir).unwrap();
                let report = cat.ingest_dir_with_threads(&lake, threads).unwrap();
                assert_eq!(segment_files(&dir), 0, "the first commit folds");
                let again = cat.ingest_dir_with_threads(&lake, threads).unwrap();
                assert_eq!((again.sketched(), again.unchanged, again.failed.len()), (0, 40, 2));
                (report, committed_files(&dir))
            })
            .collect();
        let (first, files) = &runs[0];
        assert_eq!((first.added, first.updated, first.unchanged), (40, 0, 0));
        let failed: Vec<&str> = first.failed.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(failed, ["m.csv", "x.csv"]);
        for (report, other) in &runs[1..] {
            assert_eq!(report, first, "report differs between thread counts");
            assert!(other == files, "committed files differ between thread counts");
        }
    }

    /// Duplicate ids within one batch fall back to exact serial
    /// `add_table` semantics (last write wins, outcomes counted in order).
    #[test]
    fn ingest_tables_with_duplicate_ids() {
        let dir = tmp_dir("par_dup");
        let mut cat = Catalog::open(&dir).unwrap();
        let tables =
            vec![table("t", &[1]), table("t", &[1, 2]), table("t", &[1, 2])];
        let r = cat.ingest_tables(&tables, &[5, 6, 6], 4).unwrap();
        assert_eq!((r.added, r.updated, r.unchanged), (1, 1, 1));
        assert_eq!(cat.record("t").unwrap().content_hash, 6);
    }
}
