//! Offline catalog verification and repair — the engine behind the
//! `tsfm fsck` CLI verb.
//!
//! [`fsck`] walks a catalog directory and verifies everything the serving
//! path trusts: the manifest frame, every loose record's CRC32C — a
//! positioned read of its run slot, or its whole legacy segment file — and
//! its agreement with the manifest entry (content hash *and* table id), every
//! shard's manifest + arena (header, offset table, and a CRC-verified
//! positioned read of each active slot), missing and orphaned files in
//! both tiers, leftover `.tmp` staging files, and the index cache
//! (checksum, the engine reassembly the catalog itself serves from, and
//! fingerprint over the merged loose+sharded contents).
//!
//! fsck holds no validity rule of its own. It opens the store through the
//! catalog's own open path, with the sketch configuration the manifest
//! persisted, and reads every item through the readers the catalog serves
//! from: the loose tier through `Catalog::loose_record`, each shard
//! manifest through `Catalog::slot_manifest` (checked against the root
//! manifest), each arena through `Catalog::slot_arena`, each active slot
//! through [`ArenaIndex::read_entry`](crate::shard::ArenaIndex::read_entry)
//! — whose `check_entry` is the one slot-vs-entry check — and the index
//! cache through `read_index_engine` against `Catalog::fingerprint`. So
//! fsck and the catalog agree on every record, run, shard manifest and
//! arena (the `fsck_agrees` property test holds them to it). What fsck
//! adds is its own: it checks every item instead of
//! stopping at the first failure, finds orphans and staging leftovers,
//! classifies each failure (a file not on disk is `missing_*`, any other
//! error `corrupt_*`), and repairs.
//! Damage is reported as typed [`Problem`]s and rendered as one
//! structured JSON object.
//!
//! With `repair = true` a damaged store degrades to a smaller-but-correct
//! one instead of refusing to open: a bad loose record's manifest entry is
//! dropped — a bad run slot drops only its own table, a missing run every
//! table it held — and a damaged file no surviving entry references is
//! quarantined (moved to `<dir>/quarantine/`, never deleted — an operator
//! can recover bytes from it; a run that still backs other tables keeps
//! its bytes in place), a damaged *shard* is
//! quarantined as a unit (both its files; the other shards keep serving),
//! `.tmp` garbage removed, the pruned manifest committed durably, and the
//! HNSW index cache rebuilt. The one thing repair will not invent is the
//! manifest itself: the sketch configuration is not recoverable from
//! segments alone, so a corrupt manifest is reported and left for
//! restore-from-backup.

use crate::catalog::{self, read_index_cache, read_index_engine, Catalog, OpenRuns};
use crate::durable;
use crate::error::{StoreError, StoreResult};
use crate::ser;
use crate::shard;
use crate::wire::escape_json;
use std::collections::BTreeSet;
use std::fmt::Display;
use std::fs;
use std::path::{Path, PathBuf};

/// Where repair moves bad segments (inside the catalog directory).
pub const QUARANTINE_DIR: &str = "quarantine";

/// One verified defect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Problem {
    pub kind: ProblemKind,
    /// Path relative to the catalog directory.
    pub file: String,
    /// The table the file backs, when the manifest knows it.
    pub table: Option<String>,
    pub detail: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemKind {
    /// The manifest itself fails checksum or parse — nothing below it can
    /// be trusted, and repair cannot reconstruct it.
    CorruptManifest,
    /// A loose record — a run slot or a legacy segment file — fails its
    /// checksum, fails to parse, or disagrees with its manifest entry; or
    /// its run's header or offset table is damaged.
    CorruptSegment,
    /// The manifest references a run or segment file that does not exist.
    MissingSegment,
    /// A file under `segments/` no manifest entry references (e.g. a run
    /// written by a loose commit that crashed before its manifest rename).
    OrphanSegment,
    /// A shard manifest or arena fails its checksum, disagrees with the
    /// root manifest, or holds a slot whose payload disagrees with the
    /// shard's own entry.
    CorruptShard,
    /// The root manifest references a shard file that does not exist.
    MissingShard,
    /// A file under `shards/` no root-manifest meta references (e.g.
    /// written by a crashed compaction whose root flip never happened).
    OrphanShard,
    /// A leftover `.tmp` staging file from an interrupted commit.
    TmpFile,
}

impl ProblemKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ProblemKind::CorruptManifest => "corrupt_manifest",
            ProblemKind::CorruptSegment => "corrupt_segment",
            ProblemKind::MissingSegment => "missing_segment",
            ProblemKind::OrphanSegment => "orphan_segment",
            ProblemKind::CorruptShard => "corrupt_shard",
            ProblemKind::MissingShard => "missing_shard",
            ProblemKind::OrphanShard => "orphan_shard",
            ProblemKind::TmpFile => "tmp_file",
        }
    }
}

/// Index cache verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexCacheState {
    /// Checksums verify and the fingerprint matches the manifest.
    Valid,
    /// No cache file — the next snapshot rebuilds it; not damage.
    Absent,
    /// Readable but keyed to different contents (stale fingerprint, or a
    /// corrupt manifest left nothing to compare against).
    Stale,
    Corrupt(String),
}

impl IndexCacheState {
    pub fn as_str(&self) -> &'static str {
        match self {
            IndexCacheState::Valid => "valid",
            IndexCacheState::Absent => "absent",
            IndexCacheState::Stale => "stale",
            IndexCacheState::Corrupt(_) => "corrupt",
        }
    }
}

/// What `repair` actually did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairSummary {
    /// Files moved into `quarantine/` (relative paths).
    pub quarantined: Vec<String>,
    /// Table ids dropped from the manifest (their records were corrupt or
    /// missing).
    pub dropped_tables: Vec<String>,
    /// `.tmp` staging files removed.
    pub removed_tmp: Vec<String>,
    /// Whether the HNSW index cache was rebuilt from the surviving
    /// segments.
    pub index_rebuilt: bool,
}

impl RepairSummary {
    fn actions(&self) -> u64 {
        (self.quarantined.len()
            + self.dropped_tables.len()
            + self.removed_tmp.len()
            + usize::from(self.index_rebuilt)) as u64
    }
}

/// The full verification result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// Catalog directory as given.
    pub catalog: String,
    /// Tables the manifest declares.
    pub tables: usize,
    /// Records that verified end to end: loose (run slots and legacy
    /// segments) and shard-resident.
    pub segments_ok: usize,
    /// Surviving pre-checksum (v1) frames — readable, but unprotected
    /// until a rewrite migrates them.
    pub v1_segments: usize,
    pub problems: Vec<Problem>,
    pub index_cache: IndexCacheState,
    /// Present when `repair` ran and took at least one action.
    pub repair: Option<RepairSummary>,
}

impl FsckReport {
    fn push(
        &mut self,
        kind: ProblemKind,
        file: String,
        table: Option<String>,
        detail: &dyn Display,
    ) {
        self.problems.push(Problem { kind, file, table, detail: detail.to_string() });
    }

    /// Whether the store verified clean (pre-repair state). A stale or
    /// absent index cache is not damage — the next snapshot rebuilds it.
    pub fn healthy(&self) -> bool {
        self.problems.is_empty() && !matches!(self.index_cache, IndexCacheState::Corrupt(_))
    }

    /// Whether the store is consistent *now*: either it verified clean,
    /// or repair ran and dealt with every problem (a corrupt manifest is
    /// the unrepairable case and keeps this `false`).
    pub fn consistent_after(&self) -> bool {
        self.healthy()
            || (self.repair.is_some()
                && !self.problems.iter().any(|p| p.kind == ProblemKind::CorruptManifest))
    }

    /// The report as one structured JSON object (the `tsfm fsck` output).
    pub fn to_json(&self) -> String {
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| {
                let table = p
                    .table
                    .as_ref()
                    .map_or_else(|| "null".to_string(), |t| format!("\"{}\"", escape_json(t)));
                format!(
                    "{{\"kind\":\"{}\",\"file\":\"{}\",\"table\":{},\"detail\":\"{}\"}}",
                    p.kind.as_str(),
                    escape_json(&p.file),
                    table,
                    escape_json(&p.detail)
                )
            })
            .collect();
        let mut out = format!(
            "{{\"catalog\":\"{}\",\"tables\":{},\"segments_ok\":{},\"v1_segments\":{},\
             \"problems\":[{}],\"index_cache\":\"{}\",\"healthy\":{}",
            escape_json(&self.catalog),
            self.tables,
            self.segments_ok,
            self.v1_segments,
            problems.join(","),
            self.index_cache.as_str(),
            self.healthy()
        );
        if let Some(r) = &self.repair {
            let list = |v: &[String]| -> String {
                let items: Vec<String> =
                    v.iter().map(|s| format!("\"{}\"", escape_json(s))).collect();
                format!("[{}]", items.join(","))
            };
            out.push_str(&format!(
                ",\"repair\":{{\"quarantined\":{},\"dropped_tables\":{},\"removed_tmp\":{},\
                 \"index_rebuilt\":{}}}",
                list(&r.quarantined),
                list(&r.dropped_tables),
                list(&r.removed_tmp),
                r.index_rebuilt
            ));
        }
        out.push('}');
        out
    }
}

/// Verify (and optionally repair) the catalog at `dir`. See the module
/// docs for what is checked and what repair does. Returns `Err` only for
/// environmental failures (the directory is not a catalog, repair I/O
/// failed); damage found in the store comes back inside the report.
pub fn fsck(dir: &Path, repair: bool) -> StoreResult<FsckReport> {
    if !dir.join(catalog::MANIFEST_FILE).exists() {
        return Err(StoreError::invalid(format!(
            "{} is not a catalog (no {} found)",
            dir.display(),
            catalog::MANIFEST_FILE
        )));
    }
    let mut report = FsckReport {
        catalog: dir.display().to_string(),
        tables: 0,
        segments_ok: 0,
        v1_segments: 0,
        problems: Vec::new(),
        index_cache: IndexCacheState::Absent,
        repair: None,
    };
    let index_path = dir.join(catalog::INDEX_FILE);
    let mut cat = match Catalog::open_existing(dir.to_path_buf()) {
        Ok(cat) => cat,
        Err(e) => {
            let file = catalog::MANIFEST_FILE.to_string();
            report.push(ProblemKind::CorruptManifest, file, None, &e);
            // Still classify the index cache so the report is complete,
            // even though nothing can validate its fingerprint.
            report.index_cache = match read_index_cache(&index_path) {
                Ok(_) => IndexCacheState::Stale,
                Err(e) if is_not_found(&e) => IndexCacheState::Absent,
                Err(e) => IndexCacheState::Corrupt(e.to_string()),
            };
            return Ok(report);
        }
    };
    report.tables = cat.len();
    let mut damage = Damage::default();

    // ---- loose tier: every record, read as the catalog reads it ----
    // A bad run slot drops only its own table; a missing or unreadable
    // run drops every table it held.
    let seg_dir = dir.join(catalog::SEGMENT_DIR);
    let entries = cat.loose_entries();
    let mut runs = OpenRuns::new();
    for (id, entry) in entries {
        if entry.slot.is_none() && is_v1_segment(&seg_dir.join(&entry.segment)) {
            report.v1_segments += 1;
        }
        match cat.loose_record(id, entry, &mut runs) {
            Ok(_) => report.segments_ok += 1,
            Err(e) => {
                let (kind, detail) =
                    classify(&e, ProblemKind::MissingSegment, ProblemKind::CorruptSegment);
                let file = format!("{}/{}", catalog::SEGMENT_DIR, entry.segment);
                report.push(kind, file, Some(id.clone()), &detail);
                damage.bad_tables.push(id.clone());
            }
        }
    }
    // A damaged file no surviving entry references is moved aside; one
    // that still backs other tables stays where they read it.
    let surviving: BTreeSet<&str> = entries
        .iter()
        .filter(|(id, _)| !damage.bad_tables.contains(id))
        .map(|(_, e)| e.segment.as_str())
        .collect();
    damage.segments = damage
        .bad_tables
        .iter()
        .filter_map(|id| entries.get(id))
        .map(|e| e.segment.as_str())
        .filter(|f| !surviving.contains(f))
        .collect::<BTreeSet<&str>>()
        .into_iter()
        .map(|f| seg_dir.join(f))
        .filter(|p| p.exists())
        .collect();

    // ---- shard layer: manifests, arenas, every active slot ----
    let shard_dir = dir.join(shard::SHARD_DIR);
    for slot in cat.shard_slots() {
        let meta = &slot.meta;
        let files = [meta.shard_file(), meta.arena_file()];
        let manifest = cat.slot_manifest(slot);
        let arena = cat.slot_arena(slot);
        let mut shard_ok = true;
        for (file, opened) in files.iter().zip([manifest.as_ref().err(), arena.as_ref().err()]) {
            if let Some(e) = opened {
                let (kind, detail) =
                    classify(e, ProblemKind::MissingShard, ProblemKind::CorruptShard);
                report.push(kind, format!("{}/{file}", shard::SHARD_DIR), None, &detail);
                shard_ok = false;
            }
        }
        let live = manifest.as_ref().map(|m| cat.live_slots(m)).unwrap_or_default();
        if let (Ok(m), Ok(arena)) = (&manifest, &arena) {
            // A positioned read of every *active* slot, checked as every
            // catalog read checks it (tombstoned or loose-shadowed slots
            // are dead data).
            for &i in &live {
                let e = &m.entries[i as usize];
                match arena.read_entry(i as usize, &e.id, e.content_hash) {
                    Ok(_) => report.segments_ok += 1,
                    Err(err) => {
                        let file = format!("{}/{}", shard::SHARD_DIR, files[1]);
                        report.push(ProblemKind::CorruptShard, file, Some(e.id.clone()), &err);
                        shard_ok = false;
                    }
                }
            }
        }
        if !shard_ok {
            damage.bad_shards.push(meta.index);
            damage.shards.extend(files.iter().map(|f| shard_dir.join(f)).filter(|p| p.exists()));
            if let Ok(m) = &manifest {
                damage.shard_tables.extend(live.iter().map(|&i| m.entries[i as usize].id.clone()));
            }
        }
    }

    // ---- orphans and staging leftovers ----
    let referenced: BTreeSet<String> = entries.values().map(|e| e.segment.clone()).collect();
    let orphan = (ProblemKind::OrphanSegment, "no manifest entry references this file");
    let found = sweep(dir, catalog::SEGMENT_DIR, &referenced, orphan, &mut report, &mut damage.tmp);
    damage.segments.extend(found?);
    // Files under shards/ no root-manifest meta references: leftovers of
    // a compaction that crashed before its root-manifest flip.
    let referenced: BTreeSet<String> =
        cat.shard_slots().flat_map(|s| [s.meta.shard_file(), s.meta.arena_file()]).collect();
    let orphan = (ProblemKind::OrphanShard, "no root-manifest shard references this file");
    let found = sweep(dir, shard::SHARD_DIR, &referenced, orphan, &mut report, &mut damage.tmp);
    damage.shards.extend(found?);
    for staging in ["catalog.tmp", "index.tmp"] {
        let path = dir.join(staging);
        if path.exists() {
            report.push(ProblemKind::TmpFile, staging.to_string(), None, &STAGING);
            damage.tmp.push(path);
        }
    }

    // ---- index cache ----
    // The fingerprint covers the merged active contents of both tiers;
    // with any shard unreadable the expected value is unknowable, so a
    // readable cache degrades to Stale (rebuilt on repair), not Corrupt.
    let merged_fp = if damage.bad_shards.is_empty() { cat.fingerprint().ok() } else { None };
    report.index_cache = if index_path.exists() {
        match read_index_engine(&index_path, cat.sketch_config().minhash_k) {
            Ok((fp, ..)) if merged_fp == Some(fp) => IndexCacheState::Valid,
            Ok(_) => IndexCacheState::Stale,
            Err(e) => IndexCacheState::Corrupt(e.to_string()),
        }
    } else {
        IndexCacheState::Absent
    };

    if repair {
        let summary = run_repair(&mut cat, damage, &report.index_cache)?;
        if summary.actions() > 0 {
            catalog::fsck_repairs_counter().add(summary.actions());
            report.repair = Some(summary);
        }
    }
    Ok(report)
}

/// What a `.tmp` staging file is reported as.
const STAGING: &str = "staging file left by an interrupted commit";

fn is_not_found(e: &StoreError) -> bool {
    matches!(e, StoreError::Io(io) if io.kind() == std::io::ErrorKind::NotFound)
}

/// The problem a failed catalog read reports: `missing` when its file is
/// not on disk, `corrupt` with the reader's own error for anything else.
fn classify(e: &StoreError, missing: ProblemKind, corrupt: ProblemKind) -> (ProblemKind, String) {
    if is_not_found(e) {
        (missing, "the manifest references a file that is not on disk".to_string())
    } else {
        (corrupt, e.to_string())
    }
}

/// Whether the legacy segment file at `path` is a pre-checksum (v1) frame,
/// by a peek at its header.
fn is_v1_segment(path: &Path) -> bool {
    durable::read_prefix(path, ser::FRAME_HEADER_LEN as u64).is_ok_and(|head| {
        let version = ser::read_frame_header(&mut head.as_slice(), ser::SEGMENT_MAGIC, "segment");
        version.ok() == Some(ser::LEGACY_VERSION)
    })
}

/// Report every file under `dir/sub` that `referenced` does not name, in
/// name order: a `.tmp` staging file goes to `tmp`, anything else is an
/// `orphan` problem, returned for quarantine.
fn sweep(
    dir: &Path,
    sub: &str,
    referenced: &BTreeSet<String>,
    orphan: (ProblemKind, &str),
    report: &mut FsckReport,
    tmp: &mut Vec<PathBuf>,
) -> StoreResult<Vec<PathBuf>> {
    let mut orphans = Vec::new();
    if !dir.join(sub).is_dir() {
        return Ok(orphans);
    }
    let mut names: Vec<String> = fs::read_dir(dir.join(sub))?
        .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().to_string()))
        .filter(|name| !referenced.contains(name))
        .collect();
    names.sort();
    for name in names {
        let (path, rel) = (dir.join(sub).join(&name), format!("{sub}/{name}"));
        if name.ends_with(".tmp") {
            report.push(ProblemKind::TmpFile, rel, None, &STAGING);
            tmp.push(path);
        } else {
            report.push(orphan.0, rel, None, &orphan.1);
            orphans.push(path);
        }
    }
    Ok(orphans)
}

/// What the walk found that repair acts on.
#[derive(Default)]
struct Damage {
    /// Loose tables whose record failed to verify.
    bad_tables: Vec<String>,
    /// Shards to quarantine as a unit.
    bad_shards: Vec<u32>,
    /// Active tables lost with the bad shards (where their manifest was
    /// readable).
    shard_tables: Vec<String>,
    /// Files to move aside, under `segments/` and under `shards/`.
    segments: Vec<PathBuf>,
    shards: Vec<PathBuf>,
    /// `.tmp` staging files to remove.
    tmp: Vec<PathBuf>,
}

fn run_repair(
    cat: &mut Catalog,
    damage: Damage,
    index_state: &IndexCacheState,
) -> StoreResult<RepairSummary> {
    let mut summary = RepairSummary::default();
    let dir = cat.dir().to_path_buf();
    quarantine(&dir, catalog::SEGMENT_DIR, &damage.segments, &mut summary)?;
    quarantine(&dir, shard::SHARD_DIR, &damage.shards, &mut summary)?;
    for path in &damage.tmp {
        fs::remove_file(path)?;
        summary
            .removed_tmp
            .push(path.file_name().map_or_else(String::new, |n| n.to_string_lossy().to_string()));
    }

    let manifest_changed = !damage.bad_tables.is_empty() || !damage.bad_shards.is_empty();
    if manifest_changed {
        cat.drop_damaged(&damage.bad_tables, &damage.bad_shards)?;
        summary.dropped_tables = damage.bad_tables;
        summary.dropped_tables.extend(damage.shard_tables);
        summary.dropped_tables.sort_unstable();
    }

    // Rebuild derived state whenever it cannot be trusted as-is: the
    // manifest changed under it, or it was stale/corrupt to begin with.
    if manifest_changed || !matches!(index_state, IndexCacheState::Valid) {
        let _ = fs::remove_file(dir.join(catalog::INDEX_FILE));
        cat.searcher()?;
        summary.index_rebuilt = true;
    }
    Ok(summary)
}

/// Move `files` (all under `dir/sub`) into the quarantine directory, then
/// make the moves durable.
fn quarantine(
    dir: &Path,
    sub: &str,
    files: &[PathBuf],
    summary: &mut RepairSummary,
) -> StoreResult<()> {
    if files.is_empty() {
        return Ok(());
    }
    let qdir = dir.join(QUARANTINE_DIR);
    fs::create_dir_all(&qdir)?;
    for path in files {
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().to_string()) else {
            continue;
        };
        fs::rename(path, qdir.join(&name))?;
        summary.quarantined.push(format!("{QUARANTINE_DIR}/{name}"));
    }
    durable::sync_dir(&dir.join(sub))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ArenaIndex;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tsfm_table::{Column, Table, Value};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("tsfm_fsck_{tag}_{}_{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn table(id: &str, vals: &[i64]) -> Table {
        let mut t = Table::new(id, id);
        t.push_column(Column::new("v", vals.iter().map(|&v| Value::Int(v)).collect()));
        t
    }

    fn seeded_catalog(dir: &Path, n: i64) -> Catalog {
        let mut cat = Catalog::open(dir).unwrap();
        for i in 0..n {
            cat.add_table(&table(&format!("t{i}"), &[i, i + 1, i + 2]), i as u64 + 100).unwrap();
        }
        cat.searcher().unwrap();
        cat.commit().unwrap();
        cat
    }

    /// [`seeded_catalog`] over a folded baseline of `4n + 5` filler
    /// tables — a catalog's first commit always folds — so the `n` seeded
    /// tables commit loose, into one run, and one more table after them
    /// would too. Returns the catalog and the baseline's size.
    fn loose_seeded_catalog(dir: &Path, n: i64) -> (Catalog, usize) {
        let base = 4 * n + 5;
        let mut cat = Catalog::open(dir).unwrap();
        for i in 0..base {
            cat.add_table(&table(&format!("base{i}"), &[-i, i]), i as u64 + 1).unwrap();
        }
        cat.commit().unwrap();
        drop(cat);
        (seeded_catalog(dir, n), base as usize)
    }

    #[test]
    fn clean_store_is_healthy() {
        let dir = tmp_dir("clean");
        drop(seeded_catalog(&dir, 4));
        let report = fsck(&dir, false).unwrap();
        assert!(report.healthy(), "{}", report.to_json());
        assert_eq!((report.tables, report.segments_ok, report.v1_segments), (4, 4, 0));
        assert_eq!(report.index_cache, IndexCacheState::Valid);
        assert!(report.to_json().contains("\"healthy\":true"));
    }

    #[test]
    fn not_a_catalog_is_invalid_request() {
        let dir = tmp_dir("nocat");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(fsck(&dir, false), Err(StoreError::InvalidRequest(_))));
    }

    /// A run's header must carry the generation and sequence number its
    /// file name encodes: a byte flipped there is a typed corruption for
    /// every reader and for fsck, not a run accepted as another.
    #[test]
    fn run_header_contradicting_its_name_is_corrupt() {
        let dir = tmp_dir("runhdr");
        let (cat, _) = loose_seeded_catalog(&dir, 4);
        let entry = cat.entry("t2").unwrap().clone();
        drop(cat);
        let path = dir.join(catalog::SEGMENT_DIR).join(&entry.segment);
        let mut bytes = fs::read(&path).unwrap();
        bytes[16] = 0x55; // the low byte of the header's generation
        fs::write(&path, &bytes).unwrap();

        let got = Catalog::open(&dir).unwrap().get("t2");
        assert!(matches!(&got, Err(StoreError::Corrupt { .. })), "{got:?}");
        let report = fsck(&dir, false).unwrap();
        assert!(!report.healthy());
        assert!(
            report.problems.iter().any(|p| p.kind == ProblemKind::CorruptSegment
                && p.table.as_deref() == Some("t2")
                && p.detail.contains("contradicts its name")),
            "{}",
            report.to_json()
        );
    }

    #[test]
    fn corrupt_segment_detected_and_repaired() {
        let dir = tmp_dir("seg");
        let (cat, base) = loose_seeded_catalog(&dir, 4);
        let entry = cat.entry("t2").unwrap().clone();
        drop(cat);
        // Flip one bit inside t2's slot of the run.
        let path = dir.join(catalog::SEGMENT_DIR).join(&entry.segment);
        let slot = ArenaIndex::open_run(&path).unwrap().slots[entry.slot.unwrap() as usize];
        let mut bytes = fs::read(&path).unwrap();
        bytes[(slot.offset + slot.len / 2) as usize] ^= 0x10;
        fs::write(&path, &bytes).unwrap();

        let report = fsck(&dir, false).unwrap();
        assert!(!report.healthy());
        assert_eq!(report.segments_ok, base + 3);
        assert!(report
            .problems
            .iter()
            .any(|p| p.kind == ProblemKind::CorruptSegment
                && p.table.as_deref() == Some("t2")
                && p.detail.contains("checksum mismatch")));

        let repaired = fsck(&dir, true).unwrap();
        assert!(repaired.consistent_after());
        let summary = repaired.repair.expect("repair acted");
        assert_eq!(summary.dropped_tables, vec!["t2".to_string()]);
        assert!(summary.index_rebuilt);
        // The run still backs t0, t1 and t3, so its bad bytes stay in place.
        assert!(summary.quarantined.is_empty(), "{summary:?}");
        assert_eq!(fs::read(&path).unwrap(), bytes, "bad bytes preserved");

        // The store is now smaller but green: re-verifies clean and opens.
        let after = fsck(&dir, false).unwrap();
        assert!(after.healthy(), "{}", after.to_json());
        assert_eq!((after.tables, after.segments_ok), (base + 3, base + 3));
        assert_eq!(after.index_cache, IndexCacheState::Valid);
        let mut cat = Catalog::open(&dir).unwrap();
        assert_eq!(cat.len(), base + 3);
        assert!(cat.searcher().unwrap().sketch_of("t1").is_ok());
    }

    #[test]
    fn orphan_and_tmp_files_are_swept() {
        let dir = tmp_dir("orphan");
        drop(seeded_catalog(&dir, 2));
        fs::write(dir.join(catalog::SEGMENT_DIR).join("ghost-0000-1.seg"), b"zzz").unwrap();
        fs::write(dir.join(catalog::SEGMENT_DIR).join("run-00000001-00000001.arena"), b"zz")
            .unwrap();
        fs::write(dir.join(catalog::SEGMENT_DIR).join("half.tmp"), b"partial").unwrap();
        fs::write(dir.join("catalog.tmp"), b"partial").unwrap();

        let report = fsck(&dir, false).unwrap();
        let kinds: Vec<ProblemKind> = report.problems.iter().map(|p| p.kind).collect();
        assert_eq!(kinds.iter().filter(|k| **k == ProblemKind::OrphanSegment).count(), 2);
        assert_eq!(kinds.iter().filter(|k| **k == ProblemKind::TmpFile).count(), 2);

        let repaired = fsck(&dir, true).unwrap();
        let summary = repaired.repair.expect("repair acted");
        assert_eq!(
            summary.quarantined,
            ["quarantine/ghost-0000-1.seg", "quarantine/run-00000001-00000001.arena"]
        );
        assert_eq!(summary.removed_tmp.len(), 2);
        assert!(summary.dropped_tables.is_empty(), "good tables untouched");
        assert!(fsck(&dir, false).unwrap().healthy());
    }

    /// A missing run drops exactly the tables it held: the second loose
    /// commit's run goes, the first one's tables stay.
    #[test]
    fn missing_segment_detected_and_dropped() {
        let dir = tmp_dir("missing");
        let (mut cat, base) = loose_seeded_catalog(&dir, 3);
        cat.add_table(&table("late", &[7, 8]), 900).unwrap();
        cat.commit().unwrap();
        let victim = cat.entry("t0").unwrap().segment.clone();
        assert_ne!(cat.entry("late").unwrap().segment, victim, "one run per loose commit");
        drop(cat);
        fs::remove_file(dir.join(catalog::SEGMENT_DIR).join(victim)).unwrap();
        let report = fsck(&dir, false).unwrap();
        let missing = report.problems.iter().filter(|p| p.kind == ProblemKind::MissingSegment);
        assert_eq!(missing.count(), 3, "{}", report.to_json());
        let repaired = fsck(&dir, true).unwrap();
        assert_eq!(repaired.repair.unwrap().dropped_tables, ["t0", "t1", "t2"]);
        let after = fsck(&dir, false).unwrap();
        assert!(after.healthy(), "{}", after.to_json());
        assert_eq!(after.tables, base + 1);
        assert!(Catalog::open(&dir).unwrap().get("late").unwrap().is_some());
    }

    #[test]
    fn corrupt_index_cache_detected_and_rebuilt() {
        let dir = tmp_dir("idx");
        drop(seeded_catalog(&dir, 3));
        let path = dir.join(catalog::INDEX_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let report = fsck(&dir, false).unwrap();
        assert!(matches!(report.index_cache, IndexCacheState::Corrupt(_)));
        assert!(!report.healthy());

        let repaired = fsck(&dir, true).unwrap();
        assert!(repaired.repair.unwrap().index_rebuilt);
        let after = fsck(&dir, false).unwrap();
        assert_eq!(after.index_cache, IndexCacheState::Valid);
    }

    /// The name of the one file with extension `ext` under `shards/` of a
    /// one-shard store.
    fn shard_file(dir: &Path, ext: &str) -> String {
        fs::read_dir(dir.join(shard::SHARD_DIR))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
            .find(|name| name.ends_with(&format!(".{ext}")))
            .expect("one-shard store")
    }

    /// Fsck `dir`, expecting `problem` about `shards/<file>`; repair it,
    /// expecting exactly `quarantined` (names under `shards/`) moved
    /// aside; then expect a healthy store that still serves its loose
    /// tier.
    fn repair_to_healthy(dir: &Path, problem: ProblemKind, file: &str, quarantined: &[&str]) {
        let report = fsck(dir, false).unwrap();
        assert!(!report.healthy(), "{}", report.to_json());
        let rel = format!("{}/{file}", shard::SHARD_DIR);
        assert!(
            report.problems.iter().any(|p| p.kind == problem && p.file == rel),
            "{}",
            report.to_json()
        );
        let repaired = fsck(dir, true).unwrap();
        assert!(repaired.consistent_after(), "{}", repaired.to_json());
        let mut moved = repaired.repair.expect("repair acted").quarantined;
        moved.sort();
        let mut want: Vec<String> =
            quarantined.iter().map(|f| format!("{QUARANTINE_DIR}/{f}")).collect();
        want.sort();
        assert_eq!(moved, want);
        for f in quarantined {
            assert!(dir.join(QUARANTINE_DIR).join(f).is_file(), "{f} quarantined");
            assert!(!dir.join(shard::SHARD_DIR).join(f).exists(), "{f} moved");
        }
        let after = fsck(dir, false).unwrap();
        assert!(after.healthy(), "{}", after.to_json());
        assert!(Catalog::open(dir).unwrap().get("t0").unwrap().is_some(), "loose tier serves");
    }

    #[test]
    fn shard_manifest_of_another_generation_is_corrupt_shard() {
        let dir = tmp_dir("shard_gen");
        drop(loose_seeded_catalog(&dir, 2));
        let (shard, arena) = (shard_file(&dir, "shard"), shard_file(&dir, "arena"));
        let path = dir.join(shard::SHARD_DIR).join(&shard);
        let mut m = shard::read_shard_manifest(&path).unwrap();
        m.generation += 1;
        shard::write_shard_manifest(&path, &m).unwrap();
        repair_to_healthy(&dir, ProblemKind::CorruptShard, &shard, &[&shard, &arena]);
    }

    #[test]
    fn deleted_shard_manifest_is_missing_shard() {
        let dir = tmp_dir("shard_missing");
        drop(loose_seeded_catalog(&dir, 2));
        let (shard, arena) = (shard_file(&dir, "shard"), shard_file(&dir, "arena"));
        fs::remove_file(dir.join(shard::SHARD_DIR).join(&shard)).unwrap();
        repair_to_healthy(&dir, ProblemKind::MissingShard, &shard, &[&arena]);
    }

    #[test]
    fn stray_arena_is_orphan_shard() {
        let dir = tmp_dir("shard_orphan");
        drop(loose_seeded_catalog(&dir, 2));
        let stray = "s000-deadbeef.arena";
        fs::write(dir.join(shard::SHARD_DIR).join(stray), b"not an arena").unwrap();
        repair_to_healthy(&dir, ProblemKind::OrphanShard, stray, &[stray]);
    }

    #[test]
    fn corrupt_manifest_reported_not_repaired() {
        let dir = tmp_dir("manifest");
        drop(seeded_catalog(&dir, 2));
        let path = dir.join(catalog::MANIFEST_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0x80;
        fs::write(&path, &bytes).unwrap();

        let report = fsck(&dir, true).unwrap();
        assert!(report.problems.iter().any(|p| p.kind == ProblemKind::CorruptManifest));
        assert!(!report.healthy());
        assert!(!report.consistent_after(), "a corrupt manifest is not repairable");
        assert!(report.repair.is_none());
    }
}
