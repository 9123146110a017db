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

use crate::catalog::{
    self, fingerprint_pairs, read_index_cache, read_index_engine, Catalog, ManifestEntry,
};
use crate::durable;
use crate::error::{StoreError, StoreResult};
use crate::ser;
use crate::shard::{self, ArenaIndex, ShardManifest, ShardMeta};
use crate::wire::escape_json;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use tsfm_sketch::SketchConfig;

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
    let manifest_path = dir.join(catalog::MANIFEST_FILE);
    if !manifest_path.exists() {
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

    let manifest = catalog::read_manifest(&manifest_path);
    let (cfg, entries, metas, tombstones) = match manifest {
        Ok(v) => v,
        Err(e) => {
            report.problems.push(Problem {
                kind: ProblemKind::CorruptManifest,
                file: catalog::MANIFEST_FILE.to_string(),
                table: None,
                detail: e.to_string(),
            });
            // Still classify the index cache so the report is complete,
            // even though nothing can validate its fingerprint.
            report.index_cache = match read_index_cache(&dir.join(catalog::INDEX_FILE)) {
                Ok(_) => IndexCacheState::Stale,
                Err(StoreError::Io(ref io)) if io.kind() == std::io::ErrorKind::NotFound => {
                    IndexCacheState::Absent
                }
                Err(e) => IndexCacheState::Corrupt(e.to_string()),
            };
            return Ok(report);
        }
    };
    let sharded_total: u64 = metas.iter().flatten().map(|m| m.entry_count).sum();
    report.tables = entries.len()
        + sharded_total.saturating_sub(tombstones.len() as u64) as usize;

    // ---- loose tier: every record's checksum and manifest agreement ----
    // A bad run slot drops only its own table; a missing or unreadable
    // run drops every table it held.
    let seg_dir = dir.join(catalog::SEGMENT_DIR);
    let mut bad_tables: Vec<String> = Vec::new();
    let mut runs: BTreeMap<&str, Result<ArenaIndex, (ProblemKind, String)>> = BTreeMap::new();
    for (id, entry) in &entries {
        let path = seg_dir.join(&entry.segment);
        let rec = match entry.slot {
            Some(slot) => {
                match runs.entry(&entry.segment).or_insert_with(|| {
                    ArenaIndex::open_run(&path).map_err(segment_problem)
                }) {
                    Ok(run) => run.read_record(slot as usize).map_err(segment_problem),
                    Err(problem) => Err(problem.clone()),
                }
            }
            None => durable::read_file_checked(&path, |s| {
                let mut header = *s;
                let version = ser::read_frame_header(&mut header, ser::SEGMENT_MAGIC, "segment");
                if version.ok() == Some(ser::LEGACY_VERSION) {
                    report.v1_segments += 1;
                }
                ser::read_record(s)
            })
            .map_err(segment_problem),
        };
        let (kind, detail) = match rec {
            Ok(rec) if rec.content_hash == entry.content_hash && rec.table_id() == id => {
                report.segments_ok += 1;
                continue;
            }
            Ok(rec) => (
                ProblemKind::CorruptSegment,
                format!(
                    "record holds table {:?} hash {:#x}, manifest expects {id:?} hash {:#x}",
                    rec.table_id(),
                    rec.content_hash,
                    entry.content_hash
                ),
            ),
            Err(problem) => problem,
        };
        report.problems.push(Problem {
            kind,
            file: format!("{}/{}", catalog::SEGMENT_DIR, entry.segment),
            table: Some(id.clone()),
            detail,
        });
        bad_tables.push(id.clone());
    }
    // A damaged file no surviving entry references is moved aside; one
    // that still backs other tables stays where they read it.
    let surviving: BTreeSet<&str> = entries
        .iter()
        .filter(|(id, _)| !bad_tables.contains(id))
        .map(|(_, e)| e.segment.as_str())
        .collect();
    let mut quarantine: Vec<PathBuf> = bad_tables
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
    let space = metas.len() as u32;
    let mut bad_shards: Vec<u32> = Vec::new();
    let mut shard_quarantine: Vec<PathBuf> = Vec::new();
    let mut shard_dropped: Vec<String> = Vec::new();
    let mut shard_manifests: Vec<Option<ShardManifest>> = vec![None; metas.len()];
    for meta in metas.iter().flatten() {
        let srel = format!("{}/{}", shard::SHARD_DIR, meta.shard_file());
        let arel = format!("{}/{}", shard::SHARD_DIR, meta.arena_file());
        let spath = shard_dir.join(meta.shard_file());
        let apath = shard_dir.join(meta.arena_file());
        let mut shard_ok = true;

        let sm = if spath.exists() {
            match shard::read_shard_manifest(&spath) {
                Ok(m) => {
                    if m.index != meta.index
                        || m.generation != meta.generation
                        || m.shard_count != space
                        || m.entries.len() as u64 != meta.entry_count
                    {
                        report.problems.push(Problem {
                            kind: ProblemKind::CorruptShard,
                            file: srel.clone(),
                            table: None,
                            detail: format!(
                                "shard file says (shard {} of {}, generation {}, {} entries); \
                                 root manifest says (shard {} of {space}, generation {}, {} \
                                 entries)",
                                m.index,
                                m.shard_count,
                                m.generation,
                                m.entries.len(),
                                meta.index,
                                meta.generation,
                                meta.entry_count
                            ),
                        });
                        shard_ok = false;
                    }
                    Some(m)
                }
                Err(e) => {
                    report.problems.push(Problem {
                        kind: ProblemKind::CorruptShard,
                        file: srel.clone(),
                        table: None,
                        detail: e.to_string(),
                    });
                    shard_ok = false;
                    None
                }
            }
        } else {
            report.problems.push(Problem {
                kind: ProblemKind::MissingShard,
                file: srel.clone(),
                table: None,
                detail: "root manifest references a shard file that is not on disk".to_string(),
            });
            shard_ok = false;
            None
        };

        match ArenaIndex::open(&apath, meta) {
            Ok(arena) => {
                // A CRC-verified positioned read of every *active* slot
                // (tombstoned or loose-shadowed slots are dead data).
                if let Some(m) = sm.as_ref().filter(|_| shard_ok) {
                    for (i, e) in m.entries.iter().enumerate() {
                        if tombstones.contains(&e.id) || entries.contains_key(&e.id) {
                            continue;
                        }
                        let slot_ok = match arena.read_record(i) {
                            Ok(rec) => {
                                if rec.content_hash == e.content_hash && rec.table_id() == e.id {
                                    Ok(())
                                } else {
                                    Err(format!(
                                        "slot {i} holds table {:?} hash {:#x}, shard manifest \
                                         expects {:?} hash {:#x}",
                                        rec.table_id(),
                                        rec.content_hash,
                                        e.id,
                                        e.content_hash
                                    ))
                                }
                            }
                            Err(err) => Err(err.to_string()),
                        };
                        match slot_ok {
                            Ok(()) => report.segments_ok += 1,
                            Err(detail) => {
                                report.problems.push(Problem {
                                    kind: ProblemKind::CorruptShard,
                                    file: arel.clone(),
                                    table: Some(e.id.clone()),
                                    detail,
                                });
                                shard_ok = false;
                            }
                        }
                    }
                }
            }
            Err(err) => {
                let kind = match &err {
                    StoreError::Io(io) if io.kind() == std::io::ErrorKind::NotFound => {
                        ProblemKind::MissingShard
                    }
                    _ => ProblemKind::CorruptShard,
                };
                report.problems.push(Problem {
                    kind,
                    file: arel.clone(),
                    table: None,
                    detail: err.to_string(),
                });
                shard_ok = false;
            }
        }

        if shard_ok {
            shard_manifests[meta.index as usize] = sm;
        } else {
            bad_shards.push(meta.index);
            for p in [&spath, &apath] {
                if p.exists() {
                    shard_quarantine.push(p.clone());
                }
            }
            if let Some(m) = &sm {
                shard_dropped.extend(
                    m.entries
                        .iter()
                        .filter(|e| !tombstones.contains(&e.id) && !entries.contains_key(&e.id))
                        .map(|e| e.id.clone()),
                );
            }
        }
    }

    // ---- orphans and staging leftovers ----
    let referenced: std::collections::BTreeSet<&str> =
        entries.values().map(|e| e.segment.as_str()).collect();
    let mut tmp_files: Vec<PathBuf> = Vec::new();
    if seg_dir.is_dir() {
        let mut names: Vec<String> = fs::read_dir(&seg_dir)?
            .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().to_string()))
            .collect();
        names.sort();
        for name in names {
            if referenced.contains(name.as_str()) {
                continue;
            }
            let path = seg_dir.join(&name);
            let rel = format!("{}/{name}", catalog::SEGMENT_DIR);
            if name.ends_with(".tmp") {
                report.problems.push(Problem {
                    kind: ProblemKind::TmpFile,
                    file: rel,
                    table: None,
                    detail: "staging file left by an interrupted commit".to_string(),
                });
                tmp_files.push(path);
            } else {
                report.problems.push(Problem {
                    kind: ProblemKind::OrphanSegment,
                    file: rel,
                    table: None,
                    detail: "no manifest entry references this file".to_string(),
                });
                quarantine.push(path);
            }
        }
    }
    // Files under shards/ no root-manifest meta references: leftovers of
    // a compaction that crashed before its root-manifest flip.
    if shard_dir.is_dir() {
        let shard_referenced: BTreeSet<String> = metas
            .iter()
            .flatten()
            .flat_map(|m| [m.shard_file(), m.arena_file()])
            .collect();
        let mut names: Vec<String> = fs::read_dir(&shard_dir)?
            .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().to_string()))
            .collect();
        names.sort();
        for name in names {
            if shard_referenced.contains(&name) {
                continue;
            }
            let path = shard_dir.join(&name);
            let rel = format!("{}/{name}", shard::SHARD_DIR);
            if name.ends_with(".tmp") {
                report.problems.push(Problem {
                    kind: ProblemKind::TmpFile,
                    file: rel,
                    table: None,
                    detail: "staging file left by an interrupted commit".to_string(),
                });
                tmp_files.push(path);
            } else {
                report.problems.push(Problem {
                    kind: ProblemKind::OrphanShard,
                    file: rel,
                    table: None,
                    detail: "no root-manifest shard references this file".to_string(),
                });
                shard_quarantine.push(path);
            }
        }
    }
    for staging in ["catalog.tmp", "index.tmp"] {
        let path = dir.join(staging);
        if path.exists() {
            report.problems.push(Problem {
                kind: ProblemKind::TmpFile,
                file: staging.to_string(),
                table: None,
                detail: "staging file left by an interrupted commit".to_string(),
            });
            tmp_files.push(path);
        }
    }

    // ---- index cache ----
    // The fingerprint covers the merged active contents of both tiers;
    // with any shard unreadable the expected value is unknowable, so a
    // readable cache degrades to Stale (rebuilt on repair), not Corrupt.
    let merged_fp = if bad_shards.is_empty() {
        let mut pairs: Vec<(&str, u64)> =
            entries.iter().map(|(id, e)| (id.as_str(), e.content_hash)).collect();
        for m in shard_manifests.iter().flatten() {
            for e in &m.entries {
                if !tombstones.contains(&e.id) && !entries.contains_key(&e.id) {
                    pairs.push((e.id.as_str(), e.content_hash));
                }
            }
        }
        pairs.sort_unstable();
        Some(fingerprint_pairs(&cfg, pairs.into_iter()))
    } else {
        None
    };
    let index_path = dir.join(catalog::INDEX_FILE);
    report.index_cache = if index_path.exists() {
        match read_index_engine(&index_path, cfg.minhash_k) {
            Ok((fp, ..)) if merged_fp == Some(fp) => IndexCacheState::Valid,
            Ok(_) => IndexCacheState::Stale,
            Err(e) => IndexCacheState::Corrupt(e.to_string()),
        }
    } else {
        IndexCacheState::Absent
    };

    if repair {
        let summary = run_repair(
            dir,
            &cfg,
            &entries,
            &bad_tables,
            &quarantine,
            &tmp_files,
            &report.index_cache,
            &ShardRepair {
                metas: &metas,
                tombstones: &tombstones,
                bad_shards: &bad_shards,
                quarantine: &shard_quarantine,
                dropped: &shard_dropped,
            },
        )?;
        if summary.actions() > 0 {
            tsfm_obs::metrics::global()
                .counter("tsfm_store_fsck_repairs_total", "Repair actions taken by tsfm fsck")
                .add(summary.actions());
            report.repair = Some(summary);
        }
    }
    Ok(report)
}

/// What a failed read of a loose record's file reports.
fn segment_problem(e: StoreError) -> (ProblemKind, String) {
    match e {
        StoreError::Io(io) if io.kind() == std::io::ErrorKind::NotFound => (
            ProblemKind::MissingSegment,
            "manifest references a segment that is not on disk".to_string(),
        ),
        e => (ProblemKind::CorruptSegment, e.to_string()),
    }
}

/// The shard-layer inputs to [`run_repair`], bundled.
struct ShardRepair<'a> {
    metas: &'a [Option<ShardMeta>],
    tombstones: &'a BTreeSet<String>,
    /// Indices of shards to quarantine as a unit.
    bad_shards: &'a [u32],
    /// Shard-layer files (bad shards' pairs + orphans) to move aside.
    quarantine: &'a [PathBuf],
    /// Active table ids lost with the bad shards (where known).
    dropped: &'a [String],
}

#[allow(clippy::too_many_arguments)]
fn run_repair(
    dir: &Path,
    cfg: &SketchConfig,
    entries: &BTreeMap<String, ManifestEntry>,
    bad_tables: &[String],
    quarantine: &[PathBuf],
    tmp_files: &[PathBuf],
    index_state: &IndexCacheState,
    shards: &ShardRepair<'_>,
) -> StoreResult<RepairSummary> {
    let mut summary = RepairSummary::default();

    if !quarantine.is_empty() {
        let qdir = dir.join(QUARANTINE_DIR);
        fs::create_dir_all(&qdir)?;
        for path in quarantine {
            let name = path.file_name().map(|n| n.to_string_lossy().to_string());
            let Some(name) = name else { continue };
            fs::rename(path, qdir.join(&name))?;
            summary.quarantined.push(format!("{QUARANTINE_DIR}/{name}"));
        }
        durable::sync_dir(&dir.join(catalog::SEGMENT_DIR))?;
    }
    if !shards.quarantine.is_empty() {
        let qdir = dir.join(QUARANTINE_DIR);
        fs::create_dir_all(&qdir)?;
        for path in shards.quarantine {
            let name = path.file_name().map(|n| n.to_string_lossy().to_string());
            let Some(name) = name else { continue };
            fs::rename(path, qdir.join(&name))?;
            summary.quarantined.push(format!("{QUARANTINE_DIR}/{name}"));
        }
        durable::sync_dir(&dir.join(shard::SHARD_DIR))?;
    }
    for path in tmp_files {
        fs::remove_file(path)?;
        summary
            .removed_tmp
            .push(path.file_name().map_or_else(String::new, |n| n.to_string_lossy().to_string()));
    }

    let entries_changed = !bad_tables.is_empty();
    let shards_changed = !shards.bad_shards.is_empty();
    if entries_changed || shards_changed {
        let mut pruned = entries.clone();
        for id in bad_tables {
            pruned.remove(id);
            summary.dropped_tables.push(id.clone());
        }
        summary.dropped_tables.extend(shards.dropped.iter().cloned());
        summary.dropped_tables.sort_unstable();
        // A quarantined shard leaves a hole in the space (its slice of
        // the namespace is empty until the next compaction heals it);
        // tombstones pointing into a hole mark nothing and are dropped.
        let mut metas_after = shards.metas.to_vec();
        for &i in shards.bad_shards {
            metas_after[i as usize] = None;
        }
        let mut tombs_after = shards.tombstones.clone();
        if !metas_after.is_empty() {
            let space = metas_after.len() as u32;
            tombs_after.retain(|id| metas_after[shard::shard_of(id, space) as usize].is_some());
        }
        catalog::write_manifest_file(
            &dir.join(catalog::MANIFEST_FILE),
            cfg,
            &pruned,
            &metas_after,
            &tombs_after,
        )?;
    }

    // Rebuild derived state whenever it cannot be trusted as-is: the
    // manifest changed under it, or it was stale/corrupt to begin with.
    if entries_changed || shards_changed || !matches!(index_state, IndexCacheState::Valid) {
        let _ = fs::remove_file(dir.join(catalog::INDEX_FILE));
        let mut cat = Catalog::open_with(dir, cfg.clone())?;
        cat.searcher()?;
        cat.commit()?;
        summary.index_rebuilt = true;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
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
