//! Property tests for the store's binary frames (the `nn::io` lesson from
//! the `TSFMCKP1` work, extended to every store format: `TSFMHNS1`,
//! `TSFMCAT1`, `TSFMSEG1`, `TSFMEMB1`, and `TSFMIDX1`): any truncated or
//! garbled frame must come back as a typed `Err` — never a panic, and
//! never an attacker-sized `with_capacity` allocation. Since the v2
//! frames carry CRC32C, the garble properties are strict: *any* single
//! flipped bit anywhere in a frame is a typed `Corrupt` error, not a
//! silently different value. The catalog manifest additionally goes
//! through `Catalog::open`, and the index cache through
//! `catalog::read_index_cache` — the paths corrupt files on disk
//! actually take in production.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use tsfm_store::ser::{
    read_embedding_matrix, read_hnsw, read_record, write_embedding_matrix, write_hnsw,
};
use tsfm_store::shard::{read_shard_manifest, ArenaIndex, ShardMeta};
use tsfm_store::fsck::{fsck, IndexCacheState};
use tsfm_store::{catalog, Catalog, QueryEngine, StoreError};
use tsfm_table::csv;
use tsfm_search::{Hnsw, HnswConfig, Metric};

/// A unique temp dir per call (cases run back to back within a process).
fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "tsfm_ser_prop_{tag}_{}_{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A small but structurally complete HNSW frame: multiple layers, real
/// neighbour lists.
fn hnsw_bytes(points: usize, seed: u64) -> Vec<u8> {
    let mut h = Hnsw::new(4, Metric::Cosine, HnswConfig::default());
    for i in 0..points as u32 {
        let v: Vec<f32> =
            (0..4).map(|j| ((i as u64 * 7 + j + seed) % 13) as f32 - 6.0).collect();
        h.add(&v);
    }
    let mut buf = Vec::new();
    write_hnsw(&mut buf, &h).expect("serialize");
    buf
}

/// A committed catalog manifest (`TSFMCAT1`) with a few real tables.
fn manifest_bytes(tables: usize) -> Vec<u8> {
    let dir = tmp_dir("make_manifest");
    let mut cat = Catalog::open(&dir).expect("open");
    for i in 0..tables {
        let t = csv::table_from_csv(
            &format!("t{i}"),
            &format!("t{i}"),
            &format!("city,pop\nVienna{i},{}\n", 100 + i),
        );
        cat.add_table(&t, i as u64 + 1).expect("add");
    }
    cat.commit().expect("commit");
    let path = cat.manifest_path();
    drop(cat);
    let bytes = std::fs::read(path).expect("read manifest");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// A committed `TSFMSEG1` frame (with its nested `TSFMEMB1` frame) as
/// written by the real ingest path, read out of its loose run's slot.
fn segment_bytes(rows: usize) -> Vec<u8> {
    let dir = tmp_dir("make_segment");
    let mut cat = Catalog::open(&dir).expect("open");
    // A first commit folds into a shard arena; over five shard residents
    // a one-table commit stays loose and writes a run.
    for i in 0..5 {
        let id = format!("base{i}");
        let t = csv::table_from_csv(&id, &id, &format!("city,pop\nLinz{i},{i}\n"));
        cat.add_table(&t, 1000 + i).expect("add baseline");
    }
    cat.commit().expect("fold baseline");
    let csv_text = (0..rows).fold("city,pop\n".to_string(), |mut acc, i| {
        acc.push_str(&format!("Graz{i},{}\n", 200 + i));
        acc
    });
    let t = csv::table_from_csv("seg", "seg", &csv_text);
    cat.add_table(&t, 77).expect("add");
    cat.commit().expect("commit");
    let entry = cat.entry("seg").expect("entry").clone();
    let run = ArenaIndex::open_run(&dir.join("segments").join(&entry.segment)).expect("run");
    let bytes = run.read_payload(entry.slot.expect("a run slot") as usize).expect("read slot");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// A committed `TSFMIDX1` index cache file, built by the real snapshot
/// path.
fn index_cache_bytes(tables: usize) -> Vec<u8> {
    let dir = tmp_dir("make_index");
    let mut cat = Catalog::open(&dir).expect("open");
    for i in 0..tables {
        let t = csv::table_from_csv(
            &format!("t{i}"),
            &format!("t{i}"),
            &format!("city,pop\nLinz{i},{}\n", 300 + i),
        );
        cat.add_table(&t, i as u64 + 1).expect("add");
    }
    cat.searcher().expect("searcher");
    cat.commit().expect("commit");
    let bytes = std::fs::read(dir.join("index.cache")).expect("read index cache");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// A catalog whose committed index cache carries a tag-2 engine-meta
/// section — an updated engine's: after the first snapshot, `t0` is
/// replaced (its span dies) and one table is added, so the next snapshot
/// is derived incrementally and writes every span behind a live byte.
fn tag2_catalog(tables: usize) -> PathBuf {
    let dir = tmp_dir("make_tag2");
    let mut cat = Catalog::open(&dir).expect("open");
    let linz = |i: usize, pop: usize| {
        let id = format!("t{i}");
        csv::table_from_csv(&id, &id, &format!("city,pop\nLinz{i},{pop}\n"))
    };
    for i in 0..tables {
        cat.add_table(&linz(i, 300 + i), i as u64 + 1).expect("add");
    }
    cat.searcher().expect("searcher");
    cat.add_table(&linz(0, 999), 999).expect("replace");
    cat.add_table(&linz(tables, 300 + tables), 1000).expect("add");
    cat.searcher().expect("incremental searcher");
    cat.commit().expect("commit");
    dir
}

/// Offset of the engine-meta section in index cache bytes: past the
/// 24-byte frame header, the fingerprint, and the two `TSFMHNS1` frames.
fn meta_offset(bytes: &[u8]) -> usize {
    let frame_len = |at: usize| {
        24 + u64::from_le_bytes(bytes[at + 12..at + 20].try_into().expect("8 bytes")) as usize
    };
    let join = 24 + 8;
    let union = join + frame_len(join);
    union + frame_len(union)
}

/// [`tag2_catalog`]'s index cache bytes and where its meta section starts.
fn tag2_index_cache_bytes(tables: usize) -> (Vec<u8>, usize) {
    let dir = tag2_catalog(tables);
    let bytes = std::fs::read(dir.join("index.cache")).expect("read index cache");
    let _ = std::fs::remove_dir_all(&dir);
    let meta = meta_offset(&bytes);
    assert_eq!(bytes[meta], 2, "an updated engine writes meta tag 2");
    (bytes, meta)
}

/// Recompute a v2 frame's CRC after editing its payload (and its length
/// after truncating it), so the bytes reach the section parsers.
fn reseal(bytes: &mut [u8]) {
    let len = (bytes.len() - 24) as u64;
    bytes[12..20].copy_from_slice(&len.to_le_bytes());
    let crc = tsfm_store::durable::crc32c(&bytes[24..]);
    bytes[20..24].copy_from_slice(&crc.to_le_bytes());
}

/// Parse resealed cache bytes all the way to an engine: every failure
/// must be a typed `Corrupt`, and nothing may panic.
fn engine_from_bytes(bytes: &[u8]) -> Result<(), StoreError> {
    let dir = tmp_dir("tag2_engine");
    let path = dir.join("index.cache");
    std::fs::write(&path, bytes).unwrap();
    let res = catalog::read_index_cache(&path).and_then(|(_, join, union, meta)| {
        let meta = meta.ok_or_else(|| StoreError::corrupt("TSFMIDX1", "meta section missing"))?;
        let k = tsfm_sketch::SketchConfig::default().minhash_k;
        QueryEngine::from_meta(meta, k, join, union).map(|_| ())
    });
    let _ = std::fs::remove_dir_all(&dir);
    res
}

/// Run `catalog::read_index_cache` over raw bytes staged as a file (its
/// only entry point takes a path).
fn read_index_bytes(bytes: &[u8]) -> Result<u64, StoreError> {
    let dir = tmp_dir("read_index");
    let path = dir.join("index.cache");
    std::fs::write(&path, bytes).unwrap();
    let res = catalog::read_index_cache(&path).map(|(fp, ..)| fp);
    let _ = std::fs::remove_dir_all(&dir);
    res
}

/// A small `TSFMEMB1` embedding-matrix frame.
fn embedding_bytes(rows: usize, dim: usize, seed: u64) -> Vec<u8> {
    let matrix: Vec<Vec<f32>> = (0..rows)
        .map(|i| (0..dim).map(|j| ((i * dim + j) as u64 + seed) as f32 * 0.25).collect())
        .collect();
    let mut buf = Vec::new();
    write_embedding_matrix(&mut buf, &matrix, dim).expect("serialize");
    buf
}

/// A committed, compacted shard — `TSFMSHD1` manifest bytes, `TSFMARN1`
/// arena bytes, and the root-manifest metadata needed to open the arena
/// — built by the real compaction path.
fn sharded_bytes(tables: usize) -> (Vec<u8>, Vec<u8>, ShardMeta) {
    let dir = tmp_dir("make_shard");
    let mut cat = Catalog::open(&dir).expect("open");
    for i in 0..tables {
        let t = csv::table_from_csv(
            &format!("t{i}"),
            &format!("t{i}"),
            &format!("city,pop\nWels{i},{}\n", 400 + i),
        );
        cat.add_table(&t, i as u64 + 1).expect("add");
    }
    cat.compact().expect("compact");
    drop(cat);
    let mut shard_path = None;
    let mut arena_path = None;
    for e in std::fs::read_dir(dir.join("shards")).expect("shards dir") {
        let p = e.expect("dirent").path();
        match p.extension().and_then(|x| x.to_str()) {
            Some("shard") => shard_path = Some(p),
            Some("arena") => arena_path = Some(p),
            _ => {}
        }
    }
    let (shard_path, arena_path) = (shard_path.expect("shard file"), arena_path.expect("arena"));
    let m = read_shard_manifest(&shard_path).expect("valid shard manifest");
    let meta = ShardMeta {
        index: m.index,
        generation: m.generation,
        entry_count: m.entries.len() as u64,
        total_rows: 0,
        total_cols: 0,
        arena_bytes: std::fs::metadata(&arena_path).expect("arena meta").len(),
    };
    let shard = std::fs::read(shard_path).expect("read shard");
    let arena = std::fs::read(arena_path).expect("read arena");
    let _ = std::fs::remove_dir_all(&dir);
    (shard, arena, meta)
}

/// Run `read_shard_manifest` over raw bytes staged as a file (its entry
/// point takes a path, like the catalog open path that calls it).
fn read_shard_bytes(bytes: &[u8]) -> Result<usize, StoreError> {
    let dir = tmp_dir("read_shard");
    let path = dir.join("probe.shard");
    std::fs::write(&path, bytes).unwrap();
    let res = read_shard_manifest(&path).map(|m| m.entries.len());
    let _ = std::fs::remove_dir_all(&dir);
    res
}

/// Open staged arena bytes against `meta` and drag every slot through
/// both the raw positioned read and the record decode — the full lazy
/// read path a corrupt arena would hit in production.
fn probe_arena(bytes: &[u8], meta: &ShardMeta) -> Result<(), StoreError> {
    let dir = tmp_dir("read_arena");
    let path = dir.join(meta.arena_file());
    std::fs::write(&path, bytes).unwrap();
    let res = (|| {
        let arena = ArenaIndex::open(&path, meta)?;
        for slot in 0..arena.slots.len() {
            arena.read_payload(slot)?;
            arena.read_record(slot)?;
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    res
}

/// Re-open a catalog whose manifest has been replaced by `bytes`; the
/// result must be a typed error or a coherent catalog — never a panic.
fn open_with_manifest(bytes: &[u8]) -> Result<usize, StoreError> {
    let dir = tmp_dir("open");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("catalog.manifest"), bytes).unwrap();
    let res = Catalog::open(&dir).map(|c| c.len());
    let _ = std::fs::remove_dir_all(&dir);
    res
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every strict prefix of a valid `TSFMHNS1` frame is a typed
    /// `Corrupt` error — EOF mid-frame must not panic and must not be
    /// misread as a shorter valid graph.
    #[test]
    fn prop_truncated_hnsw_is_corrupt(points in 1usize..40, frac in 0.0f64..1.0) {
        let buf = hnsw_bytes(points, 11);
        let cut = ((buf.len() - 1) as f64 * frac) as usize;
        match read_hnsw(&mut &buf[..cut]) {
            Err(StoreError::Corrupt { format, .. }) => prop_assert_eq!(format, "TSFMHNS1"),
            Err(other) => prop_assert!(false, "non-Corrupt error: {other:?}"),
            Ok(_) => prop_assert!(false, "truncated frame parsed"),
        }
    }

    /// Any single flipped bit anywhere in a `TSFMHNS1` frame is a typed
    /// `Corrupt` error — payload flips die on the CRC, header flips die
    /// in validation, and nothing panics or allocates attacker-sized
    /// buffers.
    #[test]
    fn prop_garbled_hnsw_is_detected(points in 1usize..40, pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut buf = hnsw_bytes(points, 23);
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= 1 << bit;
        match read_hnsw(&mut buf.as_slice()) {
            Err(StoreError::Corrupt { format, .. }) => prop_assert_eq!(format, "TSFMHNS1"),
            Err(other) => prop_assert!(false, "non-Corrupt error: {other:?}"),
            Ok(_) => prop_assert!(false, "flipped bit at {pos} (bit {bit}) went undetected"),
        }
    }

    /// Huge length fields spliced into the element-count position must be
    /// rejected by the `MAX_*` bounds, not allocated.
    #[test]
    fn prop_hostile_hnsw_lengths_rejected(count in (1u64 << 32)..u64::MAX) {
        let mut buf = hnsw_bytes(8, 5);
        // Overwrite the first u64 after the 8-byte magic with a hostile
        // count; whatever field that is, a >4G element claim must die in
        // validation before any `with_capacity`.
        buf[8..16].copy_from_slice(&count.to_le_bytes());
        prop_assert!(read_hnsw(&mut buf.as_slice()).is_err());
    }

    /// Every strict prefix of a committed `TSFMCAT1` manifest makes
    /// `Catalog::open` fail with a typed error — never a panic.
    #[test]
    fn prop_truncated_manifest_is_typed_error(tables in 1usize..6, frac in 0.0f64..1.0) {
        let bytes = manifest_bytes(tables);
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        match open_with_manifest(&bytes[..cut]) {
            Err(StoreError::Corrupt { format, .. }) => prop_assert_eq!(format, "TSFMCAT1"),
            Err(StoreError::Io(_)) => {} // zero-length file reads as io
            Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
            Ok(_) => prop_assert!(false, "truncated manifest opened"),
        }
    }

    /// Any single flipped bit in a committed `TSFMCAT1` manifest makes
    /// `Catalog::open` fail with a typed `Corrupt` error — a garbled
    /// manifest must never open as a silently different catalog.
    #[test]
    fn prop_garbled_manifest_is_detected(tables in 1usize..6, pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = manifest_bytes(tables);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        match open_with_manifest(&bytes) {
            Err(StoreError::Corrupt { format, .. }) => prop_assert_eq!(format, "TSFMCAT1"),
            Err(other) => prop_assert!(false, "non-Corrupt error: {other:?}"),
            Ok(_) => prop_assert!(false, "flipped bit at {pos} (bit {bit}) went undetected"),
        }
    }

    /// Every strict prefix of a real `TSFMSEG1` segment is a typed
    /// `Corrupt` error. Truncation inside the nested embedding frame may
    /// attribute to `TSFMEMB1`; either way it is corruption, not a panic.
    #[test]
    fn prop_truncated_segment_is_corrupt(rows in 1usize..30, frac in 0.0f64..1.0) {
        let buf = segment_bytes(rows);
        let cut = ((buf.len() - 1) as f64 * frac) as usize;
        match read_record(&mut &buf[..cut]) {
            Err(StoreError::Corrupt { format, .. }) => {
                prop_assert!(format == "TSFMSEG1" || format == "TSFMEMB1", "format {format}")
            }
            Err(other) => prop_assert!(false, "non-Corrupt error: {other:?}"),
            Ok(_) => prop_assert!(false, "truncated segment parsed"),
        }
    }

    /// Any single flipped bit in a real `TSFMSEG1` segment is a typed
    /// `Corrupt` error — the outer CRC covers the whole record, nested
    /// embedding frame included.
    #[test]
    fn prop_garbled_segment_is_detected(rows in 1usize..30, pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut buf = segment_bytes(rows);
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= 1 << bit;
        match read_record(&mut buf.as_slice()) {
            Err(StoreError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "non-Corrupt error: {other:?}"),
            Ok(_) => prop_assert!(false, "flipped bit at {pos} (bit {bit}) went undetected"),
        }
    }

    /// Every strict prefix of a `TSFMEMB1` embedding matrix is a typed
    /// `Corrupt` error.
    #[test]
    fn prop_truncated_embeddings_are_corrupt(rows in 1usize..20, dim in 1usize..8, frac in 0.0f64..1.0) {
        let buf = embedding_bytes(rows, dim, 3);
        let cut = ((buf.len() - 1) as f64 * frac) as usize;
        match read_embedding_matrix(&mut &buf[..cut]) {
            Err(StoreError::Corrupt { format, .. }) => prop_assert_eq!(format, "TSFMEMB1"),
            Err(other) => prop_assert!(false, "non-Corrupt error: {other:?}"),
            Ok(_) => prop_assert!(false, "truncated matrix parsed"),
        }
    }

    /// Any single flipped bit in a `TSFMEMB1` frame is a typed `Corrupt`
    /// error — embedding floats are exactly the payload where a silent
    /// flip would skew every downstream distance, so the CRC must catch
    /// all of them.
    #[test]
    fn prop_garbled_embeddings_are_detected(rows in 1usize..20, dim in 1usize..8, pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut buf = embedding_bytes(rows, dim, 9);
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= 1 << bit;
        match read_embedding_matrix(&mut buf.as_slice()) {
            Err(StoreError::Corrupt { format, .. }) => prop_assert_eq!(format, "TSFMEMB1"),
            Err(other) => prop_assert!(false, "non-Corrupt error: {other:?}"),
            Ok(_) => prop_assert!(false, "flipped bit at {pos} (bit {bit}) went undetected"),
        }
    }
}

// The shard-layer properties compact a real catalog per case — keep the
// case count lower, like the index-cache block below.
proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Every strict prefix of a committed `TSFMSHD1` shard manifest is a
    /// typed `Corrupt` error naming the shard format — never a panic.
    #[test]
    fn prop_truncated_shard_manifest_is_corrupt(tables in 1usize..6, frac in 0.0f64..1.0) {
        let (shard, _, _) = sharded_bytes(tables);
        let cut = ((shard.len() - 1) as f64 * frac) as usize;
        match read_shard_bytes(&shard[..cut]) {
            Err(StoreError::Corrupt { format, .. }) => prop_assert_eq!(format, "TSFMSHD1"),
            Err(StoreError::Io(_)) => {} // zero-length file reads as io
            Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
            Ok(_) => prop_assert!(false, "truncated shard manifest parsed"),
        }
    }

    /// Any single flipped bit in a committed `TSFMSHD1` shard manifest is
    /// a typed `Corrupt` error — the v2 frame CRC covers the whole body.
    #[test]
    fn prop_garbled_shard_manifest_is_detected(tables in 1usize..6, pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let (mut shard, _, _) = sharded_bytes(tables);
        let pos = ((shard.len() - 1) as f64 * pos_frac) as usize;
        shard[pos] ^= 1 << bit;
        match read_shard_bytes(&shard) {
            Err(StoreError::Corrupt { format, .. }) => prop_assert_eq!(format, "TSFMSHD1"),
            Err(other) => prop_assert!(false, "non-Corrupt error: {other:?}"),
            Ok(_) => prop_assert!(false, "flipped bit at {pos} (bit {bit}) went undetected"),
        }
    }

    /// Every strict prefix of a `TSFMARN1` arena dies on the length check
    /// against the root manifest before any offset in it is trusted, as a
    /// typed `Corrupt` naming the shard file and an offset.
    #[test]
    fn prop_truncated_arena_is_corrupt(tables in 1usize..6, frac in 0.0f64..1.0) {
        let (_, arena, meta) = sharded_bytes(tables);
        let cut = ((arena.len() - 1) as f64 * frac) as usize;
        match probe_arena(&arena[..cut], &meta) {
            Err(StoreError::Corrupt { format, file, offset, .. }) => {
                prop_assert_eq!(format, "TSFMARN1");
                prop_assert!(file.is_some(), "corruption must name the arena file");
                prop_assert!(offset.is_some(), "corruption must name an offset");
            }
            Err(other) => prop_assert!(false, "non-Corrupt error: {other:?}"),
            Ok(()) => prop_assert!(false, "truncated arena opened"),
        }
    }

    /// Any single flipped bit anywhere in a `TSFMARN1` arena — header,
    /// offset table, or payload region — surfaces as a typed `Corrupt`
    /// error with file + offset attribution somewhere on the lazy read
    /// path (open, positioned payload read, or record decode). Never a
    /// panic, never a silently different sketch.
    #[test]
    fn prop_garbled_arena_is_detected(tables in 1usize..6, pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let (_, mut arena, meta) = sharded_bytes(tables);
        let pos = ((arena.len() - 1) as f64 * pos_frac) as usize;
        arena[pos] ^= 1 << bit;
        match probe_arena(&arena, &meta) {
            Err(StoreError::Corrupt { file, offset, .. }) => {
                prop_assert!(file.is_some(), "corruption must name the arena file");
                prop_assert!(offset.is_some(), "corruption must name an offset");
            }
            Err(other) => prop_assert!(false, "non-Corrupt error: {other:?}"),
            Ok(()) => prop_assert!(false, "flipped bit at {pos} (bit {bit}) went undetected"),
        }
    }
}

// The index-cache properties build a real searcher per case, which is
// slower than the pure-frame ones — keep their case count lower.
proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Every strict prefix of a committed `TSFMIDX1` index cache is a
    /// typed `Corrupt` error through the real `read_index_cache` path.
    #[test]
    fn prop_truncated_index_cache_is_corrupt(tables in 1usize..4, frac in 0.0f64..1.0) {
        let buf = index_cache_bytes(tables);
        let cut = ((buf.len() - 1) as f64 * frac) as usize;
        match read_index_bytes(&buf[..cut]) {
            Err(StoreError::Corrupt { format, .. }) => prop_assert_eq!(format, "TSFMIDX1"),
            Err(other) => prop_assert!(false, "non-Corrupt error: {other:?}"),
            Ok(_) => prop_assert!(false, "truncated index cache parsed"),
        }
    }

    /// Any single flipped bit in a committed `TSFMIDX1` index cache is a
    /// typed `Corrupt` error — a garbled ANN graph must be rebuilt, not
    /// served.
    #[test]
    fn prop_garbled_index_cache_is_detected(tables in 1usize..4, pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut buf = index_cache_bytes(tables);
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= 1 << bit;
        match read_index_bytes(&buf) {
            Err(StoreError::Corrupt { format, .. }) => prop_assert_eq!(format, "TSFMIDX1"),
            Err(other) => prop_assert!(false, "non-Corrupt error: {other:?}"),
            Ok(_) => prop_assert!(false, "flipped bit at {pos} (bit {bit}) went undetected"),
        }
    }

    /// Every prefix of a tag-2 cache cut inside its meta section is a
    /// typed `Corrupt` error — and so is the same cut with the frame
    /// resealed around it, which only the section parser can catch.
    #[test]
    fn prop_truncated_tag2_meta_is_corrupt(tables in 5usize..8, frac in 0.0f64..1.0) {
        let (buf, meta) = tag2_index_cache_bytes(tables);
        let cut = meta + 1 + ((buf.len() - meta - 2) as f64 * frac) as usize;
        match read_index_bytes(&buf[..cut]) {
            Err(StoreError::Corrupt { format, .. }) => prop_assert_eq!(format, "TSFMIDX1"),
            Err(other) => prop_assert!(false, "non-Corrupt error: {other:?}"),
            Ok(_) => prop_assert!(false, "truncated index cache parsed"),
        }
        let mut sealed = buf[..cut].to_vec();
        reseal(&mut sealed);
        match engine_from_bytes(&sealed) {
            Err(StoreError::Corrupt { format, .. }) => prop_assert_eq!(format, "TSFMIDX1"),
            Err(other) => prop_assert!(false, "non-Corrupt error: {other:?}"),
            Ok(()) => prop_assert!(false, "meta section cut at {cut} parsed"),
        }
    }

    /// Any single flipped bit in a tag-2 meta section is a typed
    /// `Corrupt` error; resealed so the flip reaches the section parser
    /// and `QueryEngine::from_meta`, it is either still `Corrupt` or a
    /// structurally valid engine — never a panic.
    #[test]
    fn prop_garbled_tag2_meta_is_detected(tables in 5usize..8, pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let (mut buf, meta) = tag2_index_cache_bytes(tables);
        let pos = meta + ((buf.len() - 1 - meta) as f64 * pos_frac) as usize;
        buf[pos] ^= 1 << bit;
        match read_index_bytes(&buf) {
            Err(StoreError::Corrupt { format, .. }) => prop_assert_eq!(format, "TSFMIDX1"),
            Err(other) => prop_assert!(false, "non-Corrupt error: {other:?}"),
            Ok(_) => prop_assert!(false, "flipped bit at {pos} (bit {bit}) went undetected"),
        }
        reseal(&mut buf);
        if let Err(e) = engine_from_bytes(&buf) {
            prop_assert!(matches!(e, StoreError::Corrupt { .. }), "non-Corrupt error: {e:?}");
        }
    }
}

/// `fsck` verifies an updated engine's tag-2 cache like any other: the
/// checksums hold and the fingerprint matches the contents.
#[test]
fn fsck_reports_a_tag2_cache_valid() {
    let dir = tag2_catalog(6);
    let bytes = std::fs::read(dir.join("index.cache")).expect("read index cache");
    assert_eq!(bytes[meta_offset(&bytes)], 2);
    let report = fsck(&dir, false).expect("fsck");
    assert!(report.healthy(), "{}", report.to_json());
    assert_eq!(report.index_cache, IndexCacheState::Valid);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The detail of the `Corrupt` error attributed to `want` that `res`
/// must be.
fn corrupt_detail<T>(res: Result<T, StoreError>, want: &str) -> String {
    match res {
        Err(StoreError::Corrupt { format, detail, .. }) => {
            assert_eq!(format, want, "{detail}");
            detail
        }
        Err(other) => panic!("want a Corrupt {want} error, got {other:?}"),
        Ok(_) => panic!("want a Corrupt {want} error, the frame parsed"),
    }
}

/// A resealed `TSFMHNS1` frame whose vector buffer claims 2²⁸ floats —
/// the most the element bound allows, 1 GiB — in a body of a few hundred
/// bytes is rejected against the bytes left before anything is allocated.
#[test]
fn hnsw_claiming_2_28_floats_in_a_short_body_is_corrupt() {
    let mut buf = hnsw_bytes(8, 5);
    // dim, metric, m, ef_construction, ef_search, seed, rng state,
    // max level: 41 payload bytes, then the entry flag (and entry).
    let flag = 24 + 41;
    let count_at = if buf[flag] == 1 { flag + 9 } else { flag + 1 };
    buf[count_at..count_at + 8].copy_from_slice(&(1u64 << 28).to_le_bytes());
    reseal(&mut buf);
    let detail = corrupt_detail(read_hnsw(&mut buf.as_slice()), "TSFMHNS1");
    assert!(detail.contains("overruns"), "{detail}");
}

/// The same for a resealed `TSFMEMB1` frame claiming one row of 2²⁸
/// floats.
#[test]
fn embeddings_claiming_2_28_floats_in_a_short_body_is_corrupt() {
    let mut buf = embedding_bytes(3, 4, 1);
    buf[24..28].copy_from_slice(&1u32.to_le_bytes());
    buf[28..32].copy_from_slice(&(1u32 << 28).to_le_bytes());
    reseal(&mut buf);
    let detail = corrupt_detail(read_embedding_matrix(&mut buf.as_slice()), "TSFMEMB1");
    assert!(detail.contains("overruns"), "{detail}");
}

/// A resealed tag-2 cache that lists a table twice passes every checksum
/// but not `QueryEngine::from_meta`. fsck and the catalog agree that it is
/// corrupt: fsck says so, the catalog counts it as a corruption and
/// rebuilds, and the rewritten cache is valid again.
#[test]
fn a_tag2_cache_listing_a_table_twice_is_corrupt_for_fsck_and_catalog() {
    let dir = tag2_catalog(6);
    let path = dir.join("index.cache");
    let mut bytes = std::fs::read(&path).expect("read index cache");
    let meta = meta_offset(&bytes);
    assert_eq!(bytes[meta], 2);
    // The live span of `t1` — live byte, length 2, "t1" — renamed `t2`.
    let span = [1, 2, 0, 0, 0, b't', b'1'];
    let at = meta + bytes[meta..].windows(span.len()).position(|w| w == span).expect("t1's span");
    bytes[at + span.len() - 1] = b'2';
    reseal(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    let report = fsck(&dir, false).expect("fsck");
    assert!(
        matches!(&report.index_cache, IndexCacheState::Corrupt(why) if why.contains("twice")),
        "{}",
        report.to_json()
    );
    assert!(!report.healthy());

    let corruptions = || {
        tsfm_obs::metrics::global().counter("tsfm_store_corruptions_detected_total", "").get()
    };
    let before = corruptions();
    let mut cat = Catalog::open(&dir).expect("open");
    assert_eq!(cat.searcher().expect("rebuilt snapshot").len(), 7);
    assert!(corruptions() > before, "the rejected cache is counted");
    drop(cat);
    assert_ne!(std::fs::read(&path).unwrap(), bytes, "the cache is rewritten");
    let report = fsck(&dir, false).expect("fsck");
    assert!(report.healthy(), "{}", report.to_json());
    assert_eq!(report.index_cache, IndexCacheState::Valid);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Where node 0's layer-0 list starts in an `hnsw_bytes` frame: its
/// length field, after the header fields, the entry, the vectors, the
/// node count and node 0's layer count.
fn first_list_at(buf: &[u8]) -> usize {
    let flag = 24 + 41;
    let count_at = if buf[flag] == 1 { flag + 9 } else { flag + 1 };
    let floats = u64::from_le_bytes(buf[count_at..count_at + 8].try_into().unwrap()) as usize;
    count_at + 8 + floats * 4 + 4 + 4
}

/// A resealed `TSFMHNS1` frame whose first list holds `2·m + 1` links —
/// one more than a layer-0 row has slots, all of them real node ids —
/// passes every checksum and is still a typed `Corrupt`.
#[test]
fn hnsw_list_longer_than_its_row_is_corrupt() {
    let buf = hnsw_bytes(8, 5);
    let at = first_list_at(&buf);
    let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
    let m = HnswConfig::default().m;
    let mut long = buf[..at].to_vec();
    long.extend_from_slice(&(2 * m as u32 + 1).to_le_bytes());
    long.extend_from_slice(&buf[at + 4..at + 4 + len * 8]);
    for i in len..2 * m + 1 {
        long.extend_from_slice(&((i % 8) as u64).to_le_bytes());
    }
    long.extend_from_slice(&buf[at + 4 + len * 8..]);
    reseal(&mut long);
    let detail = corrupt_detail(read_hnsw(&mut long.as_slice()), "TSFMHNS1");
    assert!(detail.contains("m_max"), "{detail}");
}

/// A resealed `TSFMHNS1` frame claiming `m = 2³¹` is rejected before
/// anything is sized by it: rows of `2·m` links for its 8 nodes would be
/// 128 GiB.
#[test]
fn hnsw_claiming_m_2_31_is_corrupt() {
    let mut buf = hnsw_bytes(8, 5);
    buf[24 + 5..24 + 9].copy_from_slice(&(1u32 << 31).to_le_bytes());
    reseal(&mut buf);
    let detail = corrupt_detail(read_hnsw(&mut buf.as_slice()), "TSFMHNS1");
    assert!(detail.contains("cap"), "{detail}");
}
