//! Crash-safe file I/O: CRC32C checksums, the atomic commit protocol,
//! offset-attributed checked reads, and the fault-injection hook that
//! proves all of it.
//!
//! Everything in `tsfm_store` that touches the filesystem funnels through
//! this module (the `durable-write-required` lint enforces it):
//!
//! * [`crc32c`] — a std-only slicing-by-8 CRC32C (Castagnoli), the
//!   checksum every v2 `TSFM*` frame carries over its payload;
//! * [`commit_file`] — the one write path: write a temp file, fsync it,
//!   rename it over the target, fsync the parent directory. A crash at
//!   any instant leaves either the old file or the new one, never a torn
//!   mix. Every file the store writes is a whole file written here — the
//!   root manifest, the index cache, shard manifests and arenas, and the
//!   one run a loose commit writes under `segments/` — so a commit costs
//!   one fsync per file it writes, however many tables it carries;
//! * [`read_file_checked`] — opens a file and runs a parser over a
//!   byte-counting reader, stamping any [`StoreError::Corrupt`] with the
//!   file name and the offset where decoding stopped, and counting it in
//!   `tsfm_store_corruptions_detected_total`;
//! * [`fault`] — the test-only injection layer. It is compiled
//!   unconditionally (integration tests cannot see a dependency's
//!   `cfg(test)`) but costs one relaxed atomic load per I/O primitive
//!   while disarmed.

use crate::error::{StoreError, StoreResult};
use std::fs::{self, File};
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};

// ---- CRC32C ---------------------------------------------------------------

/// Reflected Castagnoli polynomial (iSCSI, ext4, Btrfs — chosen over
/// CRC32/IEEE for its strictly better Hamming distance at our frame
/// sizes).
const POLY: u32 = 0x82f6_3b78;

fn crc_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: std::sync::OnceLock<Box<[[u32; 256]; 8]>> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 8]);
        for i in 0..256u32 {
            let mut crc = i;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            t[0][i as usize] = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// CRC32C of `bytes` (slicing-by-8; ~8 bytes per table-lookup round).
pub fn crc32c(bytes: &[u8]) -> u32 {
    let t = crc_tables();
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---- fault injection ------------------------------------------------------

/// Deterministic I/O fault injection for crash-point tests.
///
/// A test arms a plan scoped to one directory tree; every faultable
/// primitive under that scope (`create`, `write`, `fsync`, `rename`,
/// directory sync) consults the plan. The plan either counts sites (a dry
/// run enumerating every injection point) or trips at the Nth site — and
/// once tripped, **every** subsequent primitive under the scope fails
/// too: a process that hit a disk fault mid-commit does not get to keep
/// writing, so the simulation must not either.
///
/// State is process-global; tests that arm faults must not run
/// concurrently with each other (keep them in one `#[test]` body).
/// Operations outside the armed scope are never affected, so the rest of
/// the suite can run in parallel.
pub mod fault {
    use std::io;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use tsfm_obs::sync::lock_unpoisoned;

    /// How the tripped site misbehaves.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultMode {
        /// The operation fails cleanly with an injected `io::Error`.
        Fail,
        /// A write persists a prefix of its bytes, then fails — the torn
        /// write a crash mid-`write(2)` leaves behind. Non-write sites
        /// degrade to [`FaultMode::Fail`].
        Torn,
    }

    #[derive(Debug)]
    struct Plan {
        scope: PathBuf,
        /// `None` counts sites without ever tripping.
        trip_at: Option<(u64, FaultMode)>,
        seen: u64,
        tripped: bool,
    }

    static ARMED: AtomicBool = AtomicBool::new(false);
    static PLAN: Mutex<Option<Plan>> = Mutex::new(None);

    /// Arm a plan that fails the `trip_at`-th (0-based) faultable
    /// operation under `scope`, in `mode`, and every operation after it.
    pub fn arm(scope: &Path, trip_at: u64, mode: FaultMode) {
        *lock_unpoisoned(&PLAN) = Some(Plan {
            scope: scope.to_path_buf(),
            trip_at: Some((trip_at, mode)),
            seen: 0,
            tripped: false,
        });
        ARMED.store(true, Ordering::SeqCst);
    }

    /// Arm a counting plan: no operation fails, but every faultable site
    /// under `scope` is tallied. [`disarm`] returns the tally.
    pub fn arm_counting(scope: &Path) {
        *lock_unpoisoned(&PLAN) =
            Some(Plan { scope: scope.to_path_buf(), trip_at: None, seen: 0, tripped: false });
        ARMED.store(true, Ordering::SeqCst);
    }

    /// Disarm, returning how many faultable operations were observed.
    pub fn disarm() -> u64 {
        ARMED.store(false, Ordering::SeqCst);
        lock_unpoisoned(&PLAN).take().map_or(0, |p| p.seen)
    }

    /// Whether an armed plan has already tripped (the simulated process
    /// is "crashed").
    pub fn tripped() -> bool {
        ARMED.load(Ordering::SeqCst)
            && lock_unpoisoned(&PLAN).as_ref().is_some_and(|p| p.tripped)
    }

    /// What the current operation on `path` should do.
    pub(super) enum Injection {
        Proceed,
        Fail(io::Error),
        /// Write this many bytes of the payload, then fail.
        Torn(usize),
    }

    pub(super) fn decide(op: &str, path: &Path, write_len: usize) -> Injection {
        if !ARMED.load(Ordering::Relaxed) {
            return Injection::Proceed;
        }
        let mut guard = lock_unpoisoned(&PLAN);
        let Some(plan) = guard.as_mut() else { return Injection::Proceed };
        if !path.starts_with(&plan.scope) {
            return Injection::Proceed;
        }
        if plan.tripped {
            return Injection::Fail(injected(op, path, "process already crashed"));
        }
        let site = plan.seen;
        plan.seen += 1;
        match plan.trip_at {
            Some((at, mode)) if site == at => {
                plan.tripped = true;
                match mode {
                    FaultMode::Torn if write_len > 0 => Injection::Torn(write_len / 2),
                    _ => Injection::Fail(injected(op, path, "tripped")),
                }
            }
            _ => Injection::Proceed,
        }
    }

    fn injected(op: &str, path: &Path, why: &str) -> io::Error {
        io::Error::other(format!("injected fault: {op} on {} ({why})", path.display()))
    }
}

/// Consult the fault plan for a non-write operation.
fn fault_check(op: &str, path: &Path) -> StoreResult<()> {
    match fault::decide(op, path, 0) {
        fault::Injection::Proceed | fault::Injection::Torn(_) => Ok(()),
        fault::Injection::Fail(e) => Err(e.into()),
    }
}

/// `write_all` with a fault site: `Torn` mode persists a prefix before
/// failing, exactly what an interrupted `write(2)` leaves on disk.
fn fault_write(f: &mut File, path: &Path, bytes: &[u8]) -> StoreResult<()> {
    match fault::decide("write", path, bytes.len()) {
        fault::Injection::Proceed => Ok(f.write_all(bytes)?),
        fault::Injection::Fail(e) => Err(e.into()),
        fault::Injection::Torn(n) => {
            f.write_all(&bytes[..n])?;
            let _ = f.sync_all();
            Err(std::io::Error::other(format!(
                "injected fault: torn write on {} ({n} of {} bytes persisted)",
                path.display(),
                bytes.len()
            ))
            .into())
        }
    }
}

// ---- atomic commit protocol -----------------------------------------------

/// The temp-file sibling `commit_file` stages through. Every target this
/// store commits (`catalog.manifest`, `index.cache`, `segments/*.arena`,
/// `BENCH_*.json`) maps to a distinct `.tmp` name within its directory.
fn tmp_path(path: &Path) -> PathBuf {
    path.with_extension("tmp")
}

/// Atomically replace `path` with `bytes`: write a temp file, fsync it,
/// rename it into place, fsync the parent directory. After `Ok`, the
/// bytes are durable; after an error or crash, `path` still holds its
/// previous content (a leftover `.tmp` is garbage that `tsfm fsck`
/// sweeps — it is never read).
pub fn commit_file(path: &Path, bytes: &[u8]) -> StoreResult<()> {
    let tmp = tmp_path(path);
    let staged = (|| -> StoreResult<()> {
        fault_check("create", &tmp)?;
        let mut f = File::create(&tmp)?;
        fault_write(&mut f, &tmp, bytes)?;
        fault_check("fsync", &tmp)?;
        f.sync_all()?;
        Ok(())
    })();
    if let Err(e) = staged {
        // A real crash leaves the temp file; an ordinary error cleans up.
        // While a fault plan is tripped we are simulating the crash, so
        // the garbage must stay for fsck to find.
        if !fault::tripped() {
            let _ = fs::remove_file(&tmp);
        }
        return Err(e);
    }
    fault_check("rename", path)?;
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        sync_dir(parent)?;
    }
    Ok(())
}

/// fsync a directory, making renames and new directory entries durable.
/// Platforms that cannot open a directory read-only get a best-effort
/// no-op — the rename itself still happened.
pub fn sync_dir(dir: &Path) -> StoreResult<()> {
    fault_check("dirsync", dir)?;
    match File::open(dir) {
        Ok(d) => Ok(d.sync_all()?),
        Err(_) => Ok(()),
    }
}

// ---- checked reads --------------------------------------------------------

/// A reader that counts consumed bytes so corruption errors can name the
/// stream offset where decoding stopped.
pub struct CountingReader<R> {
    inner: R,
    offset: u64,
}

impl<R: Read> CountingReader<R> {
    pub fn new(inner: R) -> Self {
        Self { inner, offset: 0 }
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> u64 {
        self.offset
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.offset += n as u64;
        Ok(n)
    }
}

/// Open `path` and run `parse` over a buffered, byte-counting reader.
/// A [`StoreError::Corrupt`] coming back is stamped with the file name
/// and the offset reached, and counted in
/// `tsfm_store_corruptions_detected_total`.
pub fn read_file_checked<T>(
    path: &Path,
    parse: impl FnOnce(&mut CountingReader<BufReader<File>>) -> StoreResult<T>,
) -> StoreResult<T> {
    let mut r = CountingReader::new(BufReader::new(File::open(path)?));
    match parse(&mut r) {
        Ok(v) => Ok(v),
        Err(e) => Err(note_corruption(e.with_file(path, r.offset()))),
    }
}

/// Positioned, checksum-verified read: `len` bytes at `offset` of an
/// already-open arena `file`, verified against `crc` (CRC32C) before a
/// byte is interpreted. This is the lazy sketch-load path — no seek, no
/// shared cursor, so any number of snapshot readers can share one handle.
/// A short read or checksum mismatch is a typed [`StoreError::Corrupt`]
/// naming the file and offset (counted like every other corruption), and
/// every read's latency lands in `tsfm_store_arena_read_us`.
pub fn read_at_checked(
    file: &File,
    path: &Path,
    offset: u64,
    len: u64,
    crc: u32,
    format: &'static str,
) -> StoreResult<Vec<u8>> {
    use std::os::unix::fs::FileExt;
    let t0 = std::time::Instant::now();
    let mut buf = vec![0u8; len as usize];
    let res = (|| -> StoreResult<Vec<u8>> {
        file.read_exact_at(&mut buf, offset).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::corrupt(
                    format,
                    format!("truncated arena: {len} bytes at offset {offset} past end of file"),
                )
            } else {
                e.into()
            }
        })?;
        let actual = crc32c(&buf);
        if actual != crc {
            return Err(StoreError::corrupt(
                format,
                format!(
                    "arena payload checksum mismatch at offset {offset}: \
                     stored {crc:#010x}, computed {actual:#010x} over {len} bytes"
                ),
            ));
        }
        Ok(std::mem::take(&mut buf))
    })();
    tsfm_obs::metrics::global()
        .histogram("tsfm_store_arena_read_us", "Positioned arena payload read latency")
        .record(t0.elapsed().as_micros() as u64);
    res.map_err(|e| note_corruption(e.with_file(path, offset)))
}

/// Count a corruption sighting (no-op for other error kinds).
pub(crate) fn note_corruption(e: StoreError) -> StoreError {
    if matches!(e, StoreError::Corrupt { .. }) {
        tsfm_obs::metrics::global()
            .counter(
                "tsfm_store_corruptions_detected_total",
                "Checksum or format violations detected while reading store files",
            )
            .inc();
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use std::collections::BTreeMap;
    use tsfm_table::{Column, Table, Value};

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 appendix B.4 check value.
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0u8; 32]), 0x8a91_36aa);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62a8_ab43);
    }

    #[test]
    fn crc32c_detects_single_bit_flips() {
        let base: Vec<u8> = (0..193u32).map(|i| (i * 7 + 3) as u8).collect();
        let reference = crc32c(&base);
        let mut flipped = base.clone();
        for byte in 0..base.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), reference, "flip at {byte}:{bit} undetected");
                flipped[byte] ^= 1 << bit;
            }
        }
        assert_eq!(crc32c(&flipped), reference);
    }

    #[test]
    fn crc32c_slicing_matches_bytewise() {
        // The slicing-by-8 fast path must agree with the 1-byte tail loop
        // at every alignment.
        let data: Vec<u8> = (0..100u32).map(|i| (i * 31 + 7) as u8).collect();
        for len in 0..data.len() {
            let whole = crc32c(&data[..len]);
            let mut bytewise = !0u32;
            let t = crc_tables();
            for &b in &data[..len] {
                bytewise = t[0][((bytewise ^ u32::from(b)) & 0xff) as usize] ^ (bytewise >> 8);
            }
            assert_eq!(whole, !bytewise, "len {len}");
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsfm_durable_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn commit_file_replaces_atomically_and_cleans_tmp() {
        let dir = tmp("commit");
        let target = dir.join("data.bin");
        commit_file(&target, b"first").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"first");
        commit_file(&target, b"second").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"second");
        assert!(!dir.join("data.tmp").exists());
    }

    /// The fault plan is process-global: the tests that arm it take turns.
    static FAULTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Add `n` one-column tables `{prefix}{i}`, content hash `salt + i`.
    fn add_tables(cat: &mut Catalog, prefix: &str, n: i64, salt: u64) {
        for i in 0..n {
            let mut t = Table::new(format!("{prefix}{i}"), "t");
            t.push_column(Column::new("v", vec![Value::Int(i), Value::Int(salt as i64 - i)]));
            cat.add_table(&t, salt + i as u64).unwrap();
        }
    }

    /// Every file under `dir/segments`, name → bytes.
    fn segments(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        fs::read_dir(dir.join("segments"))
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().to_string_lossy().into_owned(), fs::read(e.path()).unwrap())
            })
            .collect()
    }

    /// A catalog whose first commit folded 80 tables into the shard layer
    /// and whose second committed three more loose, as one run.
    fn loose_catalog(tag: &str) -> (PathBuf, Catalog) {
        let dir = tmp(tag);
        let mut cat = Catalog::open(&dir).unwrap();
        add_tables(&mut cat, "base", 80, 100);
        cat.commit().unwrap();
        add_tables(&mut cat, "r", 3, 500);
        cat.commit().unwrap();
        assert_eq!(segments(&dir).len(), 1, "one run per loose commit");
        (dir, cat)
    }

    /// A run committed by one manifest is never rewritten: a loose commit
    /// that crashes at any of its sites — the run's staging file, its
    /// rename and directory sync, the manifest's own — leaves the
    /// committed run's bytes as they were, and so does the retry, which
    /// writes its run under a name no manifest on disk references.
    #[test]
    fn write_new_refuses_existing_path() {
        let _faults = FAULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (dir, mut cat) = loose_catalog("refuse");
        let committed = segments(&dir);
        add_tables(&mut cat, "s", 3, 700);
        // Run: create, write, fsync, rename, dirsync; then the same five
        // for the manifest.
        for site in 0..10 {
            fault::arm(&dir, site, fault::FaultMode::Torn);
            let res = cat.commit();
            assert!(fault::tripped() && res.is_err(), "site {site} fails the commit");
            fault::disarm();
            let now = segments(&dir);
            for (name, bytes) in &committed {
                assert_eq!(now.get(name), Some(bytes), "site {site} touched committed run {name}");
            }
        }
        cat.commit().unwrap();
        let after = segments(&dir);
        assert_eq!(after.len(), 2, "the committed run and the retry's: {:?}", after.keys());
        assert!(committed.iter().all(|(name, bytes)| after.get(name) == Some(bytes)));
        drop(cat);
        let cat = Catalog::open(&dir).unwrap();
        assert_eq!(cat.len(), 86);
        assert_eq!(cat.record("s2").unwrap().content_hash, 702);
        assert_eq!(cat.record("r0").unwrap().content_hash, 500);
    }

    /// A run whose fsync fails fails its commit before the manifest moves,
    /// and keeps every held record: reads still answer from memory and the
    /// retry commits the whole batch.
    #[test]
    fn sync_pool_syncs_handles_and_reports_failures() {
        let _faults = FAULTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (dir, mut cat) = loose_catalog("fsync");
        let manifest = fs::read(dir.join("catalog.manifest")).unwrap();
        add_tables(&mut cat, "s", 12, 700);
        // The run's staging file: create, write, then fsync (site 2).
        fault::arm(&dir, 2, fault::FaultMode::Fail);
        let err = cat.commit().expect_err("a failed run fsync fails the commit");
        fault::disarm();
        assert!(err.to_string().contains("fsync"), "{err}");
        assert_eq!(fs::read(dir.join("catalog.manifest")).unwrap(), manifest);
        assert_eq!(cat.len(), 95, "the batch survives the failure");
        for i in 0..12 {
            assert_eq!(cat.record(&format!("s{i}")).unwrap().content_hash, 700 + i);
        }
        cat.commit().unwrap();
        let runs: Vec<String> = segments(&dir).into_keys().collect();
        assert!(runs.len() == 2 && runs.iter().all(|n| n.ends_with(".arena")), "{runs:?}");
        drop(cat);
        let cat = Catalog::open(&dir).unwrap();
        assert_eq!(cat.len(), 95);
        assert_eq!(cat.record("s11").unwrap().content_hash, 711);
    }

    #[test]
    fn counting_reader_tracks_offset() {
        let data = [1u8, 2, 3, 4, 5];
        let mut r = CountingReader::new(BufReader::new(std::io::Cursor::new(data)));
        let mut buf = [0u8; 2];
        std::io::Read::read_exact(&mut r, &mut buf).unwrap();
        assert_eq!(r.offset(), 2);
        let mut rest = Vec::new();
        std::io::Read::read_to_end(&mut r, &mut rest).unwrap();
        assert_eq!(r.offset(), 5);
    }
}
