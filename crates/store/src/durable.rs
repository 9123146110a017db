//! Crash-safe file I/O: CRC32C checksums, the atomic commit protocol,
//! offset-attributed checked reads, and the fault-injection hook that
//! proves all of it.
//!
//! Everything in `tsfm_store` that touches the filesystem funnels through
//! this module (the `durable-write-required` lint enforces it):
//!
//! * [`crc32c`] — a std-only CRC32C (Castagnoli), the checksum every v2
//!   `TSFM*` frame carries over its payload: four interleaved
//!   slicing-by-8 lanes joined by [`crc32c_combine`] (zlib's
//!   `crc32_combine`: multiply by `x^(8n) mod P`), bit-identical to the
//!   bytewise definition;
//! * [`commit_file`] — the one write path: write a temp file, fsync it,
//!   rename it over the target, fsync the parent directory. A crash at
//!   any instant leaves either the old file or the new one, never a torn
//!   mix. Every file the store writes is a whole file written here — the
//!   root manifest, the index cache, shard manifests and arenas, and the
//!   one run a loose commit writes under `segments/` — so a commit costs
//!   one fsync per file it writes, however many tables it carries;
//! * [`read_file_checked`] — reads a file once, into a buffer of exactly
//!   its size, and runs a parser over the borrowed bytes, stamping any
//!   [`StoreError::Corrupt`] with the file name and the offset where
//!   decoding stopped, and counting it in
//!   `tsfm_store_corruptions_detected_total`; [`read_at_checked`] is its
//!   positioned twin for one arena slot;
//! * [`fault`] — the test-only injection layer. It is compiled
//!   unconditionally (integration tests cannot see a dependency's
//!   `cfg(test)`) but costs one relaxed atomic load per I/O primitive
//!   while disarmed.

use crate::error::{StoreError, StoreResult};
use std::fs::{self, File};
use std::io::{Read, Write};
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

/// One slicing-by-8 round: fold the next eight bytes into the raw
/// (pre-inversion) register `crc`.
#[inline(always)]
fn slice8(t: &[[u32; 256]; 8], crc: u32, c: &[u8]) -> u32 {
    let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    t[7][(lo & 0xff) as usize]
        ^ t[6][((lo >> 8) & 0xff) as usize]
        ^ t[5][((lo >> 16) & 0xff) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][c[4] as usize]
        ^ t[2][c[5] as usize]
        ^ t[1][c[6] as usize]
        ^ t[0][c[7] as usize]
}

/// Raw-register CRC32C update over `bytes`: slicing-by-8, then bytewise.
fn update(t: &[[u32; 256]; 8], mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        crc = slice8(t, crc, c);
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    crc
}

/// Inputs shorter than this take one lane: below it, the joins cost more
/// than the lanes save.
const LANE_MIN: usize = 1024;

/// CRC32C of `bytes`. A long input is cut into four equal lanes whose
/// slicing-by-8 rounds interleave in one loop — four independent
/// dependency chains the CPU overlaps — and the four lane CRCs are joined
/// by [`crc32c_combine`]; the few bytes past the fourth lane follow on
/// one lane. Bit-identical to a bytewise CRC32C at every length.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let t = crc_tables();
    if bytes.len() < LANE_MIN {
        return !update(t, !0, bytes);
    }
    let lane = bytes.len() / 32 * 8;
    let (a, rest) = bytes.split_at(lane);
    let (b, rest) = rest.split_at(lane);
    let (c, rest) = rest.split_at(lane);
    let (d, tail) = rest.split_at(lane);
    let (mut ra, mut rb, mut rc, mut rd) = (!0u32, !0u32, !0u32, !0u32);
    let lanes = a.chunks_exact(8).zip(b.chunks_exact(8)).zip(c.chunks_exact(8));
    for (((wa, wb), wc), wd) in lanes.zip(d.chunks_exact(8)) {
        ra = slice8(t, ra, wa);
        rb = slice8(t, rb, wb);
        rc = slice8(t, rc, wc);
        rd = slice8(t, rd, wd);
    }
    let len = lane as u64;
    let abcd = [rb, rc, rd].into_iter().fold(!ra, |acc, r| crc32c_combine(acc, !r, len));
    !update(t, !abcd, tail)
}

/// The CRC32C of `a ‖ b` from `crc32c(a)`, `crc32c(b)` and `b`'s length,
/// as zlib's `crc32_combine`: multiply `crc_a` by `x^(8·len_b) mod P`.
pub fn crc32c_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    gf2_mul(x8n_mod_p(len_b), crc_a) ^ crc_b
}

/// `a · b mod P` over GF(2), both in the reflected bit order the CRC
/// uses (bit 31 is the coefficient of `x^0`).
fn gf2_mul(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    for i in (0..32).rev() {
        p ^= b & 0u32.wrapping_sub((a >> i) & 1);
        b = (b >> 1) ^ (POLY & 0u32.wrapping_sub(b & 1));
    }
    p
}

/// `x^(8n) mod P`: the product of one tabulated power per byte of `n`,
/// `powers[i][v] = x^(8·v·256^i) mod P`.
fn x8n_mod_p(n: u64) -> u32 {
    static POWERS: std::sync::OnceLock<Box<[[u32; 256]; 8]>> = std::sync::OnceLock::new();
    let powers = POWERS.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 8]);
        // x^8: one byte of zeros through the register.
        let mut unit = 1u32 << 23;
        for row in t.iter_mut() {
            row[0] = 1 << 31;
            for v in 1..256 {
                row[v] = gf2_mul(row[v - 1], unit);
            }
            // x^(8·256^(i+1)) = (x^(8·255·256^i)) · x^(8·256^i).
            unit = gf2_mul(row[255], unit);
        }
        t
    });
    n.to_le_bytes()
        .iter()
        .zip(powers.iter())
        .filter(|(&v, _)| v != 0)
        .fold(1 << 31, |acc, (&v, row)| gf2_mul(acc, row[v as usize]))
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
/// store commits (`catalog.manifest`, `index.cache`, `segments/*.arena`)
/// maps to a distinct `.tmp` name within its directory.
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

/// Read `path` whole — one read into a buffer of exactly its size — and
/// run `parse` over the bytes. A [`StoreError::Corrupt`] coming back is
/// stamped with the file name and the offset reached (the bytes `parse`
/// consumed), and counted in `tsfm_store_corruptions_detected_total`.
pub fn read_file_checked<T>(
    path: &Path,
    parse: impl FnOnce(&mut &[u8]) -> StoreResult<T>,
) -> StoreResult<T> {
    let bytes = fs::read(path)?;
    let mut rest = bytes.as_slice();
    parse(&mut rest).map_err(|e| {
        note_corruption(e.with_file(path, (bytes.len() - rest.len()) as u64))
    })
}

/// The first `n` bytes of `path` (fewer if the file is shorter): what a
/// header peek needs, without reading the rest of the file.
pub(crate) fn read_prefix(path: &Path, n: u64) -> StoreResult<Vec<u8>> {
    let mut head = Vec::with_capacity(n as usize);
    File::open(path)?.take(n).read_to_end(&mut head)?;
    Ok(head)
}

/// Positioned, checksum-verified read: `len` bytes at `offset` of an
/// already-open arena `file` ([`read_at`]), verified against `crc`
/// (CRC32C) before a byte is interpreted ([`check_at`]). This is the lazy
/// sketch-load path.
pub fn read_at_checked(
    file: &File,
    path: &Path,
    offset: u64,
    len: u64,
    crc: u32,
    format: &'static str,
) -> StoreResult<Vec<u8>> {
    let mut buf = vec![0u8; len as usize];
    read_at(file, path, offset, &mut buf, format)?;
    check_at(&buf, path, offset, crc, format)?;
    Ok(buf)
}

/// Positioned read of `buf.len()` bytes at `offset` of an already-open
/// arena `file` — no seek, no shared cursor, so any number of snapshot
/// readers can share one handle. A short read is a typed
/// [`StoreError::Corrupt`] naming the file and offset (counted like every
/// other corruption), and every read's latency lands in
/// `tsfm_store_arena_read_us`.
pub(crate) fn read_at(
    file: &File,
    path: &Path,
    offset: u64,
    buf: &mut [u8],
    format: &'static str,
) -> StoreResult<()> {
    use std::os::unix::fs::FileExt;
    let t0 = std::time::Instant::now();
    let res = file.read_exact_at(buf, offset);
    crate::catalog::arena_read_histogram().record(t0.elapsed().as_micros() as u64);
    res.map_err(|e| {
        let e = if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::corrupt(
                format,
                format!("truncated arena: {} bytes at offset {offset} past end of file", buf.len()),
            )
        } else {
            e.into()
        };
        note_corruption(e.with_file(path, offset))
    })
}

/// Verify `payload`, read at `offset` of `path`, against its stored CRC32C
/// before a byte of it is interpreted: a mismatch is a typed
/// [`StoreError::Corrupt`] naming the file and offset, counted.
pub(crate) fn check_at(
    payload: &[u8],
    path: &Path,
    offset: u64,
    crc: u32,
    format: &'static str,
) -> StoreResult<()> {
    let actual = crc32c(payload);
    if actual == crc {
        return Ok(());
    }
    let detail = format!(
        "arena payload checksum mismatch at offset {offset}: \
         stored {crc:#010x}, computed {actual:#010x} over {} bytes",
        payload.len()
    );
    Err(note_corruption(StoreError::corrupt(format, detail).with_file(path, offset)))
}

/// Count a corruption sighting (no-op for other error kinds).
pub(crate) fn note_corruption(e: StoreError) -> StoreError {
    if matches!(e, StoreError::Corrupt { .. }) {
        crate::catalog::corruptions_counter().inc();
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
    fn read_file_checked_reports_consumed_offset() {
        let dir = tmp("checked");
        let path = dir.join("data.bin");
        commit_file(&path, &[1, 2, 3, 4, 5]).unwrap();
        let sum = read_file_checked(&path, |s| Ok(std::mem::take(s).iter().sum::<u8>())).unwrap();
        assert_eq!(sum, 15);
        let err = read_file_checked(&path, |s| -> StoreResult<()> {
            *s = &s[2..];
            Err(StoreError::corrupt("TEST", "stop"))
        })
        .unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt { file: Some(f), offset: Some(2), .. }
                if f.ends_with("data.bin")),
            "{err}"
        );
    }

    /// The one-byte-at-a-time CRC32C every table-driven path must equal.
    fn bytewise(t: &[[u32; 256]; 8], crc: u32, b: u8) -> u32 {
        t[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 2, ..Default::default() })]

        /// The laned kernel equals the bytewise CRC at every length from 0
        /// to 9 000 and every start offset from 0 to 7 — the lane split,
        /// the slicing remainders and the combine all move with both.
        #[test]
        fn laned_crc32c_matches_bytewise(seed in 0u64..u64::MAX) {
            let data: Vec<u8> = (0..9_008u64)
                .map(|i| (tsfm_table::hash::splitmix64(seed ^ i) >> 56) as u8)
                .collect();
            let t = crc_tables();
            for start in 0..8 {
                let mut reference = !0u32;
                for len in 0..=9_000 {
                    let laned = crc32c(&data[start..start + len]);
                    proptest::prop_assert_eq!(laned, !reference, "start {} len {}", start, len);
                    reference = bytewise(t, reference, data[start + len]);
                }
            }
        }

        /// `crc32c_combine` joins two CRCs into the CRC of the
        /// concatenation, at every split point.
        #[test]
        fn crc32c_combine_joins_concatenations(seed in 0u64..u64::MAX, len in 0usize..3_000) {
            let data: Vec<u8> = (0..len as u64)
                .map(|i| (tsfm_table::hash::splitmix64(seed ^ i) >> 56) as u8)
                .collect();
            let whole = crc32c(&data);
            for cut in (0..=len).step_by(7).chain([len]) {
                let (a, b) = data.split_at(cut);
                let joined = crc32c_combine(crc32c(a), crc32c(b), b.len() as u64);
                proptest::prop_assert_eq!(joined, whole);
            }
        }
    }
}
