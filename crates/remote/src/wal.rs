//! # Write-ahead log: durable record framing and crash-injectable storage
//!
//! The durability layer's storage substrate, split the same way the
//! network stack is: a record codec (what bytes mean), a storage trait
//! (where bytes live and when they are *guaranteed* to survive a
//! crash), and two implementations — the real filesystem and a
//! deterministic crash simulator for fault-injection tests.
//!
//! ## Record format
//!
//! A log is a sequence of self-delimiting records:
//!
//! ```text
//! u32 LE body length | body | u64 LE FNV-1a(body)
//! body = u64 LE sequence number ++ wire-encoded Request payload
//! ```
//!
//! The payload reuses [`wire::encode_request`]
//! verbatim — every mutation the trait family can express already has a
//! wire frame, so the log format falls out of the protocol. Sequence
//! numbers are strictly increasing across the log's lifetime and let
//! recovery skip records already covered by a snapshot (which makes the
//! checkpoint's write-snapshot-then-truncate-log window idempotent).
//!
//! ## Torn vs corrupt
//!
//! [`scan_log`] distinguishes the two failure shapes recovery meets:
//!
//! * a **torn tail** — the file ends before the final record completes
//!   (crash mid-append). Expected; the scan stops at the last complete
//!   record and reports the valid byte length so the caller can
//!   truncate the tail away.
//! * a **corrupt record** — a *complete* record whose checksum does not
//!   verify, anywhere in the file. Never expected from a crash; it is a
//!   typed [`LTreeError::Durability`] error, not a panic and not data.
//!
//! ## Crash simulation
//!
//! [`SimDir`] counts every mutating storage operation and can be armed
//! to fail on the N-th one. At the crash instant, every file keeps its
//! fsynced bytes plus a seeded, *strictly shorter* prefix of its
//! unsynced bytes — an interrupted operation never takes full effect.
//! That is exactly the regime in which fsync-before-ack is sound and
//! ack-before-fsync is not, and `tests/durable_recovery.rs` proves both
//! directions by sweeping the crash point across whole edit streams.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ltree_core::rng::SplitMix64;
use ltree_core::snapshot::fnv1a;
use ltree_core::{LTreeError, Result};

use crate::wire::{self, Request};

/// File name of the append-only log inside a durable directory.
pub const WAL_FILE: &str = "wal.log";

/// File name of the checkpoint snapshot inside a durable directory.
pub const SNAP_FILE: &str = "snapshot.bin";

fn store_err(context: impl Into<String>) -> LTreeError {
    LTreeError::Durability {
        context: context.into(),
    }
}

// ----------------------------------------------------------------------
// Record codec
// ----------------------------------------------------------------------

/// Encode one log record: `(seq, request)` framed with length prefix
/// and checksum trailer.
pub fn encode_record(seq: u64, req: &Request) -> Vec<u8> {
    let payload = wire::encode_request(req);
    let mut body = Vec::with_capacity(8 + payload.len());
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(&payload);
    let mut out = Vec::with_capacity(4 + body.len() + 8);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&fnv1a(&body).to_le_bytes());
    out
}

/// One log scan result: the decoded records and how many leading bytes
/// of the file they cover (everything past `valid_len` is a torn tail
/// the caller should truncate away).
#[derive(Debug)]
pub struct LogScan {
    /// `(sequence, request)` pairs, in file order.
    pub records: Vec<(u64, Request)>,
    /// Byte length of the valid prefix (end of the last complete record).
    pub valid_len: u64,
}

/// Scan a log image: decode every complete record, tolerate a torn
/// final record, and reject corruption (a complete record whose
/// checksum or payload does not verify) as [`LTreeError::Durability`].
pub fn scan_log(bytes: &[u8]) -> Result<LogScan> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.len() < 4 {
            break; // clean end, or a torn length prefix
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        if rest.len() < 4 + len + 8 {
            break; // torn record: the crash landed mid-append
        }
        let body = &rest[4..4 + len];
        let stored = u64::from_le_bytes(rest[4 + len..4 + len + 8].try_into().unwrap());
        if fnv1a(body) != stored {
            return Err(store_err(format!(
                "log record at byte {pos} is complete but its checksum does not \
                 verify — the log is corrupt, not merely torn"
            )));
        }
        if body.len() < 8 {
            return Err(store_err(format!(
                "log record at byte {pos} is too short to carry a sequence number"
            )));
        }
        let seq = u64::from_le_bytes(body[..8].try_into().unwrap());
        let req = wire::decode_request(&body[8..])
            .map_err(|e| store_err(format!("log record at byte {pos} (seq {seq}): {e}")))?;
        if let Some(&(prev, _)) = records.last() {
            if seq <= prev {
                return Err(store_err(format!(
                    "log sequence went backwards at byte {pos}: {prev} then {seq}"
                )));
            }
        }
        records.push((seq, req));
        pos += 4 + len + 8;
    }
    Ok(LogScan {
        records,
        valid_len: pos as u64,
    })
}

// ----------------------------------------------------------------------
// Storage
// ----------------------------------------------------------------------

/// A directory of named byte files with explicit durability points.
///
/// The contract mirrors what POSIX gives a write-ahead log: bytes
/// passed to [`append`](Self::append) are visible to same-process
/// [`read`](Self::read)s immediately but only survive a crash once
/// [`sync`](Self::sync) returns; [`replace`](Self::replace) is atomic
/// *and* durable (write-temp, fsync, rename — a crash leaves the old
/// content or the new, never a mix). Implementations are free to fail
/// any mutating call with [`LTreeError::Durability`]; the [`SimDir`]
/// simulator does so deliberately, mid-effect, to model crashes.
pub trait DurableDir: Send + Sync {
    /// Full content of `name`, or `None` when absent.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>>;
    /// Append `bytes` to `name` (created when absent). Not yet durable.
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<()>;
    /// Make every appended byte of `name` crash-durable.
    fn sync(&mut self, name: &str) -> Result<()>;
    /// Atomically and durably replace `name` with `bytes`.
    fn replace(&mut self, name: &str, bytes: &[u8]) -> Result<()>;
    /// Truncate `name` to its first `len` bytes, durably.
    fn truncate(&mut self, name: &str, len: u64) -> Result<()>;
}

/// The real filesystem behind [`DurableDir`]: one directory, appends
/// through a cached handle, `sync_data` for durability points, and
/// write-temp-fsync-rename for [`replace`](DurableDir::replace).
pub struct FsDir {
    dir: PathBuf,
    appender: Option<(String, fs::File)>,
}

impl FsDir {
    /// Open (creating if needed) `dir` as a durable directory.
    pub fn open(dir: &Path) -> Result<Self> {
        fs::create_dir_all(dir).map_err(|e| store_err(format!("create {}: {e}", dir.display())))?;
        Ok(FsDir {
            dir: dir.to_path_buf(),
            appender: None,
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn appender(&mut self, name: &str) -> Result<&mut fs::File> {
        let stale = matches!(&self.appender, Some((n, _)) if n != name);
        if stale || self.appender.is_none() {
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path(name))
                .map_err(|e| store_err(format!("open {name} for append: {e}")))?;
            self.appender = Some((name.to_owned(), file));
        }
        Ok(&mut self.appender.as_mut().unwrap().1)
    }
}

impl DurableDir for FsDir {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        match fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(store_err(format!("read {name}: {e}"))),
        }
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        self.appender(name)?
            .write_all(bytes)
            .map_err(|e| store_err(format!("append {name}: {e}")))
    }

    fn sync(&mut self, name: &str) -> Result<()> {
        if let Some((n, file)) = &self.appender {
            if n == name {
                return file
                    .sync_data()
                    .map_err(|e| store_err(format!("fsync {name}: {e}")));
            }
        }
        Ok(()) // nothing appended since open: nothing to make durable
    }

    fn replace(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        let tmp = self.path(&format!("{name}.tmp"));
        let target = self.path(name);
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_data()?;
            fs::rename(&tmp, &target)?;
            // Persist the rename itself; not every platform lets a
            // directory be opened for syncing, so failure to do so is
            // not fatal (the rename is still atomic).
            if let Ok(d) = fs::File::open(&self.dir) {
                let _ = d.sync_all();
            }
            Ok(())
        };
        write().map_err(|e| store_err(format!("replace {name}: {e}")))
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<()> {
        if matches!(&self.appender, Some((n, _)) if n == name) {
            self.appender = None; // reopen after the length change
        }
        let go = || -> std::io::Result<()> {
            let f = fs::OpenOptions::new().write(true).open(self.path(name))?;
            f.set_len(len)?;
            f.sync_data()
        };
        match go() {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && len == 0 => Ok(()),
            Err(e) => Err(store_err(format!("truncate {name}: {e}"))),
        }
    }
}

#[derive(Default)]
struct SimFile {
    /// Bytes guaranteed to survive a crash.
    persisted: Vec<u8>,
    /// Bytes visible now but lost (except a seeded strict prefix) at a
    /// crash.
    volatile: Vec<u8>,
}

struct SimState {
    files: BTreeMap<String, SimFile>,
    rng: SplitMix64,
    ops_done: u64,
    crash_at: Option<u64>,
    crashed: bool,
}

impl SimState {
    /// Called at the top of every mutating op: either pass, or crash —
    /// every file keeps its persisted bytes plus a seeded strictly
    /// shorter prefix of its volatile bytes, and all later ops fail.
    fn tick(&mut self) -> Result<()> {
        if self.crashed {
            return Err(store_err("simulated storage is down (post-crash)"));
        }
        self.ops_done += 1;
        if Some(self.ops_done) == self.crash_at.map(|n| n + 1) {
            for f in self.files.values_mut() {
                let keep = if f.volatile.is_empty() {
                    0
                } else {
                    self.rng.gen_range(0..f.volatile.len())
                };
                f.persisted.extend_from_slice(&f.volatile[..keep]);
                f.volatile.clear();
            }
            self.crashed = true;
            return Err(store_err("simulated crash"));
        }
        Ok(())
    }
}

/// A deterministic in-memory [`DurableDir`] with crash injection.
///
/// Clones share state, so a test can hold one handle while the durable
/// scheme owns another: arm a crash with
/// [`crash_after`](Self::crash_after), drive writes until the storage
/// "dies", then [`restart`](Self::restart) and recover from what
/// survived. Mutating operations ([`append`](DurableDir::append),
/// [`sync`](DurableDir::sync), [`replace`](DurableDir::replace),
/// [`truncate`](DurableDir::truncate)) each count as one disk op;
/// reads are free.
#[derive(Clone)]
pub struct SimDir {
    state: Arc<Mutex<SimState>>,
}

impl SimDir {
    /// A fresh simulated directory; `seed` drives how much unsynced
    /// data survives each crash.
    pub fn new(seed: u64) -> Self {
        SimDir {
            state: Arc::new(Mutex::new(SimState {
                files: BTreeMap::new(),
                rng: SplitMix64::new(seed),
                ops_done: 0,
                crash_at: None,
                crashed: false,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SimState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Arm a crash on the `(n+1)`-th mutating disk op from now
    /// (`n == 0` crashes the very next one).
    pub fn crash_after(&self, n: u64) {
        let mut st = self.lock();
        let base = st.ops_done;
        st.crash_at = Some(base + n);
    }

    /// Mutating disk ops performed so far.
    pub fn ops_done(&self) -> u64 {
        self.lock().ops_done
    }

    /// Has the armed crash fired?
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Bring the storage back up after a crash: what survived is now
    /// the persisted content, the op counter keeps counting, and no
    /// crash is armed.
    pub fn restart(&self) {
        let mut st = self.lock();
        st.crashed = false;
        st.crash_at = None;
        // Anything still unsynced did not survive the power cycle.
        for f in st.files.values_mut() {
            f.volatile.clear();
        }
    }
}

impl DurableDir for SimDir {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        let st = self.lock();
        Ok(st.files.get(name).map(|f| {
            let mut out = f.persisted.clone();
            out.extend_from_slice(&f.volatile);
            out
        }))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        let mut st = self.lock();
        if st.crashed {
            return Err(store_err("simulated storage is down (post-crash)"));
        }
        // Stage first so the crash rule sees the in-flight bytes and
        // can keep a torn prefix of them.
        st.files
            .entry(name.to_owned())
            .or_default()
            .volatile
            .extend_from_slice(bytes);
        st.tick()
    }

    fn sync(&mut self, name: &str) -> Result<()> {
        let mut st = self.lock();
        st.tick()?;
        if let Some(f) = st.files.get_mut(name) {
            let vol = std::mem::take(&mut f.volatile);
            f.persisted.extend_from_slice(&vol);
        }
        Ok(())
    }

    fn replace(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        let mut st = self.lock();
        // Atomic rename semantics: a crash here leaves the old content.
        st.tick()?;
        st.files.insert(
            name.to_owned(),
            SimFile {
                persisted: bytes.to_vec(),
                volatile: Vec::new(),
            },
        );
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<()> {
        let mut st = self.lock();
        st.tick()?;
        if let Some(f) = st.files.get_mut(name) {
            let mut all = std::mem::take(&mut f.persisted);
            all.extend_from_slice(&f.volatile);
            f.volatile.clear();
            all.truncate(len as usize);
            f.persisted = all;
        }
        Ok(())
    }
}

/// A fresh, process-unique scratch directory under the OS temp dir —
/// the repo-wide way for tests and dir-less `durable(...)` builds to
/// get on-disk space without fixed paths (which the
/// `cargo xtask lint` `fixed-path` rule forbids in tests).
pub fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    // relaxed: uniqueness only; the RMW's atomicity suffices.
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ltree-{tag}-{}-{n}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireSplice;

    fn rand_request(rng: &mut SplitMix64) -> Request {
        match rng.gen_range(0..7) {
            0 => Request::BulkBuild(rng.next_u64() >> 40),
            1 => Request::InsertFirst,
            2 => Request::InsertAfter(rng.next_u64()),
            3 => Request::InsertBefore(rng.next_u64()),
            4 => Request::Delete(rng.next_u64()),
            5 => Request::Splice(WireSplice::InsertAfter {
                anchor: rng.next_u64(),
                count: rng.next_u64() >> 40,
            }),
            _ => Request::Splice(WireSplice::DeleteRun {
                first: rng.next_u64(),
                count: rng.next_u64() >> 40,
            }),
        }
    }

    /// Satellite: encode → append → reopen → replay is the identity
    /// over randomized splice streams, for every seed.
    #[test]
    fn log_roundtrip_fuzz() {
        for seed in 0..24u64 {
            let mut rng = SplitMix64::new(seed);
            let n = rng.gen_range(1..80);
            let recs: Vec<(u64, Request)> = (0..n as u64)
                .map(|i| (i + 1, rand_request(&mut rng)))
                .collect();
            let mut dir = SimDir::new(seed);
            for (seq, req) in &recs {
                dir.append(WAL_FILE, &encode_record(*seq, req)).unwrap();
            }
            dir.sync(WAL_FILE).unwrap();
            let image = dir.read(WAL_FILE).unwrap().unwrap();
            let scan = scan_log(&image).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(scan.records, recs, "seed {seed}");
            assert_eq!(scan.valid_len, image.len() as u64, "seed {seed}");
        }
    }

    /// A torn tail (any strict prefix cut inside the final record) is
    /// tolerated: the scan returns every earlier record and the valid
    /// length to truncate to.
    #[test]
    fn torn_tail_is_tolerated_at_every_cut() {
        let recs: Vec<(u64, Request)> =
            (1..=5).map(|i| (i, Request::InsertAfter(i * 10))).collect();
        let mut image = Vec::new();
        let mut offsets = vec![0usize];
        for (seq, req) in &recs {
            image.extend_from_slice(&encode_record(*seq, req));
            offsets.push(image.len());
        }
        for cut in offsets[4]..image.len() {
            let scan = scan_log(&image[..cut]).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(scan.records, recs[..4], "cut {cut}");
            assert_eq!(scan.valid_len as usize, offsets[4], "cut {cut}");
        }
        let full = scan_log(&image).unwrap();
        assert_eq!(full.records, recs);
    }

    /// A complete record with a flipped byte is corruption — a typed
    /// `Durability` error, never a panic, at every byte position.
    #[test]
    fn corrupted_checksums_are_typed_errors() {
        let mut image = Vec::new();
        for i in 1..=3u64 {
            image.extend_from_slice(&encode_record(i, &Request::Delete(i)));
        }
        let rec_len = image.len() / 3;
        // Flip one byte inside the *first* record so the damage is
        // followed by complete records (i.e. unambiguously not a torn
        // tail).
        for pos in 0..rec_len {
            let mut bad = image.clone();
            bad[pos] ^= 0x41;
            match scan_log(&bad) {
                Err(LTreeError::Durability { context }) => {
                    assert!(
                        context.contains("corrupt") || context.contains("log"),
                        "{context}"
                    );
                }
                Ok(scan) => {
                    // Flipping a length-prefix byte can turn the rest of
                    // the file into one torn record — allowed, but then
                    // nothing decodes past the damage.
                    assert!(
                        scan.records.len() < 3,
                        "pos {pos}: corruption decoded as {} records",
                        scan.records.len()
                    );
                }
                Err(e) => panic!("pos {pos}: wrong error type {e}"),
            }
        }
    }

    #[test]
    fn sequence_regressions_are_rejected() {
        let mut image = Vec::new();
        image.extend_from_slice(&encode_record(5, &Request::InsertFirst));
        image.extend_from_slice(&encode_record(5, &Request::InsertFirst));
        assert!(matches!(
            scan_log(&image),
            Err(LTreeError::Durability { .. })
        ));
    }

    /// The simulator's crash rule: fsynced bytes always survive, the
    /// in-flight op never takes full effect.
    #[test]
    fn simulated_crash_keeps_synced_bytes_and_tears_unsynced_ones() {
        for seed in 0..20u64 {
            let mut dir = SimDir::new(seed);
            dir.append(WAL_FILE, b"durable-part").unwrap();
            dir.sync(WAL_FILE).unwrap();
            dir.crash_after(0);
            let err = dir.append(WAL_FILE, b"lost-or-torn").unwrap_err();
            assert!(matches!(err, LTreeError::Durability { .. }));
            assert!(dir.crashed());
            // Post-crash ops fail until restart.
            assert!(dir.append(WAL_FILE, b"x").is_err());
            dir.restart();
            let image = dir.read(WAL_FILE).unwrap().unwrap();
            assert!(image.starts_with(b"durable-part"), "seed {seed}");
            assert!(
                image.len() < b"durable-part".len() + b"lost-or-torn".len(),
                "seed {seed}: an interrupted append must never fully persist"
            );
        }
    }

    #[test]
    fn fs_dir_appends_syncs_replaces_and_truncates() {
        let root = scratch_dir("fsdir-test");
        let mut dir = FsDir::open(&root).unwrap();
        assert_eq!(dir.read(WAL_FILE).unwrap(), None);
        dir.append(WAL_FILE, b"abc").unwrap();
        dir.append(WAL_FILE, b"def").unwrap();
        dir.sync(WAL_FILE).unwrap();
        assert_eq!(dir.read(WAL_FILE).unwrap().unwrap(), b"abcdef");
        dir.truncate(WAL_FILE, 4).unwrap();
        assert_eq!(dir.read(WAL_FILE).unwrap().unwrap(), b"abcd");
        // Appends continue at the truncated boundary.
        dir.append(WAL_FILE, b"Z").unwrap();
        assert_eq!(dir.read(WAL_FILE).unwrap().unwrap(), b"abcdZ");
        dir.replace(SNAP_FILE, b"snapshot").unwrap();
        assert_eq!(dir.read(SNAP_FILE).unwrap().unwrap(), b"snapshot");
        dir.replace(SNAP_FILE, b"snapshot2").unwrap();
        assert_eq!(dir.read(SNAP_FILE).unwrap().unwrap(), b"snapshot2");
        // Truncating a missing file to zero is a no-op, not an error.
        dir.truncate("absent", 0).unwrap();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn scratch_dirs_are_unique() {
        let a = scratch_dir("uniq");
        let b = scratch_dir("uniq");
        assert_ne!(a, b);
        assert!(a.starts_with(std::env::temp_dir()));
    }
}
