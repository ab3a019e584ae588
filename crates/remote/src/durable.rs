//! # `durable(inner)` — crash-safe persistence over any labeling scheme
//!
//! [`DurableScheme`] wraps any registry scheme with the classic
//! log-then-checkpoint durability protocol:
//!
//! * every successful mutation is appended to a [`wal`](crate::wal)
//!   write-ahead log **and fsynced before the call returns** (under the
//!   default [`SyncPolicy::Always`]) — so an acknowledged write is a
//!   durable write;
//! * every `checkpoint_every` mutations (and on demand via
//!   [`checkpoint`](DurableScheme::checkpoint)) the whole logical state
//!   is written as a compact `LTDS` image — sealed and opened by
//!   [`snapshot::begin`], [`snapshot::seal`] and [`snapshot::open`] —
//!   and the log is truncated;
//! * [`open`](DurableScheme::open) recovers: load the latest valid
//!   snapshot, replay the log tail (records the snapshot already
//!   covers are skipped by sequence number), tolerate a torn final
//!   record by truncating it away. Genuine corruption is a typed
//!   [`LTreeError::Durability`] error — so is a snapshot whose handle
//!   sets are inconsistent (a handle that is zero, not below the
//!   handle counter, or listed twice).
//!
//! ## Stable handles across restarts
//!
//! The wrapper mints its own **durable handles** from a deterministic
//! counter and translates them to the inner scheme's handles. The
//! log records mutations in durable-handle terms, so replaying them
//! re-mints identical handles against a freshly rebuilt inner scheme —
//! a client holding handles from before a crash can keep using them
//! after recovery, even though the inner scheme (and its labels) were
//! rebuilt from scratch. Labels may differ after recovery; the *list*
//! (and therefore every order comparison) may not.
//!
//! Durable handles run `1, 2, 3, …`, so the translation is a dense
//! table of every handle ever minted: a slot vector of inner handles
//! indexed by `handle − 1`, a bitset of deleted slots, and an
//! open-addressing table of `u32` slot indices that the cursor uses to
//! map an inner handle back (it stores no keys: a probe checks the
//! slot vector). `memory_bytes` counts all three by capacity, about
//! 21 B per handle ever minted. A checkpoint lists the live handles in
//! cursor order and the dead ones in one ascending scan of the bitset.
//!
//! Reads see live items only: the cursor skips deleted handles, a
//! deleted durable handle answers [`LTreeError::DeletedLeaf`] forever
//! (also after recovery), and an unknown one answers
//! [`LTreeError::UnknownHandle`].
//!
//! ## Composition
//!
//! `durable(...)` is an ordinary registry composite:
//! `served(durable(ltree(4,2)))` is a crash-safe label server,
//! `checked(durable(gap))` audits the wrapper against a shadow model,
//! and `sharded(2,durable(ltree(4,2)))` gives every segment its own
//! log + snapshot. When no `dir=` option is given, a fresh scratch
//! directory under the OS temp dir is created and removed again when
//! the scheme is dropped.

use std::path::{Path, PathBuf};

use ltree_core::metrics::Metric;
use ltree_core::snapshot::{self, Reader, SnapshotError};
use ltree_core::{
    BatchLabeling, DynScheme, Instrumented, LTreeError, LeafHandle, OrderedLabeling,
    OrderedLabelingMut, Result, SchemeStats,
};
use ltree_obs::Histogram;

use crate::wal::{encode_record, scan_log, scratch_dir, DurableDir, FsDir, SNAP_FILE, WAL_FILE};
use crate::wire::{Request, WireSplice};

/// Snapshot image magic: **L**-**T**ree **D**urable **S**cheme.
const SNAP_MAGIC: &[u8; 4] = b"LTDS";
/// Snapshot format version.
const SNAP_VERSION: u16 = 1;

fn store_err(context: impl Into<String>) -> LTreeError {
    LTreeError::Durability {
        context: context.into(),
    }
}

/// The log sequence number after `seq`, or an error at the last one.
fn seq_after(seq: u64) -> Result<u64> {
    seq.checked_add(1).ok_or_else(|| {
        store_err(format!(
            "log sequence number {seq} leaves none for the next record"
        ))
    })
}

/// When the log is made crash-durable relative to the acknowledgment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync after every logged mutation, *before* returning to the
    /// caller: an acknowledged write survives any crash. The default.
    Always,
    /// Never fsync explicitly (the OS flushes whenever it likes):
    /// acknowledged writes can be lost in a crash. Exists to measure
    /// the fsync cost — and to demonstrate, in the fault-injection
    /// suite, that ack-before-fsync genuinely loses acknowledged data.
    Never,
}

/// Tuning knobs for [`DurableScheme`].
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// Fsync discipline; see [`SyncPolicy`].
    pub sync: SyncPolicy,
    /// Checkpoint (snapshot + log truncation) after this many logged
    /// mutations; `0` disables automatic checkpoints.
    pub checkpoint_every: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: 1024,
        }
    }
}

#[derive(Default)]
struct WalCounters {
    appends: u64,
    fsyncs: u64,
    bytes: u64,
    checkpoints: u64,
    failed_checkpoints: u64,
    replayed: u64,
}

/// The `LTDS` checkpoint: `snap_seq u64 | next_handle u64 | live | dead`
/// in a [`snapshot`] container, each handle list a `u64` count followed
/// by the handles.
struct Snapshot {
    snap_seq: u64,
    next_handle: u64,
    live: Vec<u64>,
    dead: Vec<u64>,
}

impl Snapshot {
    fn encode(&self) -> Vec<u8> {
        let mut out = snapshot::begin(SNAP_MAGIC, SNAP_VERSION);
        out.extend_from_slice(&self.snap_seq.to_le_bytes());
        out.extend_from_slice(&self.next_handle.to_le_bytes());
        for list in [&self.live, &self.dead] {
            out.extend_from_slice(&(list.len() as u64).to_le_bytes());
            for h in list {
                out.extend_from_slice(&h.to_le_bytes());
            }
        }
        snapshot::seal(&mut out);
        out
    }

    fn decode(bytes: &[u8]) -> std::result::Result<Self, SnapshotError> {
        fn handles(r: &mut Reader<'_>) -> std::result::Result<Vec<u64>, SnapshotError> {
            (0..r.u64()?).map(|_| r.u64()).collect()
        }
        let mut r = snapshot::open(bytes, SNAP_MAGIC, SNAP_VERSION)?;
        let snap = Snapshot {
            snap_seq: r.u64()?,
            next_handle: r.u64()?,
            live: handles(&mut r)?,
            dead: handles(&mut r)?,
        };
        r.finish()?;
        Ok(snap)
    }
}

/// Most handles one [`DurableScheme`] mints: a probe bucket holds a
/// `u32` slot index, and [`EMPTY`] is not one.
const MAX_HANDLES: usize = u32::MAX as usize;
/// A free bucket of [`HandleTable::probe`].
const EMPTY: u32 = u32::MAX;
/// Fibonacci hashing's multiplier, 2⁶⁴ over the golden ratio: the top
/// bits of the product mix every bit of the key, so L-Tree handles
/// (`(record + 1) << 32 | generation`, low word mostly zero) spread as
/// well as dense ones (`naive`, `gap`: `0, 1, 2, …`). The keys are the
/// inner scheme's handles, which the wrapper trusts as it trusts that
/// scheme's labels, so the hash needs no seed against crafted keys.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// The bucket `ih` hashes to in a table of `buckets` (a power of two,
/// at least 2) buckets.
fn bucket(ih: u64, buckets: usize) -> usize {
    (ih.wrapping_mul(FIB) >> (64 - buckets.trailing_zeros())) as usize
}

/// Point a bucket of `probe` at `slot`: the bucket already holding a
/// slot minted for the same inner handle (an inner scheme that hands a
/// dead leaf's handle out again), else the first free one.
fn place(probe: &mut [u32], inner: &[u64], slot: usize) {
    let ih = inner[slot];
    let mask = probe.len() - 1;
    let mut b = bucket(ih, probe.len());
    while probe[b] != EMPTY && inner[probe[b] as usize] != ih {
        b = (b + 1) & mask;
    }
    probe[b] = slot as u32;
}

/// Every durable handle ever minted, dead or alive, in three dense
/// buffers. Durable handles run `1..=len()`, so handle `dh` is slot
/// `dh − 1`.
#[derive(Default)]
struct HandleTable {
    /// Slot → the inner handle it was minted for. A handle already dead
    /// in the snapshot recovery loads keeps 0 here: the rebuilt inner
    /// scheme never held it.
    inner: Vec<u64>,
    /// Bit `slot` of word `slot / 64` is set once the handle is deleted.
    dead: Vec<u64>,
    /// Inner handle → slot, by linear probing over a hash of the inner
    /// handle: a bucket holds a slot or [`EMPTY`], and a lookup checks
    /// `inner[slot]` against its key, so no key is stored. Empty or a
    /// power of two at least twice `inner.len()` long. Insert-only: a
    /// deleted handle's slot stays until the next rehash, which places
    /// live slots only.
    probe: Vec<u32>,
    /// Handles not deleted.
    live: usize,
}

/// Room [`HandleTable::try_reserve`] set aside for one insert: the
/// capacities to return to if the inner scheme refuses it, and the
/// bucket count of the larger probe table it needs with a buffer
/// allocated for them, not yet filled.
struct Room {
    inner_cap: usize,
    dead_cap: usize,
    probe: Option<(usize, Vec<u32>)>,
}

impl HandleTable {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_dead(&self, slot: usize) -> bool {
        self.dead[slot / 64] >> (slot % 64) & 1 == 1
    }

    /// Set `slot`'s dead bit; false if it was set already.
    fn set_dead(&mut self, slot: usize) -> bool {
        let (word, bit) = (&mut self.dead[slot / 64], 1 << (slot % 64));
        let was_live = *word & bit == 0;
        *word |= bit;
        was_live
    }

    /// The inner handle of live durable handle `dh`.
    fn live_inner(&self, dh: u64) -> Result<u64> {
        let slot = dh
            .checked_sub(1)
            .and_then(|s| usize::try_from(s).ok())
            .filter(|&s| s < self.len())
            .ok_or(LTreeError::UnknownHandle)?;
        if self.is_dead(slot) {
            Err(LTreeError::DeletedLeaf)
        } else {
            Ok(self.inner[slot])
        }
    }

    /// The live durable handle minted for inner handle `ih`, if any.
    fn live_durable(&self, ih: u64) -> Option<u64> {
        if self.probe.is_empty() {
            return None;
        }
        let mask = self.probe.len() - 1;
        let mut b = bucket(ih, self.probe.len());
        loop {
            let slot = self.probe[b];
            if slot == EMPTY {
                return None;
            }
            let slot = slot as usize;
            if self.inner[slot] == ih {
                return (!self.is_dead(slot)).then_some(slot as u64 + 1);
            }
            b = (b + 1) & mask;
        }
    }

    /// Room to mint `additional` more handles without allocating, or
    /// [`LTreeError::CapacityExceeded`] with the table unchanged. A
    /// larger probe table, when one is due, is allocated here but
    /// filled only by [`commit`](Self::commit), so nothing is written
    /// before the inner scheme accepts the insert.
    fn try_reserve(&mut self, additional: usize) -> Result<Room> {
        let exceeded = || LTreeError::CapacityExceeded {
            requested: additional as u64,
        };
        let total = self
            .len()
            .checked_add(additional)
            .filter(|&t| t <= MAX_HANDLES)
            .ok_or_else(exceeded)?;
        let buckets = total
            .max(1)
            .checked_mul(2)
            .and_then(usize::checked_next_power_of_two)
            .ok_or_else(exceeded)?;
        let probe = if buckets > self.probe.len() {
            let mut probe = Vec::new();
            probe.try_reserve_exact(buckets).map_err(|_| exceeded())?;
            Some((buckets, probe))
        } else {
            None
        };
        let room = Room {
            inner_cap: self.inner.capacity(),
            dead_cap: self.dead.capacity(),
            probe,
        };
        let words = total.div_ceil(64) - self.dead.len();
        if self.inner.try_reserve(additional).is_err() || self.dead.try_reserve(words).is_err() {
            self.release(room);
            return Err(exceeded());
        }
        Ok(room)
    }

    /// Put `room` to use: fill and install the larger probe table it
    /// holds, if any, placing every live slot.
    fn commit(&mut self, room: Room) {
        let Some((buckets, mut probe)) = room.probe else {
            return;
        };
        probe.resize(buckets, EMPTY);
        for slot in (0..self.len()).filter(|&s| !self.is_dead(s)) {
            place(&mut probe, &self.inner, slot);
        }
        self.probe = probe;
    }

    /// Hand `room` back unused, as after an insert the inner scheme
    /// refused: the buffers return to their capacities before it.
    fn release(&mut self, room: Room) {
        self.inner.shrink_to(room.inner_cap);
        self.dead.shrink_to(room.dead_cap);
    }

    /// Mint the next durable handle for inner handle `ih`, in room
    /// [`try_reserve`](Self::try_reserve) made.
    fn push(&mut self, ih: u64) {
        let slot = self.len();
        assert!(
            2 * slot < self.probe.len(),
            "durable handle minted without reserved room"
        );
        self.inner.push(ih);
        if slot.is_multiple_of(64) {
            self.dead.push(0);
        }
        place(&mut self.probe, &self.inner, slot);
        self.live += 1;
    }

    /// Delete live durable handle `dh`.
    fn mark_dead(&mut self, dh: u64) {
        if self.set_dead(dh as usize - 1) {
            self.live -= 1;
        }
    }

    /// The handles a snapshot lists: `live` in list order with the inner
    /// handles `ihs` the rebuilt inner scheme gave them, and `dead`.
    /// Together they must list `1..=live.len() + dead.len()` once each.
    fn restore(live: &[u64], ihs: &[LeafHandle], dead: &[u64]) -> Result<HandleTable> {
        let listed = live.len() + dead.len();
        let mut t = HandleTable::default();
        let room = t
            .try_reserve(listed)
            .map_err(|e| store_err(format!("snapshot image: {e}")))?;
        t.commit(room);
        t.inner.resize(listed, 0);
        t.dead.resize(listed.div_ceil(64), 0);
        // Mark every listed handle dead, catching repeats, then revive
        // the live ones.
        for &dh in live.iter().chain(dead) {
            if dh == 0 || dh > listed as u64 || !t.set_dead(dh as usize - 1) {
                return Err(store_err(format!(
                    "snapshot image: handle {dh} is zero, unminted or listed twice"
                )));
            }
        }
        for (&dh, ih) in live.iter().zip(ihs) {
            let slot = dh as usize - 1;
            t.dead[slot / 64] &= !(1 << (slot % 64));
            t.inner[slot] = ih.0;
            place(&mut t.probe, &t.inner, slot);
        }
        t.live = live.len();
        Ok(t)
    }

    /// Deleted durable handles, ascending.
    fn dead_handles(&self) -> Vec<u64> {
        (0..self.len())
            .filter(|&s| self.is_dead(s))
            .map(|s| s as u64 + 1)
            .collect()
    }

    /// The three buffers, by capacity.
    fn memory_bytes(&self) -> usize {
        self.inner.capacity() * 8 + self.dead.capacity() * 8 + self.probe.capacity() * 4
    }
}

/// A write-ahead-logged, snapshot-checkpointed wrapper around any
/// [`DynScheme`]; see the [module docs](self) for the protocol.
pub struct DurableScheme {
    inner: Box<dyn DynScheme>,
    dir: Box<dyn DurableDir>,
    opts: DurableOptions,
    /// Durable handle ↔ inner handle for every handle ever minted:
    /// `len()` is their number, and the next one minted is `len() + 1`.
    table: HandleTable,
    next_seq: u64,
    /// Highest sequence number the on-disk snapshot covers.
    snap_seq: u64,
    ops_since_checkpoint: u64,
    wal: WalCounters,
    /// Wall-clock cost of each `fsync` on the log file
    /// (`wal/fsync-duration`, nanoseconds) — the price of the
    /// ack-is-durable guarantee, visible through `metrics()`.
    fsync_hist: Histogram,
    /// Wall-clock cost of each checkpoint (`wal/checkpoint-duration`,
    /// nanoseconds): snapshot encode + replace + log truncation.
    checkpoint_hist: Histogram,
    /// A scratch directory this scheme created for itself (no `dir=`
    /// given) and removes again on drop.
    own_dir: Option<PathBuf>,
}

impl DurableScheme {
    /// Open over any [`DurableDir`]: recover when it holds state,
    /// start fresh when it does not. `inner` must be empty — recovery
    /// rebuilds the list into it.
    pub fn open(
        inner: Box<dyn DynScheme>,
        dir: Box<dyn DurableDir>,
        opts: DurableOptions,
    ) -> Result<Self> {
        let mut me = DurableScheme {
            inner,
            dir,
            opts,
            table: HandleTable::default(),
            next_seq: 1,
            snap_seq: 0,
            ops_since_checkpoint: 0,
            wal: WalCounters::default(),
            fsync_hist: Histogram::new(),
            checkpoint_hist: Histogram::new(),
            own_dir: None,
        };
        if !me.inner.is_empty() {
            return Err(store_err(
                "durable(...) needs an empty inner scheme: recovery rebuilds the list into it",
            ));
        }
        if let Some(image) = me.dir.read(SNAP_FILE)? {
            let snap =
                Snapshot::decode(&image).map_err(|e| store_err(format!("snapshot image: {e}")))?;
            // The table keeps every handle ever minted, so the lists
            // must cover `1..next_handle` exactly — which also bounds
            // the counter by the image's own size.
            let listed = (snap.live.len() + snap.dead.len()) as u64;
            if snap.next_handle.checked_sub(1) != Some(listed) {
                return Err(store_err(format!(
                    "snapshot image: next_handle {} does not follow the {listed} handles it lists",
                    snap.next_handle
                )));
            }
            me.snap_seq = snap.snap_seq;
            me.next_seq = seq_after(snap.snap_seq)?;
            let ihs = if snap.live.is_empty() {
                Vec::new()
            } else {
                me.inner
                    .bulk_build(snap.live.len())
                    .map_err(|e| store_err(format!("snapshot rebuild: {e}")))?
            };
            me.table = HandleTable::restore(&snap.live, &ihs, &snap.dead)?;
        }
        let log = me.dir.read(WAL_FILE)?.unwrap_or_default();
        let scan = scan_log(&log)?;
        for (seq, req) in &scan.records {
            if *seq <= me.snap_seq {
                continue; // the snapshot already covers this record
            }
            let next_seq = seq_after(*seq)?;
            me.replay(req)
                .map_err(|e| store_err(format!("replay of log record seq {seq}: {e}")))?;
            me.next_seq = next_seq;
            me.wal.replayed += 1;
        }
        if scan.valid_len < log.len() as u64 {
            // Torn tail from a crash mid-append: drop it so new records
            // land on a clean boundary.
            me.dir.truncate(WAL_FILE, scan.valid_len)?;
        }
        me.ops_since_checkpoint = me.wal.replayed;
        Ok(me)
    }

    /// Open (or recover from) an on-disk directory.
    pub fn open_path(inner: Box<dyn DynScheme>, path: &Path, opts: DurableOptions) -> Result<Self> {
        Self::open(inner, Box::new(FsDir::open(path)?), opts)
    }

    /// Open over a fresh process-unique scratch directory that is
    /// deleted again when the scheme drops — the dir-less registry
    /// form `durable(inner)`.
    pub fn open_scratch(inner: Box<dyn DynScheme>, opts: DurableOptions) -> Result<Self> {
        let path = scratch_dir("durable");
        let mut me = Self::open_path(inner, &path, opts)?;
        me.own_dir = Some(path);
        Ok(me)
    }

    /// Write a snapshot of the current state and truncate the log.
    pub fn checkpoint(&mut self) -> Result<()> {
        let start = std::time::Instant::now();
        let mut live = Vec::with_capacity(self.table.live);
        let mut cur = self.first_in_order();
        while let Some(h) = cur {
            live.push(h.0);
            cur = self.next_in_order(h);
        }
        let snap = Snapshot {
            snap_seq: self.next_seq - 1,
            next_handle: self.table.len() as u64 + 1,
            live,
            dead: self.table.dead_handles(),
        };
        self.dir.replace(SNAP_FILE, &snap.encode())?;
        self.snap_seq = snap.snap_seq;
        self.dir.truncate(WAL_FILE, 0)?;
        self.ops_since_checkpoint = 0;
        self.wal.checkpoints += 1;
        self.checkpoint_hist
            .record(start.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Log records replayed during [`open`](Self::open) — zero for a
    /// fresh directory.
    pub fn replayed_records(&self) -> u64 {
        self.wal.replayed
    }

    /// The first live durable handle at or after inner handle `ih` in
    /// list order, skipping inner tombstones and deleted handles.
    fn live_from(&self, mut ih: Option<LeafHandle>) -> Option<LeafHandle> {
        loop {
            let h = ih?;
            if let Some(dh) = self.table.live_durable(h.0) {
                return Some(LeafHandle(dh));
            }
            ih = self.inner.next_in_order(h);
        }
    }

    /// Append one record for an already-applied mutation, fsync per
    /// policy, checkpoint on schedule. Failing here leaves the
    /// in-memory state ahead of the log; callers treat the typed error
    /// as "the store is no longer durable" and discard the instance.
    fn log(&mut self, req: Request) -> Result<()> {
        let seq = self.next_seq;
        self.next_seq = seq_after(seq)?;
        let rec = encode_record(seq, &req);
        self.dir.append(WAL_FILE, &rec)?;
        self.wal.appends += 1;
        self.wal.bytes += rec.len() as u64;
        if self.opts.sync == SyncPolicy::Always {
            let start = std::time::Instant::now();
            self.dir.sync(WAL_FILE)?;
            self.fsync_hist.record(start.elapsed().as_nanos() as u64);
            self.wal.fsyncs += 1;
        }
        self.ops_since_checkpoint += 1;
        if self.opts.checkpoint_every > 0 && self.ops_since_checkpoint >= self.opts.checkpoint_every
        {
            // The record is on disk: the operation is acknowledged no
            // matter what happens to the checkpoint. A failed checkpoint
            // leaves the snapshot + log pair it tried to compact — still
            // a correct recovery image — and `ops_since_checkpoint`
            // stays over the threshold, so the next logged op retries.
            // (Acking and *then* failing would make a crashed checkpoint
            // resurrect an "unacknowledged" yet durable record, breaking
            // exact acked-prefix recovery.)
            if self.checkpoint().is_err() {
                self.wal.failed_checkpoints += 1;
            }
        }
        Ok(())
    }

    /// Apply one mutation to the inner scheme and the handle table, not
    /// logged: the live path logs `req` once this succeeds, and recovery
    /// replays logged records through it, so the handle counter re-mints
    /// the durable handles the original run handed out. Returns how many
    /// handles it minted or deleted.
    fn apply(&mut self, req: &Request) -> Result<usize> {
        match *req {
            Request::BulkBuild(n) => {
                if self.table.len() > 0 {
                    return Err(LTreeError::NotEmpty);
                }
                self.mint(n as usize, |s| s.bulk_build(n as usize))
            }
            Request::InsertFirst => self.mint(1, |s| s.insert_first().map(|h| [h])),
            Request::InsertAfter(a) => {
                let at = LeafHandle(self.table.live_inner(a)?);
                self.mint(1, |s| s.insert_after(at).map(|h| [h]))
            }
            Request::InsertBefore(a) => {
                let at = LeafHandle(self.table.live_inner(a)?);
                self.mint(1, |s| s.insert_before(at).map(|h| [h]))
            }
            Request::Delete(h) => {
                let ih = self.table.live_inner(h)?;
                self.inner.delete(LeafHandle(ih))?;
                self.table.mark_dead(h);
                Ok(1)
            }
            Request::Splice(WireSplice::InsertAfter { anchor, count }) => {
                if count == 0 {
                    return Err(LTreeError::EmptyBatch);
                }
                let at = LeafHandle(self.table.live_inner(anchor)?);
                self.mint(count as usize, |s| s.insert_many_after(at, count as usize))
            }
            Request::Splice(WireSplice::DeleteRun { first, count }) => {
                self.delete_live_run(first, count as usize)
            }
            _ => Err(store_err(format!(
                "log carries a non-mutating record: {req:?}"
            ))),
        }
    }

    /// Run `insert`, which adds at most `k` items to the inner scheme,
    /// and mint a durable handle for each inner handle it returns, in
    /// order. Table room is reserved first, so a slot count past `u32`
    /// or memory that cannot be had is a typed error before the inner
    /// scheme runs, and an insert the inner scheme refuses hands the
    /// room back: a failed insert changes nothing.
    fn mint<H: AsRef<[LeafHandle]>>(
        &mut self,
        k: usize,
        insert: impl FnOnce(&mut dyn DynScheme) -> Result<H>,
    ) -> Result<usize> {
        let room = self.table.try_reserve(k)?;
        match insert(self.inner.as_mut()) {
            Ok(ihs) => {
                self.table.commit(room);
                for ih in ihs.as_ref() {
                    self.table.push(ih.0);
                }
                Ok(ihs.as_ref().len())
            }
            Err(e) => {
                self.table.release(room);
                Err(e)
            }
        }
    }

    /// Apply and log one insert; the durable handles it minted.
    fn insert(&mut self, req: Request) -> Result<std::ops::Range<u64>> {
        let first = self.table.len() as u64 + 1;
        let minted = self.apply(&req)? as u64;
        self.log(req)?;
        Ok(first..first + minted)
    }

    /// Re-apply one logged mutation during recovery (no re-logging).
    fn replay(&mut self, req: &Request) -> Result<()> {
        let done = self.apply(req)?;
        if let Request::Splice(WireSplice::DeleteRun { count, .. }) = *req {
            if done as u64 != count {
                return Err(store_err(format!(
                    "logged delete-run of {count} found only {done} live items"
                )));
            }
        }
        Ok(())
    }

    /// Delete up to `count` live items starting at the live handle
    /// `first`, in list order. Shared by the live path and replay.
    fn delete_live_run(&mut self, first: u64, count: usize) -> Result<usize> {
        let mut run = vec![first];
        let mut cur = LeafHandle(first);
        while run.len() < count {
            match self.next_in_order(cur) {
                Some(n) => {
                    run.push(n.0);
                    cur = n;
                }
                None => break,
            }
        }
        for &dh in &run {
            let ih = self.table.live_inner(dh)?;
            self.inner.delete(LeafHandle(ih))?;
            self.table.mark_dead(dh);
        }
        Ok(run.len())
    }
}

impl Drop for DurableScheme {
    fn drop(&mut self) {
        if let Some(path) = &self.own_dir {
            let _ = std::fs::remove_dir_all(path);
        }
    }
}

impl OrderedLabeling for DurableScheme {
    fn name(&self) -> &'static str {
        "durable"
    }

    fn label_of(&self, h: LeafHandle) -> Result<u128> {
        let ih = self.table.live_inner(h.0)?;
        self.inner.label_of(LeafHandle(ih))
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn live_len(&self) -> usize {
        self.table.live
    }

    fn first_in_order(&self) -> Option<LeafHandle> {
        self.live_from(self.inner.first_in_order())
    }

    fn next_in_order(&self, h: LeafHandle) -> Option<LeafHandle> {
        let ih = self.table.live_inner(h.0).ok()?;
        self.live_from(self.inner.next_in_order(LeafHandle(ih)))
    }

    fn label_space_bits(&self) -> u32 {
        self.inner.label_space_bits()
    }

    /// The inner scheme's bytes plus the handle table's three buffers
    /// by capacity. Per handle ever minted: 8 to 16 B of slot vector
    /// (its capacity doubles), 8 to 16 B of probe buckets (at least two
    /// per handle, a power of two) and a dead bit.
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes() + self.table.memory_bytes()
    }
}

impl OrderedLabelingMut for DurableScheme {
    fn bulk_build(&mut self, n: usize) -> Result<Vec<LeafHandle>> {
        let minted = self.insert(Request::BulkBuild(n as u64))?;
        Ok(minted.map(LeafHandle).collect())
    }

    fn insert_first(&mut self) -> Result<LeafHandle> {
        Ok(LeafHandle(self.insert(Request::InsertFirst)?.start))
    }

    fn insert_after(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        Ok(LeafHandle(
            self.insert(Request::InsertAfter(anchor.0))?.start,
        ))
    }

    fn insert_before(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        Ok(LeafHandle(
            self.insert(Request::InsertBefore(anchor.0))?.start,
        ))
    }

    fn delete(&mut self, h: LeafHandle) -> Result<()> {
        let req = Request::Delete(h.0);
        self.apply(&req)?;
        self.log(req)
    }
}

impl BatchLabeling for DurableScheme {
    fn insert_many_after(&mut self, anchor: LeafHandle, k: usize) -> Result<Vec<LeafHandle>> {
        let minted = self.insert(Request::Splice(WireSplice::InsertAfter {
            anchor: anchor.0,
            count: k as u64,
        }))?;
        Ok(minted.map(LeafHandle).collect())
    }

    fn delete_run(&mut self, first: LeafHandle, count: usize) -> Result<usize> {
        if count == 0 {
            return Ok(0);
        }
        match self.table.live_inner(first.0) {
            Err(LTreeError::DeletedLeaf) => return Ok(0), // dead anchor: the loop fallback's semantics
            Err(e) => return Err(e),
            Ok(_) => {}
        }
        let deleted = self.delete_live_run(first.0, count)?;
        // Logged normalized — the actual count, so replay is exact.
        self.log(Request::Splice(WireSplice::DeleteRun {
            first: first.0,
            count: deleted as u64,
        }))?;
        Ok(deleted)
    }
}

impl Instrumented for DurableScheme {
    fn scheme_stats(&self) -> SchemeStats {
        self.inner.scheme_stats()
    }

    fn reset_scheme_stats(&mut self) {
        self.inner.reset_scheme_stats();
        self.wal = WalCounters {
            replayed: self.wal.replayed,
            ..WalCounters::default()
        };
        self.fsync_hist = Histogram::new();
        self.checkpoint_hist = Histogram::new();
    }

    fn stats_breakdown(&self) -> Vec<(String, SchemeStats)> {
        self.inner.stats_breakdown()
    }

    /// The log's lifecycle counters (`wal/*`) and its fsync/checkpoint
    /// timings, plus the inner scheme's metrics.
    fn metrics(&self) -> Vec<Metric> {
        let w = &self.wal;
        let mut out = vec![
            Metric::counter("wal/appends", w.appends),
            Metric::counter("wal/fsyncs", w.fsyncs),
            Metric::counter("wal/bytes", w.bytes),
            Metric::counter("wal/checkpoints", w.checkpoints),
            Metric::counter("wal/failed_checkpoints", w.failed_checkpoints),
            Metric::counter("wal/replayed", w.replayed),
            Metric::histogram("wal/fsync-duration", self.fsync_hist.snapshot()),
            Metric::histogram("wal/checkpoint-duration", self.checkpoint_hist.snapshot()),
        ];
        out.extend(self.inner.metrics());
        ltree_core::metrics::sort_metrics(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::SimDir;
    use ltree_core::{Cursor, LTree, Params, Splice};

    fn ltree() -> Box<dyn DynScheme> {
        Box::new(LTree::new(Params::new(4, 2).unwrap()))
    }

    fn opts(sync: SyncPolicy, every: u64) -> DurableOptions {
        DurableOptions {
            sync,
            checkpoint_every: every,
        }
    }

    fn live_order(s: &DurableScheme) -> Vec<u64> {
        Cursor::new(s).map(|h| h.0).collect()
    }

    fn counter(s: &DurableScheme, name: &str) -> u64 {
        match s
            .metrics()
            .into_iter()
            .find(|m| m.name == name)
            .unwrap()
            .value
        {
            ltree_core::metrics::MetricValue::Counter(v) => v,
            other => panic!("{name} should be a counter, got {other:?}"),
        }
    }

    type Make = fn() -> Box<dyn DynScheme>;

    fn gap() -> Box<dyn DynScheme> {
        Box::new(labeling_baselines::GapLabeling::new())
    }

    /// What `label_of` answers for durable handle `h`, the label itself
    /// left out: recovery rebuilds the inner scheme, so labels may move.
    fn answer(s: &DurableScheme, h: u64) -> Result<()> {
        s.label_of(LeafHandle(h)).map(|_| ())
    }

    /// Over inner handles dense from 0 (`gap`) and inner handles with
    /// all-zero low words (the L-Tree), edits before a checkpoint and
    /// edits in the log tail after it survive a reopen: every handle
    /// ever minted answers as it did (a label, `DeletedLeaf` or
    /// `UnknownHandle`), and the cursor walks the same list.
    #[test]
    fn edits_survive_reopen_via_log_replay() {
        let inners: [(u64, Make); 2] = [(1, ltree), (10, gap)];
        for (seed, make) in inners {
            let dir = SimDir::new(seed);
            let mut s =
                DurableScheme::open(make(), Box::new(dir.clone()), opts(SyncPolicy::Always, 0))
                    .unwrap();
            let hs = s.bulk_build(8).unwrap();
            let mid = s.insert_after(hs[3]).unwrap();
            s.delete(hs[5]).unwrap();
            let run = s.insert_many_after(hs[0], 3).unwrap();
            assert_eq!(s.delete_run(hs[1], 2).unwrap(), 2);
            s.checkpoint().unwrap();
            // The log tail: five records the snapshot does not cover.
            s.insert_before(mid).unwrap();
            s.delete(mid).unwrap();
            s.insert_many_after(hs[7], 4).unwrap();
            // `hs[0]` stays live: recovery gives it the inner handle the
            // snapshot's dead handles also hold as a placeholder.
            assert_eq!(s.delete_run(run[0], 3).unwrap(), 3);
            s.insert_first().unwrap();
            let before = live_order(&s);
            let (live, minted) = (s.live_len(), s.len() as u64);
            let probes: Vec<u64> = (0..=minted + 1).chain([u64::MAX]).collect();
            let answers: Vec<_> = probes.iter().map(|&h| answer(&s, h)).collect();
            drop(s);
            let r =
                DurableScheme::open(make(), Box::new(dir), opts(SyncPolicy::Always, 0)).unwrap();
            assert_eq!(r.replayed_records(), 5, "only the log tail replays");
            assert_eq!(live_order(&r), before, "identical list after recovery");
            assert_eq!(r.live_len(), live);
            assert_eq!(r.len() as u64, minted, "tombstones still tracked");
            let recovered: Vec<_> = probes.iter().map(|&h| answer(&r, h)).collect();
            assert_eq!(recovered, answers, "every handle answers as before");
            assert_eq!(answers[mid.0 as usize], Err(LTreeError::DeletedLeaf));
            assert_eq!(answers[0], Err(LTreeError::UnknownHandle));
            assert_eq!(answers.last(), Some(&Err(LTreeError::UnknownHandle)));
            let labels: Vec<u128> = before
                .iter()
                .map(|&h| r.label_of(LeafHandle(h)).unwrap())
                .collect();
            assert!(
                labels.windows(2).all(|w| w[0] < w[1]),
                "labels increase along the cursor"
            );
        }
    }

    /// `memory_bytes` is the inner scheme's bytes plus the handle
    /// table's three buffers by capacity, and the table takes at most
    /// 32 B per handle ever minted.
    #[test]
    fn memory_bytes_counts_the_handle_table_by_capacity() {
        let mut s = DurableScheme::open(
            ltree(),
            Box::new(SimDir::new(11)),
            opts(SyncPolicy::Never, 0),
        )
        .unwrap();
        let hs = s.bulk_build(10_000).unwrap();
        for i in 0..2_000 {
            s.insert_after(hs[i * 5]).unwrap();
        }
        for &h in hs.iter().skip(1).step_by(20) {
            s.delete(h).unwrap();
        }
        assert_eq!((s.len(), s.live_len()), (12_000, 11_500));
        let t = &s.table;
        let own = t.inner.capacity() * 8 + t.dead.capacity() * 8 + t.probe.capacity() * 4;
        assert_eq!(s.memory_bytes(), s.inner.memory_bytes() + own);
        assert!(own <= 32 * s.len(), "{own} B for {} handles", s.len());
    }

    /// Room the inner scheme never used goes back whole, so an insert it
    /// refuses leaves `memory_bytes` as it was; a slot count past `u32`
    /// is refused before anything is allocated.
    #[test]
    fn refused_room_leaves_the_table_as_it_was() {
        let mut t = HandleTable::default();
        let room = t.try_reserve(100).unwrap();
        t.commit(room);
        for i in 0..100u64 {
            t.push((i + 1) << 32);
        }
        let bytes = t.memory_bytes();
        let room = t.try_reserve(1 << 20).unwrap();
        t.release(room);
        assert_eq!(t.memory_bytes(), bytes);
        assert_eq!(t.live_durable(6 << 32), Some(6));
        let past = MAX_HANDLES - 99;
        assert!(matches!(
            t.try_reserve(past),
            Err(LTreeError::CapacityExceeded { requested }) if requested == past as u64
        ));
        assert_eq!(t.memory_bytes(), bytes);
    }

    /// An inner scheme that hands a deleted leaf's handle out again
    /// maps it to the newest durable handle, not the dead one.
    #[test]
    fn a_reused_inner_handle_maps_to_its_newest_slot() {
        let mut t = HandleTable::default();
        let room = t.try_reserve(3).unwrap();
        t.commit(room);
        t.push(0);
        t.push(7);
        t.mark_dead(1);
        t.push(0);
        assert_eq!(t.live_durable(0), Some(3));
        assert_eq!(t.live_durable(7), Some(2));
        assert_eq!(t.live_inner(1), Err(LTreeError::DeletedLeaf));
    }

    #[test]
    fn checkpoint_truncates_the_log_and_recovery_prefers_the_snapshot() {
        let dir = SimDir::new(2);
        let mut s =
            DurableScheme::open(ltree(), Box::new(dir.clone()), opts(SyncPolicy::Always, 0))
                .unwrap();
        let hs = s.bulk_build(20).unwrap();
        s.delete(hs[4]).unwrap();
        s.checkpoint().unwrap();
        assert_eq!(
            dir.read(WAL_FILE).unwrap().unwrap().len(),
            0,
            "log truncated"
        );
        s.insert_after(hs[10]).unwrap(); // one post-checkpoint record
        let want = live_order(&s);
        drop(s);
        let r = DurableScheme::open(ltree(), Box::new(dir), opts(SyncPolicy::Always, 0)).unwrap();
        assert_eq!(live_order(&r), want);
        assert_eq!(r.replayed_records(), 1, "only the log tail replays");
    }

    #[test]
    fn automatic_checkpoints_fire_on_schedule() {
        let dir = SimDir::new(3);
        let mut s =
            DurableScheme::open(ltree(), Box::new(dir.clone()), opts(SyncPolicy::Always, 4))
                .unwrap();
        let hs = s.bulk_build(4).unwrap(); // logged op 1
        for _ in 0..7 {
            s.insert_after(hs[0]).unwrap();
        }
        let snap = dir.read(SNAP_FILE).unwrap();
        assert!(snap.is_some(), "a checkpoint must have fired");
        assert_eq!(counter(&s, "wal/checkpoints"), 2, "8 logged ops / every 4");
    }

    #[test]
    fn splices_are_one_record_each_and_replay_identically() {
        let dir = SimDir::new(4);
        let mut s =
            DurableScheme::open(ltree(), Box::new(dir.clone()), opts(SyncPolicy::Always, 0))
                .unwrap();
        let hs = s.bulk_build(10).unwrap();
        s.splice(Splice::InsertAfter {
            anchor: hs[2],
            count: 50,
        })
        .unwrap();
        s.splice(Splice::DeleteRun {
            first: hs[4],
            count: 30,
        })
        .unwrap();
        let image = dir.read(WAL_FILE).unwrap().unwrap();
        let scan = scan_log(&image).unwrap();
        assert_eq!(scan.records.len(), 3, "bulk + 2 splices, one record each");
        let want = live_order(&s);
        drop(s);
        let r = DurableScheme::open(ltree(), Box::new(dir), opts(SyncPolicy::Always, 0)).unwrap();
        assert_eq!(live_order(&r), want);
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let dir = SimDir::new(5);
        let mut s =
            DurableScheme::open(ltree(), Box::new(dir.clone()), opts(SyncPolicy::Always, 0))
                .unwrap();
        s.bulk_build(6).unwrap();
        s.checkpoint().unwrap();
        drop(s);
        // Flip a byte in the snapshot body.
        let mut image = dir.read(SNAP_FILE).unwrap().unwrap();
        image[7] ^= 0xff;
        let mut d = dir.clone();
        d.replace(SNAP_FILE, &image).unwrap();
        match DurableScheme::open(ltree(), Box::new(dir), opts(SyncPolicy::Always, 0)) {
            Err(LTreeError::Durability { context }) => {
                assert!(context.contains("checksum"), "{context}")
            }
            Err(other) => panic!("expected a Durability error, got {other:?}"),
            Ok(_) => panic!("expected a Durability error, got a recovered scheme"),
        }
    }

    /// Recover from a sealed `LTDS` image holding these handle sets.
    fn open_image(next_handle: u64, live: &[u64], dead: &[u64]) -> Result<DurableScheme> {
        open_snapshot(Snapshot {
            snap_seq: 0,
            next_handle,
            live: live.to_vec(),
            dead: dead.to_vec(),
        })
    }

    fn open_snapshot(snap: Snapshot) -> Result<DurableScheme> {
        let mut dir = SimDir::new(8);
        dir.replace(SNAP_FILE, &snap.encode()).unwrap();
        DurableScheme::open(ltree(), Box::new(dir), opts(SyncPolicy::Always, 0))
    }

    fn assert_bad_handles(opened: Result<DurableScheme>) {
        match opened {
            Err(LTreeError::Durability { context }) => {
                assert!(context.contains("handle"), "{context}")
            }
            Err(other) => panic!("expected a Durability error, got {other:?}"),
            Ok(_) => panic!("an inconsistent handle set recovered"),
        }
    }

    /// `live = [1, 1, 2]` would recover with `len() = 2 < live_len() = 3`.
    #[test]
    fn snapshot_with_a_repeated_live_handle_is_rejected() {
        assert_bad_handles(open_image(3, &[1, 1, 2], &[]));
    }

    /// A handle at or past the counter would be minted again by the next
    /// insert, after which a cursor walk never ends; handle 0 is never
    /// minted at all.
    #[test]
    fn snapshot_with_an_unminted_handle_is_rejected() {
        assert_bad_handles(open_image(2, &[1, 2], &[]));
        assert_bad_handles(open_image(3, &[0, 1], &[]));
    }

    /// A zero counter with empty lists would mint handle 0, and the
    /// checkpoint after it could never be reopened.
    #[test]
    fn snapshot_with_a_zero_handle_counter_is_rejected() {
        assert_bad_handles(open_image(0, &[], &[]));
    }

    /// A counter far past the listed handles would overflow at the next
    /// mint.
    #[test]
    fn snapshot_with_a_counter_past_its_handles_is_rejected() {
        assert_bad_handles(open_image(u64::MAX, &[1, 2], &[]));
    }

    /// The last sequence number leaves none for the next log record.
    #[test]
    fn snapshot_at_the_last_sequence_number_is_rejected() {
        let opened = open_snapshot(Snapshot {
            snap_seq: u64::MAX,
            next_handle: 1,
            live: Vec::new(),
            dead: Vec::new(),
        });
        assert!(
            matches!(opened, Err(LTreeError::Durability { .. })),
            "snap_seq u64::MAX recovered"
        );
    }

    /// The same holds for a log record replayed at the last one.
    #[test]
    fn log_record_at_the_last_sequence_number_is_rejected() {
        let mut dir = SimDir::new(9);
        dir.append(WAL_FILE, &encode_record(u64::MAX, &Request::BulkBuild(1)))
            .unwrap();
        let opened = DurableScheme::open(ltree(), Box::new(dir), opts(SyncPolicy::Always, 0));
        assert!(
            matches!(opened, Err(LTreeError::Durability { .. })),
            "a record at seq u64::MAX recovered"
        );
    }

    /// `live = [1, 2], dead = [2]` would recover with `live_len() = 2`
    /// but a one-item cursor.
    #[test]
    fn snapshot_with_a_handle_both_live_and_dead_is_rejected() {
        assert_bad_handles(open_image(3, &[1, 2], &[2]));
    }

    #[test]
    fn fsync_and_checkpoint_durations_flow_into_metrics() {
        let dir = SimDir::new(6);
        let mut s =
            DurableScheme::open(ltree(), Box::new(dir), opts(SyncPolicy::Always, 0)).unwrap();
        let hs = s.bulk_build(4).unwrap();
        s.insert_after(hs[0]).unwrap();
        s.checkpoint().unwrap();
        let metrics = s.metrics();
        let hist = |name: &str| match &metrics.iter().find(|m| m.name == name).unwrap().value {
            ltree_core::metrics::MetricValue::Histogram(h) => h.clone(),
            other => panic!("{name} should be a histogram, got {other:?}"),
        };
        assert_eq!(hist("wal/fsync-duration").count, 2, "one per logged op");
        assert_eq!(hist("wal/checkpoint-duration").count, 1);
        let names: Vec<_> = metrics.iter().map(|m| m.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "metrics come back name-sorted");
        // The reset discipline clears the histograms too.
        s.reset_scheme_stats();
        assert_eq!(s.metrics().len(), 8, "inner scheme reports no metrics");
        assert_eq!(hist("wal/fsync-duration").count, 2, "snapshot is passive");
        let after = s.metrics();
        match &after
            .iter()
            .find(|m| m.name == "wal/fsync-duration")
            .unwrap()
            .value
        {
            ltree_core::metrics::MetricValue::Histogram(h) => assert_eq!(h.count, 0),
            other => panic!("expected a histogram, got {other:?}"),
        }
    }

    /// The log counters are metrics, not cost: the breakdown forwards
    /// the inner scheme's (empty for a monolithic one), and the `wal/*`
    /// counters come back name-sorted among the metrics.
    #[test]
    fn breakdown_entries_are_name_sorted() {
        let dir = SimDir::new(7);
        let mut s =
            DurableScheme::open(ltree(), Box::new(dir), opts(SyncPolicy::Always, 0)).unwrap();
        s.bulk_build(4).unwrap();
        assert!(s.stats_breakdown().is_empty());
        let names: Vec<_> = s.metrics().into_iter().map(|m| m.name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(counter(&s, "wal/appends"), 1, "the bulk build");
        assert_eq!(counter(&s, "wal/fsyncs"), 1);
    }

    #[test]
    fn scratch_dirs_are_removed_on_drop() {
        let s = DurableScheme::open_scratch(ltree(), DurableOptions::default()).unwrap();
        let path = s.own_dir.clone().unwrap();
        assert!(path.exists());
        drop(s);
        assert!(!path.exists(), "scratch dir must be cleaned up");
    }
}
