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
//! counter and keeps a two-way map to the inner scheme's handles. The
//! log records mutations in durable-handle terms, so replaying them
//! re-mints identical handles against a freshly rebuilt inner scheme —
//! a client holding handles from before a crash can keep using them
//! after recovery, even though the inner scheme (and its labels) were
//! rebuilt from scratch. Labels may differ after recovery; the *list*
//! (and therefore every order comparison) may not.
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

use std::collections::HashMap;
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

/// A write-ahead-logged, snapshot-checkpointed wrapper around any
/// [`DynScheme`]; see the [module docs](self) for the protocol.
pub struct DurableScheme {
    inner: Box<dyn DynScheme>,
    dir: Box<dyn DurableDir>,
    opts: DurableOptions,
    /// durable handle → `Some(inner handle)` while live, `None` once
    /// deleted. Grows monotonically: `len()` is the number of handles
    /// ever minted.
    slots: HashMap<u64, Option<u64>>,
    /// inner handle → durable handle (kept for tombstones too, so the
    /// cursor can skip inner tombstones it meets).
    rev: HashMap<u64, u64>,
    live: usize,
    next_handle: u64,
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
            slots: HashMap::new(),
            rev: HashMap::new(),
            live: 0,
            next_handle: 1,
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
            // `slots` keeps every handle ever minted, so the lists must
            // cover `1..next_handle` exactly — which also bounds the
            // counter by the image's own size.
            let listed = (snap.live.len() + snap.dead.len()) as u64;
            if snap.next_handle.checked_sub(1) != Some(listed) {
                return Err(store_err(format!(
                    "snapshot image: next_handle {} does not follow the {listed} handles it lists",
                    snap.next_handle
                )));
            }
            me.snap_seq = snap.snap_seq;
            me.next_seq = seq_after(snap.snap_seq)?;
            me.next_handle = snap.next_handle;
            let ihs = if snap.live.is_empty() {
                Vec::new()
            } else {
                me.inner
                    .bulk_build(snap.live.len())
                    .map_err(|e| store_err(format!("snapshot rebuild: {e}")))?
            };
            let live = snap.live.iter().zip(ihs.iter().map(|ih| Some(ih.0)));
            let dead = snap.dead.iter().map(|dh| (dh, None));
            for (&dh, slot) in live.chain(dead) {
                // Every handle was minted below the counter, exactly once.
                if dh == 0 || dh >= snap.next_handle || me.slots.insert(dh, slot).is_some() {
                    return Err(store_err(format!(
                        "snapshot image: handle {dh} is zero, unminted or listed twice"
                    )));
                }
                if let Some(ih) = slot {
                    me.rev.insert(ih, dh);
                }
            }
            me.live = snap.live.len();
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
        let mut live = Vec::with_capacity(self.live);
        let mut cur = self.first_in_order();
        while let Some(h) = cur {
            live.push(h.0);
            cur = self.next_in_order(h);
        }
        let mut dead: Vec<u64> = self
            .slots
            .iter()
            .filter(|(_, s)| s.is_none())
            .map(|(&h, _)| h)
            .collect();
        dead.sort_unstable();
        let snap = Snapshot {
            snap_seq: self.next_seq - 1,
            next_handle: self.next_handle,
            live,
            dead,
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

    /// Resolve a live durable handle to its inner handle.
    fn live_inner(&self, h: LeafHandle) -> Result<u64> {
        match self.slots.get(&h.0) {
            Some(Some(ih)) => Ok(*ih),
            Some(None) => Err(LTreeError::DeletedLeaf),
            None => Err(LTreeError::UnknownHandle),
        }
    }

    fn mint(&mut self, ih: u64) -> LeafHandle {
        let dh = self.next_handle;
        self.next_handle += 1;
        self.slots.insert(dh, Some(ih));
        self.rev.insert(ih, dh);
        self.live += 1;
        LeafHandle(dh)
    }

    fn mark_dead(&mut self, dh: u64) {
        if let Some(slot) = self.slots.get_mut(&dh) {
            if slot.take().is_some() {
                self.live -= 1;
            }
        }
        // The rev entry stays: schemes that keep tombstones (the
        // L-Tree) still yield the inner handle from `next_in_order`,
        // and the cursor needs the mapping to know to skip it.
    }

    /// Next *live* durable handle after `dh` in list order, skipping
    /// inner tombstones; `None` from a dead or unknown handle.
    fn next_live(&self, dh: u64) -> Option<u64> {
        let mut ih = (*self.slots.get(&dh)?)?;
        loop {
            ih = self.inner.next_in_order(LeafHandle(ih))?.0;
            if let Some(&d) = self.rev.get(&ih) {
                if matches!(self.slots.get(&d), Some(Some(_))) {
                    return Some(d);
                }
            }
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

    /// Re-apply one logged mutation during recovery (no re-logging).
    /// The deterministic handle counter re-mints the same durable
    /// handles the original run handed out.
    fn replay(&mut self, req: &Request) -> Result<()> {
        match req {
            Request::BulkBuild(n) => {
                let ihs = self.inner.bulk_build(*n as usize)?;
                for ih in ihs {
                    self.mint(ih.0);
                }
            }
            Request::InsertFirst => {
                let ih = self.inner.insert_first()?;
                self.mint(ih.0);
            }
            Request::InsertAfter(a) => {
                let ih = self.live_inner(LeafHandle(*a))?;
                let nih = self.inner.insert_after(LeafHandle(ih))?;
                self.mint(nih.0);
            }
            Request::InsertBefore(a) => {
                let ih = self.live_inner(LeafHandle(*a))?;
                let nih = self.inner.insert_before(LeafHandle(ih))?;
                self.mint(nih.0);
            }
            Request::Delete(h) => {
                let ih = self.live_inner(LeafHandle(*h))?;
                self.inner.delete(LeafHandle(ih))?;
                self.mark_dead(*h);
            }
            Request::Splice(WireSplice::InsertAfter { anchor, count }) => {
                let ih = self.live_inner(LeafHandle(*anchor))?;
                let nihs = self
                    .inner
                    .insert_many_after(LeafHandle(ih), *count as usize)?;
                for nih in nihs {
                    self.mint(nih.0);
                }
            }
            Request::Splice(WireSplice::DeleteRun { first, count }) => {
                let deleted = self.delete_live_run(LeafHandle(*first), *count as usize)?;
                if deleted as u64 != *count {
                    return Err(store_err(format!(
                        "logged delete-run of {count} found only {deleted} live items"
                    )));
                }
            }
            other => {
                return Err(store_err(format!(
                    "log carries a non-mutating record: {other:?}"
                )))
            }
        }
        Ok(())
    }

    /// Delete up to `count` live items starting at the live handle
    /// `first`, in list order. Shared by the live path and replay.
    fn delete_live_run(&mut self, first: LeafHandle, count: usize) -> Result<usize> {
        let mut run = vec![first.0];
        let mut cur = first.0;
        while run.len() < count {
            match self.next_live(cur) {
                Some(n) => {
                    run.push(n);
                    cur = n;
                }
                None => break,
            }
        }
        for &dh in &run {
            let ih = self.live_inner(LeafHandle(dh))?;
            self.inner.delete(LeafHandle(ih))?;
            self.mark_dead(dh);
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
        let ih = self.live_inner(h)?;
        self.inner.label_of(LeafHandle(ih))
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn live_len(&self) -> usize {
        self.live
    }

    fn first_in_order(&self) -> Option<LeafHandle> {
        let mut ih = self.inner.first_in_order()?.0;
        loop {
            if let Some(&d) = self.rev.get(&ih) {
                if matches!(self.slots.get(&d), Some(Some(_))) {
                    return Some(LeafHandle(d));
                }
            }
            ih = self.inner.next_in_order(LeafHandle(ih))?.0;
        }
    }

    fn next_in_order(&self, h: LeafHandle) -> Option<LeafHandle> {
        self.next_live(h.0).map(LeafHandle)
    }

    fn label_space_bits(&self) -> u32 {
        self.inner.label_space_bits()
    }

    fn memory_bytes(&self) -> usize {
        // The two maps dominate the wrapper's own footprint.
        self.inner.memory_bytes() + self.slots.len() * 24 + self.rev.len() * 16
    }
}

impl OrderedLabelingMut for DurableScheme {
    fn bulk_build(&mut self, n: usize) -> Result<Vec<LeafHandle>> {
        if !self.slots.is_empty() {
            return Err(LTreeError::NotEmpty);
        }
        let ihs = self.inner.bulk_build(n)?;
        let out: Vec<LeafHandle> = ihs.iter().map(|ih| self.mint(ih.0)).collect();
        self.log(Request::BulkBuild(n as u64))?;
        Ok(out)
    }

    fn insert_first(&mut self) -> Result<LeafHandle> {
        let ih = self.inner.insert_first()?;
        let dh = self.mint(ih.0);
        self.log(Request::InsertFirst)?;
        Ok(dh)
    }

    fn insert_after(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        let ih = self.live_inner(anchor)?;
        let nih = self.inner.insert_after(LeafHandle(ih))?;
        let dh = self.mint(nih.0);
        self.log(Request::InsertAfter(anchor.0))?;
        Ok(dh)
    }

    fn insert_before(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        let ih = self.live_inner(anchor)?;
        let nih = self.inner.insert_before(LeafHandle(ih))?;
        let dh = self.mint(nih.0);
        self.log(Request::InsertBefore(anchor.0))?;
        Ok(dh)
    }

    fn delete(&mut self, h: LeafHandle) -> Result<()> {
        let ih = self.live_inner(h)?;
        self.inner.delete(LeafHandle(ih))?;
        self.mark_dead(h.0);
        self.log(Request::Delete(h.0))
    }
}

impl BatchLabeling for DurableScheme {
    fn insert_many_after(&mut self, anchor: LeafHandle, k: usize) -> Result<Vec<LeafHandle>> {
        if k == 0 {
            return Err(LTreeError::EmptyBatch);
        }
        let ih = self.live_inner(anchor)?;
        let nihs = self.inner.insert_many_after(LeafHandle(ih), k)?;
        let out: Vec<LeafHandle> = nihs.iter().map(|nih| self.mint(nih.0)).collect();
        self.log(Request::Splice(WireSplice::InsertAfter {
            anchor: anchor.0,
            count: k as u64,
        }))?;
        Ok(out)
    }

    fn delete_run(&mut self, first: LeafHandle, count: usize) -> Result<usize> {
        if count == 0 {
            return Ok(0);
        }
        match self.slots.get(&first.0) {
            None => return Err(LTreeError::UnknownHandle),
            Some(None) => return Ok(0), // dead anchor: the loop fallback's semantics
            Some(Some(_)) => {}
        }
        let deleted = self.delete_live_run(first, count)?;
        if deleted > 0 {
            // Logged normalized — the actual count, so replay is exact.
            self.log(Request::Splice(WireSplice::DeleteRun {
                first: first.0,
                count: deleted as u64,
            }))?;
        }
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

    #[test]
    fn edits_survive_reopen_via_log_replay() {
        let dir = SimDir::new(1);
        let mut s =
            DurableScheme::open(ltree(), Box::new(dir.clone()), opts(SyncPolicy::Always, 0))
                .unwrap();
        let hs = s.bulk_build(8).unwrap();
        let mid = s.insert_after(hs[3]).unwrap();
        s.delete(hs[5]).unwrap();
        s.insert_many_after(hs[0], 3).unwrap();
        let deleted = s.delete_run(hs[1], 2).unwrap();
        assert_eq!(deleted, 2);
        let before = live_order(&s);
        let live = s.live_len();
        let total = s.len();
        drop(s);
        let r = DurableScheme::open(ltree(), Box::new(dir), opts(SyncPolicy::Always, 0)).unwrap();
        assert_eq!(live_order(&r), before, "identical list after recovery");
        assert_eq!(r.live_len(), live);
        assert_eq!(r.len(), total, "tombstones still tracked");
        assert!(r.replayed_records() > 0, "state came from the log");
        // Handles survive: the same durable handle resolves, deleted
        // ones answer DeletedLeaf.
        assert!(r.label_of(mid).is_ok());
        assert!(matches!(r.label_of(hs[5]), Err(LTreeError::DeletedLeaf)));
        assert!(matches!(
            r.label_of(LeafHandle(9999)),
            Err(LTreeError::UnknownHandle)
        ));
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
