//! The two served workloads: a TCP `LabelServer` on `127.0.0.1:0`, driven
//! in closed loop through the public client API.
//!
//! * `served-read` hosts `ltree(4,2)`; one client thread, one
//!   `RemoteScheme` connection. 60 % 32-item ordered scans (`label_of` +
//!   `next_in_order`), 25 % point `label_of`, 10 % `compare`, 5 % writes
//!   (insert splices of 1–8 items after hot anchors, whole-run deletes).
//!   Scans hit the client page cache, point reads and compares miss it,
//!   so it isolates wire, transport, the server read lock and the cache.
//!   The small write share gives the workload a write latency — the wire
//!   and core cost of a write without a log — and does not change what
//!   the cache serves: every op starts at a random item, so the page a
//!   write invalidates would have missed anyway.
//! * `served-rw` hosts `durable(ltree(4,2))` with the defaults
//!   (`sync=always`, `checkpoint_every=1024`) in a directory of its own.
//!   Two client threads: a writer `RemoteScheme` issuing 70 % insert
//!   splices (1–8 items) and 30 % whole-run deletes, and a reader issuing
//!   raw 32-item `Page` requests through a `ConnectionPool` until the
//!   writer is done (raw pages, because the client page cache is
//!   single-writer by contract). After each round the server is shut
//!   down and the directory reopened five times; the recovered order
//!   must equal the order read before shutdown.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ltree::remote::wire::{Request, Response};
use ltree::remote::{
    ClientPolicy, ConnectionPool, DurableOptions, DurableScheme, Endpoint, LabelServer,
    RemoteScheme,
};
use ltree::{
    BatchLabeling, Cursor, DynScheme, HistogramSnapshot, Instrumented, LTree, LeafHandle,
    OrderedLabeling, OrderedLabelingMut, Splice,
};

use crate::bench::{
    check_list, hist_diff, histogram, params, record_stats, series, Acct, Cfg, Clock, Make, Round,
    Workload,
};
use crate::model::{ListModel, RunPicker};
use crate::rng::Rng;
use crate::span::{Kind, Span, Tracer};
use crate::stats::{median, Lat};

/// Script lengths per round at full scale. Long enough that the ~3 200
/// inserts of a `served-read` round settle the label-write count across
/// seeds (~6 % spread, against ~10 % at 40 000 ops), and short enough
/// that no seed's round doubles the L-Tree arena.
const READ_OPS: usize = 80_000;
/// Long enough for seven checkpoints per round and for the label-write
/// count to settle across seeds (~4 % spread, against ~10 % at 2 500),
/// and short enough that no seed's round doubles the L-Tree arena (which
/// happens near 10 000 and would make `bytes_per_item` jump by ~80 %).
const RW_WRITES: usize = 7_500;
/// Items per scan and per reader page.
const SCAN: usize = 32;
/// Reopens per round that time recovery.
const REOPENS: usize = 5;

/// The server's histograms a round keeps (nanoseconds): the four phases
/// of every request, and the log's fsync and checkpoint times (absent on
/// a server without a log).
const HISTS: [(&str, &str); 6] = [
    ("server.decode", "net/phase/decode"),
    ("server.lock_wait", "net/phase/lock-wait"),
    ("server.apply", "net/phase/apply"),
    ("server.encode", "net/phase/encode"),
    ("wal.fsync", "wal/fsync-duration"),
    ("wal.checkpoint", "wal/checkpoint-duration"),
];

fn hists(server: &LabelServer) -> Vec<HistogramSnapshot> {
    HISTS.iter().map(|(_, n)| histogram(server, n)).collect()
}

/// Keep what the server's histograms recorded during the replay.
fn record_hists(r: &mut Round, server: &LabelServer, before: &[HistogramSnapshot]) {
    for ((key, _), (after, before)) in HISTS.iter().zip(hists(server).iter().zip(before)) {
        r.hists.insert(key, hist_diff(after, before));
    }
}

fn setup_failed(acct: &mut Acct, what: &str, e: impl std::fmt::Display) -> Round {
    acct.fail(format!("setup: {what}: {e}"));
    Round::default()
}

// ---------------------------------------------------------------------
// served-read
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum ReadOp {
    Scan(u32),
    Point(u32),
    Compare(u32, u32),
    Insert(u32, u32),
    /// Deletes the run of this id (runs are numbered in insertion order).
    Delete(u32),
}

pub struct ServedRead {
    n0: usize,
    script: Vec<ReadOp>,
    make: Make,
}

impl ServedRead {
    pub fn new(cfg: &Cfg, make: Make) -> Self {
        let n0 = cfg.n0();
        let mut rng = Rng::new(cfg.seed, 3);
        let mut runs = RunPicker::default();
        let script = (0..cfg.ops(READ_OPS))
            .map(|_| {
                let choice = rng.pick(&[60, 25, 10, 4, 1]);
                if choice == 4 {
                    if let Some(id) = runs.pick(&mut rng) {
                        return ReadOp::Delete(id);
                    }
                }
                match choice {
                    0 => ReadOp::Scan(rng.below(n0) as u32),
                    1 => ReadOp::Point(rng.below(n0) as u32),
                    2 => ReadOp::Compare(rng.below(n0) as u32, rng.below(n0) as u32),
                    _ => {
                        runs.inserted();
                        ReadOp::Insert(rng.hot(n0) as u32, rng.between(1, 8) as u32)
                    }
                }
            })
            .collect();
        ServedRead { n0, script, make }
    }
}

/// A `k`-item ordered scan from `from`: the handles visited, and
/// whether their labels strictly increased.
fn scan(c: &RemoteScheme, from: LeafHandle, k: usize) -> ltree::Result<(Vec<LeafHandle>, bool)> {
    let mut seen = Vec::with_capacity(k);
    let mut increasing = true;
    let mut prev = None;
    let mut at = Some(from);
    while let Some(h) = at {
        let l = c.label_of(h)?;
        increasing &= prev.is_none_or(|p| p < l);
        prev = Some(l);
        seen.push(h);
        if seen.len() == k {
            break;
        }
        at = c.next_in_order(h);
    }
    Ok((seen, increasing))
}

impl Workload for ServedRead {
    fn round(&mut self, tracer: Option<&Arc<Tracer>>, acct: &mut Acct) -> Round {
        let t = Instant::now();
        let server = match LabelServer::bind("127.0.0.1:0", (self.make)(tracer)) {
            Ok(s) => s,
            Err(e) => return setup_failed(acct, "bind", e),
        };
        let mut client = match RemoteScheme::connect(&server.local_addr().to_string()) {
            Ok(c) => c,
            Err(e) => return setup_failed(acct, "connect", e),
        };
        let handles = match client.bulk_build(self.n0) {
            Ok(h) => h,
            Err(e) => return setup_failed(acct, "bulk_build", e),
        };
        let mut r = Round {
            setup_s: t.elapsed().as_secs_f64(),
            ..Round::default()
        };
        client.reset_scheme_stats();
        let before = hists(&server);
        let spans = tracer.map(|t| t.aggs());
        let mut m = ListModel::new(handles);
        let clock = Clock::new(tracer, Some("client"));
        let (mut busy, mut read_calls, mut writes) = (0u64, 0u64, 0u64);
        let start = Instant::now();
        for &op in &self.script {
            let h = |i: u32| m.initial[i as usize];
            let (kind, ns) = match op {
                ReadOp::Scan(i) => {
                    let tick = clock.start(Kind::Read);
                    let got = scan(&client, h(i), SCAN);
                    let ns = clock.stop(tick, "scan", Kind::Read);
                    let want = m.order_from(i as usize, SCAN, true);
                    match got {
                        Ok((seen, increasing)) => {
                            read_calls += 2 * seen.len() as u64 - 1;
                            acct.check(increasing && seen == want, || {
                                format!("scan from item {i}: labels increasing {increasing}, order matches {}", seen == want)
                            })
                        }
                        Err(e) => acct.fail(format!("scan: {e}")),
                    }
                    (Kind::Read, ns)
                }
                ReadOp::Point(i) => {
                    let tick = clock.start(Kind::Read);
                    let got = client.label_of(h(i));
                    let ns = clock.stop(tick, "label_of", Kind::Read);
                    read_calls += 1;
                    acct.check(got.is_ok(), || format!("label_of: {:?}", got.err()));
                    (Kind::Read, ns)
                }
                ReadOp::Compare(i, j) => {
                    let tick = clock.start(Kind::Read);
                    let got = client.compare(h(i), h(j));
                    let ns = clock.stop(tick, "compare", Kind::Read);
                    read_calls += 2;
                    match got {
                        Ok(g) => {
                            acct.check(g == i.cmp(&j), || format!("compare({i}, {j}) = {g:?}"))
                        }
                        Err(e) => acct.fail(format!("compare: {e}")),
                    }
                    (Kind::Read, ns)
                }
                ReadOp::Insert(a, k) => {
                    let anchor = h(a);
                    let tick = clock.start(Kind::Write);
                    let got = client.splice(Splice::InsertAfter {
                        anchor,
                        count: k as usize,
                    });
                    let ns = clock.stop(tick, "splice", Kind::Write);
                    writes += 1;
                    insert_done(got, a as usize, k as usize, &mut m, acct);
                    (Kind::Write, ns)
                }
                ReadOp::Delete(id) => {
                    let Some((first, count)) = m.take(id) else {
                        acct.fail(format!("run {id} to delete was never inserted"));
                        continue;
                    };
                    let tick = clock.start(Kind::Write);
                    let got = client.splice(Splice::DeleteRun { first, count });
                    let ns = clock.stop(tick, "splice", Kind::Write);
                    writes += 1;
                    delete_done(got, count, acct);
                    (Kind::Write, ns)
                }
            };
            busy += ns;
            match kind {
                Kind::Read => r.read.record(ns),
                _ => r.write.record(ns),
            }
        }
        r.replay_s = start.elapsed().as_secs_f64();
        r.busy_s = busy as f64 / 1e9;
        r.ops = self.script.len() as u64;
        if let (Some(t), Some(before)) = (tracer, &spans) {
            r.spans = t.aggs_since(before);
        }
        record_hists(&mut r, &server, &before);
        let ts = client.transport_stats();
        r.counts.insert("client.round_trips", ts.round_trips);
        r.add("client.op_ns", busy as f64);
        r.add("client.ops", r.ops as f64);
        r.add("client.round_trips", ts.round_trips as f64);
        r.add("client.bytes", (ts.bytes_sent + ts.bytes_received) as f64);
        r.add("client.read_calls", read_calls as f64);
        r.add("client.writes", writes as f64);
        check_list(&client, &mut m, true, acct);
        record_stats(&client, &mut r);
        record_sizes(&client, tracer, &mut r, acct);
        r
    }
}

fn insert_done(
    got: ltree::Result<ltree::SpliceResult>,
    anchor: usize,
    k: usize,
    m: &mut ListModel,
    acct: &mut Acct,
) {
    match got.map(|r| r.into_inserted()) {
        Ok(hs) if hs.len() == k => {
            acct.check(true, String::new);
            m.add_run(anchor, &hs);
        }
        Ok(hs) => acct.fail(format!(
            "insert splice of {k} returned {} handles",
            hs.len()
        )),
        Err(e) => acct.fail(format!("insert splice: {e}")),
    }
}

fn delete_done(got: ltree::Result<ltree::SpliceResult>, count: usize, acct: &mut Acct) {
    match got.map(|r| r.deleted()) {
        Ok(n) => acct.check(n == count, || format!("delete run of {count} deleted {n}")),
        Err(e) => acct.fail(format!("delete splice: {e}")),
    }
}

/// Sizes through the client's infallible wire reads (a zero is a failed
/// read): bytes per live item for the whole hosted stack, and — traced —
/// for the core layer alone, which its span saw answer.
fn record_sizes(c: &RemoteScheme, tracer: Option<&Arc<Tracer>>, r: &mut Round, acct: &mut Acct) {
    let live = c.live_len().max(1) as f64;
    let (bytes, bits) = (c.memory_bytes(), c.label_space_bits());
    acct.check(bits > 0, || "label_space_bits returned 0".into());
    r.vals.insert("bytes_per_item", bytes as f64 / live);
    r.vals.insert("core.label_bits", f64::from(bits));
    let core = match tracer {
        Some(t) => t.gauge_value("core", "memory_bytes"),
        None => Some(bytes as u64),
    };
    if let Some(core) = core {
        r.vals.insert("core.bytes_per_item", core as f64 / live);
    }
}

// ---------------------------------------------------------------------
// served-rw
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum WriteOp {
    Insert(u32, u32),
    /// Deletes the run of this id (runs are numbered in insertion order).
    Delete(u32),
}

pub struct ServedRw {
    n0: usize,
    seed: u64,
    script: Vec<WriteOp>,
    make: Make,
    work: PathBuf,
    rounds: u64,
}

impl ServedRw {
    pub fn new(cfg: &Cfg, make: Make) -> Self {
        let n0 = cfg.n0();
        let mut rng = Rng::new(cfg.seed, 4);
        let mut runs = RunPicker::default();
        let script = (0..cfg.ops(RW_WRITES))
            .map(|_| {
                if rng.pick(&[70, 30]) == 1 {
                    if let Some(id) = runs.pick(&mut rng) {
                        return WriteOp::Delete(id);
                    }
                }
                runs.inserted();
                WriteOp::Insert(rng.hot(n0) as u32, rng.between(1, 8) as u32)
            })
            .collect();
        ServedRw {
            n0,
            seed: cfg.seed,
            script,
            make,
            work: cfg.work.clone(),
            rounds: 0,
        }
    }
}

#[derive(Default)]
struct ReaderOut {
    lat: Lat,
    ops: u64,
    busy_ns: u64,
    acct: Acct,
}

/// The reader thread: raw page reads from random initial items until
/// the writer is done. Each page must start at the requested item and
/// carry strictly increasing labels.
fn read_loop(
    pool: &ConnectionPool,
    initial: &[LeafHandle],
    seed: u64,
    stop: &AtomicBool,
    tracer: Option<&Arc<Tracer>>,
) -> ReaderOut {
    let mut rng = Rng::new(seed, 5);
    let clock = Clock::new(tracer, Some("client"));
    let mut out = ReaderOut::default();
    // relaxed: the flag carries no data; the reader only has to see it eventually.
    while !stop.load(Ordering::Relaxed) {
        let from = initial[rng.below(initial.len())].0;
        let req = Request::Page {
            from: Some(from),
            limit: SCAN as u32,
        };
        let tick = clock.start(Kind::Read);
        let got = pool.call_read(&req);
        let ns = clock.stop(tick, "page", Kind::Read);
        out.lat.record(ns);
        out.busy_ns += ns;
        out.ops += 1;
        check_page(from, got, &mut out.acct);
    }
    out
}

fn check_page(from: u64, got: ltree::Result<Response>, acct: &mut Acct) {
    match got {
        Ok(Response::Page { items, at_end }) => {
            let starts = items.first().map(|&(h, _)| h) == Some(from);
            let increasing = items.windows(2).all(|w| w[0].1 < w[1].1);
            let full = items.len() == SCAN || at_end;
            acct.check(starts && increasing && full, || {
                format!("page from {from}: starts there {starts}, labels increasing {increasing}, {} items", items.len())
            })
        }
        Ok(other) => acct.fail(format!("page: unexpected response {other:?}")),
        Err(e) => acct.fail(format!("page: {e}")),
    }
}

impl Workload for ServedRw {
    fn round(&mut self, tracer: Option<&Arc<Tracer>>, acct: &mut Acct) -> Round {
        let dir = self
            .work
            .join(format!("rw-{}-{}", std::process::id(), self.rounds));
        self.rounds += 1;
        let _ = std::fs::remove_dir_all(&dir);
        let r = self.round_in(&dir, tracer, acct);
        let _ = std::fs::remove_dir_all(&dir);
        r
    }
}

impl ServedRw {
    fn round_in(
        &self,
        dir: &std::path::Path,
        tracer: Option<&Arc<Tracer>>,
        acct: &mut Acct,
    ) -> Round {
        let t = Instant::now();
        let durable =
            match DurableScheme::open_path((self.make)(tracer), dir, DurableOptions::default()) {
                Ok(d) => d,
                Err(e) => return setup_failed(acct, "open", e),
            };
        let host: Box<dyn DynScheme> = match tracer {
            Some(t) => Box::new(Span::new("durable", t, durable)),
            None => Box::new(durable),
        };
        let server = match LabelServer::bind("127.0.0.1:0", host) {
            Ok(s) => s,
            Err(e) => return setup_failed(acct, "bind", e),
        };
        let addr = server.local_addr().to_string();
        let mut writer = match RemoteScheme::connect(&addr) {
            Ok(c) => c,
            Err(e) => return setup_failed(acct, "connect", e),
        };
        let handles = match writer.bulk_build(self.n0) {
            Ok(h) => h,
            Err(e) => return setup_failed(acct, "bulk_build", e),
        };
        let reader = match Endpoint::tcp(&addr)
            .and_then(|e| ConnectionPool::connect(e, ClientPolicy::default()))
        {
            Ok(p) => p,
            Err(e) => return setup_failed(acct, "reader connect", e),
        };
        let mut r = Round {
            setup_s: t.elapsed().as_secs_f64(),
            ..Round::default()
        };
        writer.reset_scheme_stats();
        reader.reset_stats();
        let before = hists(&server);
        let spans = tracer.map(|t| t.aggs());
        let mut m = ListModel::new(handles);
        let initial = m.initial.clone();
        let stop = AtomicBool::new(false);
        let mut busy = 0u64;
        let start = Instant::now();
        let (pool, seed, stop_flag) = (&reader, self.seed, &stop);
        let reader_out = std::thread::scope(|sc| {
            let rd = sc.spawn(|| read_loop(pool, &initial, seed, stop_flag, tracer));
            let clock = Clock::new(tracer, Some("client"));
            for &op in &self.script {
                let ns = match op {
                    WriteOp::Insert(a, k) => {
                        let anchor = m.initial[a as usize];
                        let tick = clock.start(Kind::Write);
                        let got = writer.splice(Splice::InsertAfter {
                            anchor,
                            count: k as usize,
                        });
                        let ns = clock.stop(tick, "splice", Kind::Write);
                        insert_done(got, a as usize, k as usize, &mut m, acct);
                        ns
                    }
                    WriteOp::Delete(id) => {
                        let Some((first, count)) = m.take(id) else {
                            acct.fail(format!("run {id} to delete was never inserted"));
                            continue;
                        };
                        let tick = clock.start(Kind::Write);
                        let got = writer.splice(Splice::DeleteRun { first, count });
                        let ns = clock.stop(tick, "splice", Kind::Write);
                        delete_done(got, count, acct);
                        ns
                    }
                };
                busy += ns;
                r.write.record(ns);
            }
            r.replay_s = start.elapsed().as_secs_f64();
            // relaxed: the flag carries no data; the reader only has to see it eventually.
            stop.store(true, Ordering::Relaxed);
            rd.join()
        });
        let reader_out = match reader_out {
            Ok(o) => o,
            Err(_) => {
                acct.fail("the reader thread panicked".into());
                ReaderOut::default()
            }
        };
        if let (Some(t), Some(before)) = (tracer, &spans) {
            r.spans = t.aggs_since(before);
        }
        let writes = self.script.len() as u64;
        r.busy_s = busy as f64 / 1e9;
        r.ops = writes + reader_out.ops;
        r.read = reader_out.lat;
        acct.merge(reader_out.acct);
        record_hists(&mut r, &server, &before);
        for (key, name) in [
            ("wal.appends", "wal/appends"),
            ("wal.fsyncs", "wal/fsyncs"),
            ("wal.bytes", "wal/bytes"),
            ("wal.checkpoints", "wal/checkpoints"),
        ] {
            match series(&server, name) {
                Some(v) => {
                    r.counts.insert(key, v);
                }
                None => acct.fail(format!("the server reports no `{name}` series")),
            }
        }
        let (wt, rt) = (writer.transport_stats(), reader.transport_stats());
        r.add("client.op_ns", (busy + reader_out.busy_ns) as f64);
        r.add("client.ops", r.ops as f64);
        r.add(
            "client.round_trips",
            (wt.round_trips + rt.round_trips) as f64,
        );
        let bytes = wt.bytes_sent + wt.bytes_received + rt.bytes_sent + rt.bytes_received;
        r.add("client.bytes", bytes as f64);
        r.add("client.read_calls", reader_out.ops as f64);
        r.add("client.writes", writes as f64);
        r.add("writer.op_ns", busy as f64);
        r.add("writer.ops", writes as f64);
        r.add("reader.op_ns", reader_out.busy_ns as f64);
        r.add("reader.ops", reader_out.ops as f64);
        let walked: Vec<u64> = check_list(&writer, &mut m, false, acct)
            .iter()
            .map(|h| h.0)
            .collect();
        record_stats(&writer, &mut r);
        record_sizes(&writer, tracer, &mut r, acct);
        drop(reader);
        drop(writer);
        match server.into_scheme() {
            Ok(scheme) => drop(scheme),
            Err(e) => acct.fail(format!("shutdown: {e}")),
        }
        recover(dir, &walked, &mut r, acct);
        r
    }
}

/// Reopen the store [`REOPENS`] times, timing each recovery; every
/// recovered order must equal the order acknowledged before shutdown.
fn recover(dir: &std::path::Path, acked: &[u64], r: &mut Round, acct: &mut Acct) {
    let mut times = Vec::with_capacity(REOPENS);
    for _ in 0..REOPENS {
        let t = Instant::now();
        let opened = DurableScheme::open_path(
            Box::new(LTree::new(params())),
            dir,
            DurableOptions::default(),
        );
        times.push(t.elapsed().as_secs_f64());
        match opened {
            Ok(s) => {
                let order: Vec<u64> = Cursor::new(&s).map(|h| h.0).collect();
                acct.check(order == acked, || {
                    format!(
                        "recovery: {} items recovered, {} acknowledged, equal {}",
                        order.len(),
                        acked.len(),
                        order == acked
                    )
                });
                r.counts.insert("wal.replayed", s.replayed_records());
                r.vals
                    .insert("wal.replayed_records", s.replayed_records() as f64);
            }
            Err(e) => acct.fail(format!("recovery: {e}")),
        }
    }
    r.vals.insert("recovery_s", median(&times));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_check_fires_when_an_acknowledged_write_is_lost() {
        let dir = ltree::remote::scratch_dir("ltbench-recovery");
        let opts = DurableOptions {
            checkpoint_every: 0,
            ..DurableOptions::default()
        };
        let mut s = DurableScheme::open_path(Box::new(LTree::new(params())), &dir, opts).unwrap();
        let hs = s.bulk_build(16).unwrap();
        s.insert_many_after(hs[3], 4).unwrap();
        s.insert_many_after(hs[9], 2).unwrap();
        let acked: Vec<u64> = Cursor::new(&s).map(|h| h.0).collect();
        drop(s);

        let (mut r, mut acct) = (Round::default(), Acct::default());
        recover(&dir, &acked, &mut r, &mut acct);
        assert_eq!(acct.failed, 0, "{:?}", acct.notes);
        assert_eq!(r.counts.get("wal.replayed"), Some(&3));

        // Lose the last acknowledged record: tear the log's tail.
        let log = dir.join(ltree::remote::wal::WAL_FILE);
        let len = std::fs::metadata(&log).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&log)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (mut r, mut acct) = (Round::default(), Acct::default());
        recover(&dir, &acked, &mut r, &mut acct);
        assert_eq!(acct.failed, REOPENS as u64, "{:?}", acct.notes);
        assert!(acct.notes[0].contains("recovery:"), "{:?}", acct.notes);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
