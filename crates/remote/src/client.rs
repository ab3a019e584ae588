//! [`RemoteScheme`] — a client-side labeling scheme whose state lives in
//! a [`LabelServer`].
//!
//! The client implements the whole ordered-labeling trait family over a
//! [`ConnectionPool`] of [`TcpTransport`](crate::transport::TcpTransport)s,
//! so a remote store drops
//! into any generic code path — a `Document`, the conformance suite, a
//! `ShardedScheme` segment — unchanged:
//!
//! * **Writes** are one frame per trait call; batch splices carry the
//!   whole run in a single frame, so round trips scale with *runs*, not
//!   items. All writes serialize through the pool's connection 0.
//! * **Reads** are page-cached: a `label_of`/`next_in_order` miss
//!   fetches one [`Request::Page`] of `(handle, label)` pairs in list
//!   order, so in-order scans cost `O(n / page)` round trips. Any write
//!   *through this client* invalidates the cache, and so does any
//!   reconnect (the pool's epoch is baked into the cache) — a restarted
//!   server may hold arbitrarily different state, so stale labels can
//!   never be served across a reconnect.
//! * **Pipelining**: [`pipeline_splices`](RemoteScheme::pipeline_splices)
//!   writes a whole splice plan before reading any response, amortizing
//!   the wire latency across the plan.
//! * **Coalescing** (opt-in, [`ClientPolicy::coalesce`]): single-op
//!   `insert_after`/`delete` calls are buffered in a write buffer that
//!   merges adjacent ops into splice runs and pipelines the whole
//!   backlog on flush — see below.
//!
//! **Consistency contract:** the page cache assumes this client is the
//! store's only *writer* — the network analogue of the `&mut self`
//! exclusivity the trait family already encodes locally. Multiple
//! concurrent readers are fine (the pool spreads them over its
//! connections and the server's `RwLock` serves them in parallel), but
//! a write issued through a *different* client can relabel items
//! without invalidating this client's cache. For multi-writer
//! deployments, route all writes through one client (e.g. a
//! `ShardedScheme` owning one `RemoteScheme` per segment).
//!
//! ## The coalescing write buffer
//!
//! With `coalesce` on, a single-op insert returns a **provisional
//! handle** (top bit set) immediately and the op is queued; an
//! `insert_after` anchored on the run's last minted handle *extends the
//! run* instead of queueing a new splice, and a `delete` of the cached
//! successor of the previous delete extends a delete run the same way.
//! The buffer flushes — pipelined, so a backlog of `k` splices is one
//! round trip per dependency segment, usually exactly one — on **any
//! read**, on `len`, on [`flush`](RemoteScheme::flush), and when the
//! backlog hits its cap. At flush, provisional handles resolve to the
//! server's real ones; every later use of a provisional handle (as an
//! anchor, in a read, anywhere) translates transparently.
//!
//! The trade-offs are the usual write-behind ones, and are why this is
//! opt-in: a buffered write's error surfaces at the *flush* (i.e. on a
//! later read or explicit `flush()`), not at the call that queued it,
//! and a client dropped without flushing loses its backlog (drop runs a
//! best-effort flush).
//!
//! Transport accounting rides in [`Instrumented::metrics`]: the
//! server's scrape is extended with this client's
//! `net/{round-trips,bytes-in,bytes-out,reconnects}` counters, also
//! available in typed form via
//! [`transport_stats`](RemoteScheme::transport_stats). The
//! [`Instrumented`] cost counters and breakdown are the hosted
//! scheme's, forwarded unchanged.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use ltree_core::metrics::{sort_metrics, Metric};
use ltree_core::{
    BatchLabeling, DynScheme, Instrumented, LTreeError, LeafHandle, OrderedLabeling,
    OrderedLabelingMut, Result, SchemeStats, Splice, SpliceResult,
};

use crate::pool::{ClientPolicy, ConnectionPool, Endpoint, WriteConn};
use crate::server::LabelServer;
use crate::wire::{Request, Response, WireSplice};

/// How many `(handle, label)` pairs a read miss prefetches.
const PAGE_LIMIT: u32 = 256;

/// Provisional handles minted by the coalescing write buffer live above
/// this bit; server-assigned handles stay below it (they are arena /
/// directory indices in every scheme the workspace ships).
const PROVISIONAL_BASE: u64 = 1 << 63;

/// Backlog cap: the write buffer flushes itself once this many pending
/// splices accumulate, bounding client memory and per-flush latency.
const MAX_PENDING_SPLICES: usize = 512;

/// Item-count cap on the backlog: run extension keeps the *splice*
/// count at 1 while minting without bound, so the buffer also flushes
/// once this many items are queued. Kept far below the ~8M-handle
/// response a 64 MiB frame fits, so a flushed run's `Handles` reply can
/// never hit the frame cap.
const MAX_PENDING_ITEMS: usize = 1 << 20;

/// Client-side transport counters, in typed form.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Request/response exchanges. A pipelined plan counts once.
    pub round_trips: u64,
    /// Bytes written to the transports, frame prefixes included.
    pub bytes_sent: u64,
    /// Bytes read from the transports, frame prefixes included.
    pub bytes_received: u64,
    /// Connections re-established after a transport failure.
    pub reconnects: u64,
}

/// The cached page: one contiguous in-order run of `(handle, label)`
/// pairs, plus whether it starts at the list head / reaches the end.
/// `epoch` pins the page to the pool's reconnect epoch — a page fetched
/// before a reconnect is dead the moment the reconnect happens.
#[derive(Default)]
struct PageCache {
    items: Vec<(u64, u128)>,
    index: HashMap<u64, usize>,
    from_start: bool,
    at_end: bool,
    valid: bool,
    epoch: u64,
}

impl PageCache {
    fn install(&mut self, items: Vec<(u64, u128)>, from_start: bool, at_end: bool, epoch: u64) {
        self.index = items
            .iter()
            .enumerate()
            .map(|(i, &(h, _))| (h, i))
            .collect();
        self.items = items;
        self.from_start = from_start;
        self.at_end = at_end;
        self.valid = true;
        self.epoch = epoch;
    }

    fn invalidate(&mut self) {
        *self = PageCache::default();
    }

    fn label(&self, h: u64) -> Option<u128> {
        if !self.valid {
            return None;
        }
        self.index.get(&h).map(|&i| self.items[i].1)
    }

    /// `None` = unknown (fetch needed); `Some(None)` = definitely the
    /// list end; `Some(Some(next))` = known successor.
    fn next(&self, h: u64) -> Option<Option<u64>> {
        if !self.valid {
            return None;
        }
        let &i = self.index.get(&h)?;
        if i + 1 < self.items.len() {
            Some(Some(self.items[i + 1].0))
        } else if self.at_end {
            Some(None)
        } else {
            None
        }
    }
}

/// One queued splice in the coalescing write buffer.
enum PendingSplice {
    /// Insert `minted.len()` items after `anchor` (which may itself be
    /// provisional). `minted` holds the provisional handles in run
    /// order; flush zips them with the server's real ones.
    Insert { anchor: u64, minted: Vec<u64> },
    /// Delete `count` live items starting at `first`; `last` remembers
    /// the newest member so a `delete` of its cached successor extends
    /// the run.
    Delete { first: u64, count: u64, last: u64 },
}

/// The opt-in coalescing write buffer. See the
/// [module docs](self#the-coalescing-write-buffer).
#[derive(Default)]
struct WriteBuffer {
    enabled: bool,
    next_provisional: u64,
    /// Provisional handle → server handle, installed at flush; grows
    /// for the client's lifetime (one entry per coalesced insert).
    resolved: HashMap<u64, u64>,
    /// Server handle → provisional handle: the same aliases, reversed,
    /// so read paths that *return* handles (`next_in_order`, the
    /// cursor) present each item under the one name the caller already
    /// holds. An item only ever has two names when the buffer minted
    /// it; the provisional one wins everywhere.
    aliases: HashMap<u64, u64>,
    pending: Vec<PendingSplice>,
    /// Items queued across `pending` (minted inserts + delete-run
    /// members) — the [`MAX_PENDING_ITEMS`] cap counts these, since run
    /// extension grows item counts without growing `pending.len()`.
    pending_items: usize,
    /// A flush error that struck inside a call whose signature cannot
    /// carry it (`len`, `first_in_order`, …), kept here so the *next
    /// fallible* call reports it instead of the backlog vanishing
    /// silently.
    failed: Option<LTreeError>,
}

impl WriteBuffer {
    fn mint(&mut self) -> u64 {
        let h = PROVISIONAL_BASE + self.next_provisional;
        self.next_provisional += 1;
        h
    }

    /// The server-side handle for `h`, if known: real handles pass
    /// through, resolved provisionals translate, pending or dangling
    /// provisionals are `None`.
    fn try_real(&self, h: u64) -> Option<u64> {
        if h < PROVISIONAL_BASE {
            Some(h)
        } else {
            self.resolved.get(&h).copied()
        }
    }

    /// Translate a handle for use inside a *buffered* op: resolved
    /// provisionals become real, pending ones stay provisional (they
    /// resolve at flush).
    fn translate_pending(&self, h: u64) -> u64 {
        self.try_real(h).unwrap_or(h)
    }
}

/// A labeling scheme living behind a wire protocol. See the
/// [module docs](self); construct with [`connect`](Self::connect) /
/// [`connect_with`](Self::connect_with) (an external server),
/// [`served`](Self::served) / [`served_with`](Self::served_with) (a
/// server in this process, dialed over TCP), or through the registry specs
/// `remote(host:port[,options])` / `served(inner[,options])`.
///
/// ```
/// use ltree_core::registry::SchemeRegistry;
/// use ltree_core::{BatchLabeling, OrderedLabeling, OrderedLabelingMut, Splice};
/// use ltree_remote::register;
///
/// let mut reg = SchemeRegistry::with_builtin();
/// register(&mut reg);
/// // A server is bound on 127.0.0.1:0 behind the scenes; conns=2 pools
/// // two TCP connections onto it.
/// let mut scheme = reg.build("served(ltree(4,2),conns=2)").unwrap();
/// let handles = scheme.bulk_build(100).unwrap(); // one round trip
/// scheme
///     .splice(Splice::InsertAfter { anchor: handles[50], count: 10 })
///     .unwrap(); // one round trip for the whole batch
/// assert_eq!(scheme.live_len(), 110);
/// assert_eq!(scheme.cursor().count(), 110); // paged, not one trip per item
/// ```
pub struct RemoteScheme {
    /// Declared before `server` so transports close first on drop and an
    /// owned server's threads are joined against closed sockets.
    pool: ConnectionPool,
    cache: Mutex<PageCache>,
    buffer: Mutex<WriteBuffer>,
    /// The in-process server, when this client owns one (`served`).
    server: Option<LabelServer>,
}

impl RemoteScheme {
    /// Connect to a [`LabelServer`] at `addr` (`host:port`; a
    /// `|`-separated list connects to its first entry) with the default
    /// (single-connection) [`ClientPolicy`]. The version handshake
    /// costs one round trip.
    pub fn connect(addr: &str) -> Result<RemoteScheme> {
        Self::connect_with(addr, ClientPolicy::default())
    }

    /// [`connect`](Self::connect) under an explicit policy.
    pub fn connect_with(addr: &str, policy: ClientPolicy) -> Result<RemoteScheme> {
        Self::from_endpoint(Endpoint::tcp(addr)?, policy, None)
    }

    /// Bind a [`LabelServer`] hosting `inner` on `127.0.0.1:0` in this
    /// process and connect to it over TCP with the default policy. The
    /// server shuts down when the returned scheme drops, so tests,
    /// benches and CI need no external process, yet every call crosses
    /// the same socket path a `remote(…)` client does. This is the
    /// `served(inner)` registry spec.
    pub fn served(inner: Box<dyn DynScheme>) -> Result<RemoteScheme> {
        Self::served_with(inner, ClientPolicy::default())
    }

    /// [`served`](Self::served) under an explicit policy.
    pub fn served_with(inner: Box<dyn DynScheme>, policy: ClientPolicy) -> Result<RemoteScheme> {
        let server = LabelServer::bind("127.0.0.1:0", inner)?;
        let endpoint = Endpoint::tcp(&server.local_addr().to_string())?;
        Self::from_endpoint(endpoint, policy, Some(server))
    }

    /// The general constructor: any [`Endpoint`] under any policy,
    /// optionally owning the server it points at.
    pub fn from_endpoint(
        endpoint: Endpoint,
        policy: ClientPolicy,
        server: Option<LabelServer>,
    ) -> Result<RemoteScheme> {
        let pool = ConnectionPool::connect(endpoint, policy)?;
        Ok(RemoteScheme {
            pool,
            cache: Mutex::new(PageCache::default()),
            buffer: Mutex::new(WriteBuffer {
                enabled: policy.coalesce,
                ..WriteBuffer::default()
            }),
            server,
        })
    }

    /// The in-process server, when this scheme owns one (`served`) — the
    /// host-side view of the same state (scheme stats, per-connection
    /// counters).
    pub fn server(&self) -> Option<&LabelServer> {
        self.server.as_ref()
    }

    /// The policy this client runs under.
    pub fn policy(&self) -> &ClientPolicy {
        self.pool.policy()
    }

    /// Client-side transport counters in typed form, aggregated over
    /// the pool. The same numbers ride in
    /// [`metrics`](Instrumented::metrics) as `net/...` counters.
    pub fn transport_stats(&self) -> TransportStats {
        self.pool.transport_stats()
    }

    /// Flush the coalescing write buffer: the whole backlog is
    /// pipelined to the server (provisional handles resolving along the
    /// way) before this returns. A no-op without `coalesce`, or with an
    /// empty backlog. Any read, `len`, or the backlog cap triggers the
    /// same flush implicitly; an error a non-fallible path (`len`,
    /// `first_in_order`, …) had to swallow is re-reported here.
    pub fn flush(&self) -> Result<()> {
        self.flush_pending()
    }

    /// Apply a whole splice plan with **pipelining**: every request
    /// frame is written before any response is read, so the wire
    /// latency is paid once for the plan instead of once per splice.
    /// Results come back in plan order. On an error response the earlier
    /// splices in the plan have already been applied (same contract as
    /// [`ltree_core::SpliceBuilder::apply`]).
    pub fn pipeline_splices(&mut self, plan: &[Splice]) -> Result<Vec<SpliceResult>> {
        if plan.is_empty() {
            return Ok(Vec::new());
        }
        self.flush()?;
        let wire_plan: Vec<WireSplice> = plan
            .iter()
            .map(|op| self.to_wire_resolved(*op))
            .collect::<Result<_>>()?;
        self.lock_cache().invalidate();
        let mut conn = self.pool.write_conn()?;
        for op in &wire_plan {
            conn.send(&Request::Splice(*op))?;
        }
        let mut out = Vec::with_capacity(plan.len());
        let mut first_err = None;
        for _ in plan {
            match conn.recv()? {
                Response::Handles(hs) => out.push(SpliceResult::Inserted(
                    hs.into_iter().map(LeafHandle).collect(),
                )),
                Response::Count(n) => out.push(SpliceResult::Deleted(n as usize)),
                Response::Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
                other => return Err(unexpected(&other)),
            }
        }
        conn.count_round_trip();
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn lock_buffer(&self) -> MutexGuard<'_, WriteBuffer> {
        self.buffer.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The cache, with the reconnect epoch enforced: a page from before
    /// any transport failure is invalidated on sight.
    fn lock_cache(&self) -> MutexGuard<'_, PageCache> {
        let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
        if cache.valid && cache.epoch != self.pool.epoch() {
            cache.invalidate();
        }
        cache
    }

    /// Flush the backlog (cheap when not coalescing) and report any
    /// error — this flush's, or one a non-fallible path had to park in
    /// `failed`. The fallible entry points all come through here, so a
    /// swallowed flush failure survives exactly until the caller next
    /// has an error channel.
    fn flush_pending(&self) -> Result<()> {
        let mut buf = self.lock_buffer();
        if !buf.pending.is_empty() {
            if let Err(e) = self.flush_locked(&mut buf) {
                buf.failed = Some(e);
            }
        }
        match buf.failed.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Flush for paths whose signatures cannot carry an error (`len`,
    /// `first_in_order`, the stats reads): `false` means the flush (or
    /// an earlier one) failed — the error stays parked in the buffer
    /// for the next fallible call instead of vanishing.
    fn flush_quiet(&self) -> bool {
        let mut buf = self.lock_buffer();
        if !buf.pending.is_empty() {
            if let Err(e) = self.flush_locked(&mut buf) {
                buf.failed = Some(e);
            }
        }
        buf.failed.is_none()
    }

    /// Resolve a (possibly provisional) handle for an immediate server
    /// call. The caller must have flushed first.
    fn resolve(&self, h: u64) -> Result<u64> {
        self.lock_buffer()
            .try_real(h)
            .ok_or(LTreeError::UnknownHandle)
    }

    /// The caller-visible name for a server handle: the provisional
    /// alias when the coalescing buffer minted this item, the server
    /// handle itself otherwise.
    fn alias(&self, h: u64) -> u64 {
        let buf = self.lock_buffer();
        if buf.aliases.is_empty() {
            h
        } else {
            buf.aliases.get(&h).copied().unwrap_or(h)
        }
    }

    fn to_wire_resolved(&self, op: Splice) -> Result<WireSplice> {
        Ok(match op {
            Splice::InsertAfter { anchor, count } => WireSplice::InsertAfter {
                anchor: self.resolve(anchor.0)?,
                count: count as u64,
            },
            Splice::DeleteRun { first, count } => WireSplice::DeleteRun {
                first: self.resolve(first.0)?,
                count: count as u64,
            },
        })
    }

    /// A server read on any pooled connection. Callers flush first so
    /// reads observe all writes — fallible paths via
    /// [`flush_pending`](Self::flush_pending), infallible ones via
    /// [`flush_quiet`](Self::flush_quiet).
    fn read_raw(&self, req: Request) -> Result<Response> {
        self.pool.call_read(&req)
    }

    /// A mutating call: flush the backlog first (order matters), then
    /// call through the write connection. The page cache is stale the
    /// moment the server applies the write, error or not (a failed
    /// batch may have applied a prefix on some schemes).
    fn call_write(&mut self, req: Request) -> Result<Response> {
        self.flush_pending()?;
        self.lock_cache().invalidate();
        self.pool.call_write(&req)
    }

    /// Fetch one page starting at `from`, install it in the cache, and
    /// hand it back. Callers answer from the *returned* page — it came
    /// from the live connection, so it is fresh by construction even
    /// when a reconnect raced the fetch; the cache install is merely an
    /// accelerator, and the conservative pre-call epoch sample may
    /// discard it (a reconnect mid-fetch means other cached pages can
    /// no longer be trusted, this response can).
    fn fetch_page(&self, from: Option<u64>) -> Result<(Vec<(u64, u128)>, bool)> {
        let epoch = self.pool.epoch();
        let resp = self.read_raw(Request::Page {
            from,
            limit: PAGE_LIMIT,
        })?;
        match resp {
            Response::Page { items, at_end } => {
                self.lock_cache()
                    .install(items.clone(), from.is_none(), at_end, epoch);
                Ok((items, at_end))
            }
            other => Err(unexpected(&other)),
        }
    }

    fn cached_label(&self, h: u64) -> Option<u128> {
        self.lock_cache().label(h)
    }

    fn cached_next(&self, h: u64) -> Option<Option<u64>> {
        self.lock_cache().next(h)
    }

    /// Queue a single-item insert, extending the trailing run when the
    /// anchor is its last minted handle. Returns the provisional handle.
    fn buffered_insert_after(&self, anchor: u64) -> Result<u64> {
        let mut buf = self.lock_buffer();
        let anchor = buf.translate_pending(anchor);
        let p = buf.mint();
        match buf.pending.last_mut() {
            Some(PendingSplice::Insert { minted, .. }) if minted.last() == Some(&anchor) => {
                minted.push(p);
            }
            _ => buf.pending.push(PendingSplice::Insert {
                anchor,
                minted: vec![p],
            }),
        }
        buf.pending_items += 1;
        self.flush_if_full(buf)?;
        Ok(p)
    }

    /// Queue a whole insert run (the batched entry point).
    fn buffered_insert_many(&self, anchor: u64, k: usize) -> Result<Vec<u64>> {
        if k == 0 {
            return Err(LTreeError::EmptyBatch);
        }
        let mut buf = self.lock_buffer();
        let anchor = buf.translate_pending(anchor);
        let minted: Vec<u64> = (0..k).map(|_| buf.mint()).collect();
        match buf.pending.last_mut() {
            Some(PendingSplice::Insert { minted: run, .. }) if run.last() == Some(&anchor) => {
                run.extend_from_slice(&minted);
            }
            _ => buf.pending.push(PendingSplice::Insert {
                anchor,
                minted: minted.clone(),
            }),
        }
        buf.pending_items += k;
        self.flush_if_full(buf)?;
        Ok(minted)
    }

    /// Queue a single-item delete, extending the trailing delete run
    /// when the page cache knows `h` is its successor. The cache is
    /// still valid while ops are buffered (the server has not moved) —
    /// but only if **no insert is pending**: a queued insert will land
    /// before the deletes at flush and can place fresh items inside the
    /// cached successor gap, so any pending insert disables extension
    /// (the deletes still pipeline into one flush).
    fn buffered_delete(&self, h: u64) -> Result<()> {
        let mut buf = self.lock_buffer();
        let h = buf.translate_pending(h);
        let extends = match buf.pending.last() {
            Some(PendingSplice::Delete { last, .. })
                if *last < PROVISIONAL_BASE
                    && h < PROVISIONAL_BASE
                    && !buf
                        .pending
                        .iter()
                        .any(|p| matches!(p, PendingSplice::Insert { .. })) =>
            {
                self.cached_next(*last) == Some(Some(h))
            }
            _ => false,
        };
        if extends {
            if let Some(PendingSplice::Delete { count, last, .. }) = buf.pending.last_mut() {
                *count += 1;
                *last = h;
            }
        } else {
            buf.pending.push(PendingSplice::Delete {
                first: h,
                count: 1,
                last: h,
            });
        }
        buf.pending_items += 1;
        self.flush_if_full(buf)?;
        Ok(())
    }

    fn flush_if_full(&self, mut buf: MutexGuard<'_, WriteBuffer>) -> Result<()> {
        if buf.pending.len() >= MAX_PENDING_SPLICES || buf.pending_items >= MAX_PENDING_ITEMS {
            self.flush_locked(&mut buf)
        } else {
            Ok(())
        }
    }

    /// Drive the backlog to the server, pipelined. Splices whose
    /// arguments are already resolvable stream out back-to-back; a
    /// splice that needs a handle minted earlier in the backlog forces
    /// one response drain first — so a dependency-free backlog is
    /// exactly one round trip. On the first scheme error the remaining
    /// *undrained* backlog is dropped (prefix contract, as in
    /// [`pipeline_splices`](Self::pipeline_splices)) and the error
    /// surfaces from this flush.
    fn flush_locked(&self, buf: &mut WriteBuffer) -> Result<()> {
        if buf.pending.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut buf.pending);
        buf.pending_items = 0;
        // The server is about to move: cached labels die now.
        self.lock_cache().invalidate();
        let mut conn = self.pool.write_conn()?;
        let mut first_err: Option<LTreeError> = None;
        let mut sent: Vec<&PendingSplice> = Vec::new();
        for p in &pending {
            let arg = match p {
                PendingSplice::Insert { anchor, .. } => *anchor,
                PendingSplice::Delete { first, .. } => *first,
            };
            if buf.try_real(arg).is_none() && !sent.is_empty() {
                drain(&mut conn, &mut sent, buf, &mut first_err)?;
            }
            if first_err.is_some() {
                // Prefix contract: once something failed, stop feeding
                // the server ops that may depend on it.
                break;
            }
            let req = match p {
                PendingSplice::Insert { anchor, minted } => match buf.try_real(*anchor) {
                    Some(a) => Request::Splice(WireSplice::InsertAfter {
                        anchor: a,
                        count: minted.len() as u64,
                    }),
                    None => {
                        first_err.get_or_insert(LTreeError::UnknownHandle);
                        break;
                    }
                },
                PendingSplice::Delete { first, count, .. } => match buf.try_real(*first) {
                    // An uncoalesced single delete keeps exact per-op
                    // error semantics (a tombstone is DeletedLeaf, not a
                    // silently-empty run) — still one frame either way.
                    Some(f) if *count == 1 => Request::Delete(f),
                    Some(f) => Request::Splice(WireSplice::DeleteRun {
                        first: f,
                        count: *count,
                    }),
                    None => {
                        first_err.get_or_insert(LTreeError::UnknownHandle);
                        break;
                    }
                },
            };
            conn.send(&req)?;
            sent.push(p);
        }
        drain(&mut conn, &mut sent, buf, &mut first_err)?;
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Read one response per sent splice, installing provisional→real
/// translations, and charge the group as one round trip.
fn drain(
    conn: &mut WriteConn<'_>,
    sent: &mut Vec<&PendingSplice>,
    buf: &mut WriteBuffer,
    first_err: &mut Option<LTreeError>,
) -> Result<()> {
    if sent.is_empty() {
        return Ok(());
    }
    for p in sent.drain(..) {
        let resp = conn.recv()?;
        match (p, resp) {
            (PendingSplice::Insert { minted, .. }, Response::Handles(hs)) => {
                if hs.len() != minted.len() {
                    return Err(LTreeError::Remote {
                        context: format!(
                            "insert run returned {} handles for {} queued items",
                            hs.len(),
                            minted.len()
                        ),
                    });
                }
                for (&prov, h) in minted.iter().zip(hs) {
                    buf.resolved.insert(prov, h);
                    buf.aliases.insert(h, prov);
                }
            }
            (PendingSplice::Delete { .. }, Response::Count(_) | Response::Unit) => {}
            (_, Response::Err(e)) => {
                if first_err.is_none() {
                    *first_err = Some(e);
                }
            }
            (_, other) => return Err(unexpected(&other)),
        }
    }
    conn.count_round_trip();
    Ok(())
}

fn unexpected(resp: &Response) -> LTreeError {
    LTreeError::Remote {
        context: format!("unexpected response frame: {resp:?}"),
    }
}

impl OrderedLabeling for RemoteScheme {
    fn name(&self) -> &'static str {
        "remote"
    }

    fn label_of(&self, h: LeafHandle) -> Result<u128> {
        self.flush_pending()?;
        let h = self.resolve(h.0)?;
        if let Some(l) = self.cached_label(h) {
            return Ok(l);
        }
        // Miss: prefetch a page starting at `h` — in-order scans (the
        // dominant read pattern) then hit the cache for the next
        // PAGE_LIMIT items. A handle the server rejects propagates its
        // exact error.
        let (items, _) = self.fetch_page(Some(h))?;
        items
            .iter()
            .find(|&&(ih, _)| ih == h)
            .map(|&(_, l)| l)
            .ok_or(LTreeError::UnknownHandle)
    }

    fn len(&self) -> usize {
        // The trait cannot carry a transport error here; a broken
        // connection reports 0, and a failed flush parks its error for
        // the next fallible call before reporting 0.
        if !self.flush_quiet() {
            return 0;
        }
        match self.read_raw(Request::Len) {
            Ok(Response::Count(n)) => n as usize,
            _ => 0,
        }
    }

    fn live_len(&self) -> usize {
        if !self.flush_quiet() {
            return 0;
        }
        match self.read_raw(Request::LiveLen) {
            Ok(Response::Count(n)) => n as usize,
            _ => 0,
        }
    }

    fn first_in_order(&self) -> Option<LeafHandle> {
        if !self.flush_quiet() {
            return None;
        }
        // A valid from-start page answers authoritatively — including
        // "the list is empty" (no refetch per poll on an empty store).
        let cached: Option<Option<u64>> = {
            let cache = self.lock_cache();
            (cache.valid && cache.from_start).then(|| cache.items.first().map(|&(h, _)| h))
        };
        let first = match cached {
            Some(answer) => answer,
            None => {
                let (items, _) = self.fetch_page(None).ok()?;
                items.first().map(|&(h, _)| h)
            }
        };
        first.map(|h| LeafHandle(self.alias(h)))
    }

    fn next_in_order(&self, h: LeafHandle) -> Option<LeafHandle> {
        if !self.flush_quiet() {
            return None;
        }
        let h = self.resolve(h.0).ok()?;
        if let Some(known) = self.cached_next(h) {
            return known.map(|n| LeafHandle(self.alias(n)));
        }
        // Unknown: page from `h`, answered from the returned page (`h`
        // leads it). A rejected or untracked handle means the scheme no
        // longer knows it — `None`, per the trait contract.
        let (items, at_end) = self.fetch_page(Some(h)).ok()?;
        let i = items.iter().position(|&(ih, _)| ih == h)?;
        match items.get(i + 1) {
            Some(&(n, _)) => Some(LeafHandle(self.alias(n))),
            None => {
                debug_assert!(at_end, "a non-final page always holds a successor");
                None
            }
        }
    }

    fn label_space_bits(&self) -> u32 {
        if !self.flush_quiet() {
            return 0;
        }
        match self.read_raw(Request::LabelSpaceBits) {
            Ok(Response::Bits(b)) => b,
            _ => 0,
        }
    }

    fn memory_bytes(&self) -> usize {
        if !self.flush_quiet() {
            return 0;
        }
        match self.read_raw(Request::MemoryBytes) {
            Ok(Response::Count(n)) => n as usize,
            _ => 0,
        }
    }
}

impl OrderedLabelingMut for RemoteScheme {
    fn bulk_build(&mut self, n: usize) -> Result<Vec<LeafHandle>> {
        match self.call_write(Request::BulkBuild(n as u64))? {
            Response::Handles(hs) => Ok(hs.into_iter().map(LeafHandle).collect()),
            other => Err(unexpected(&other)),
        }
    }

    fn insert_first(&mut self) -> Result<LeafHandle> {
        match self.call_write(Request::InsertFirst)? {
            Response::Handle(h) => Ok(LeafHandle(h)),
            other => Err(unexpected(&other)),
        }
    }

    fn insert_after(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        if self.lock_buffer().enabled {
            return self.buffered_insert_after(anchor.0).map(LeafHandle);
        }
        match self.call_write(Request::InsertAfter(anchor.0))? {
            Response::Handle(h) => Ok(LeafHandle(h)),
            other => Err(unexpected(&other)),
        }
    }

    fn insert_before(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        // `insert_before` has no splice form: flush and pass through.
        self.flush_pending()?;
        let anchor = self.resolve(anchor.0)?;
        match self.call_write(Request::InsertBefore(anchor))? {
            Response::Handle(h) => Ok(LeafHandle(h)),
            other => Err(unexpected(&other)),
        }
    }

    fn delete(&mut self, h: LeafHandle) -> Result<()> {
        if self.lock_buffer().enabled {
            return self.buffered_delete(h.0);
        }
        match self.call_write(Request::Delete(h.0))? {
            Response::Unit => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

impl BatchLabeling for RemoteScheme {
    /// One frame for the whole batch — never `k` single-insert trips.
    /// Under `coalesce` the batch joins the backlog (and may merge with
    /// an adjacent queued run).
    fn insert_many_after(&mut self, anchor: LeafHandle, k: usize) -> Result<Vec<LeafHandle>> {
        if self.lock_buffer().enabled {
            return Ok(self
                .buffered_insert_many(anchor.0, k)?
                .into_iter()
                .map(LeafHandle)
                .collect());
        }
        match self.call_write(Request::Splice(WireSplice::InsertAfter {
            anchor: anchor.0,
            count: k as u64,
        }))? {
            Response::Handles(hs) => Ok(hs.into_iter().map(LeafHandle).collect()),
            other => Err(unexpected(&other)),
        }
    }

    /// One frame for the whole run. Not coalesced — the deleted count
    /// is only knowable server-side (a run may stop at the list end),
    /// so this flushes the backlog and executes directly.
    fn delete_run(&mut self, first: LeafHandle, count: usize) -> Result<usize> {
        self.flush_pending()?;
        let first = self.resolve(first.0)?;
        match self.call_write(Request::Splice(WireSplice::DeleteRun {
            first,
            count: count as u64,
        }))? {
            Response::Count(n) => Ok(n as usize),
            other => Err(unexpected(&other)),
        }
    }

    fn splice(&mut self, op: Splice) -> Result<SpliceResult> {
        match op {
            Splice::InsertAfter { anchor, count } => Ok(SpliceResult::Inserted(
                self.insert_many_after(anchor, count)?,
            )),
            Splice::DeleteRun { first, count } => {
                Ok(SpliceResult::Deleted(self.delete_run(first, count)?))
            }
        }
    }
}

impl Instrumented for RemoteScheme {
    /// The hosted scheme's own counters (one round trip, after a
    /// flush). A transport or flush failure reports zeroed counters —
    /// the trait cannot carry errors; the next fallible call will
    /// surface it.
    fn scheme_stats(&self) -> SchemeStats {
        if !self.flush_quiet() {
            return SchemeStats::default();
        }
        match self.read_raw(Request::Stats) {
            Ok(Response::Stats(s)) => s,
            _ => SchemeStats::default(),
        }
    }

    /// Resets the hosted scheme's counters *and* this client's transport
    /// counters, so the `net/...` counters follow the same reset
    /// discipline as the scheme counters.
    fn reset_scheme_stats(&mut self) {
        if self.flush_quiet() {
            let _ = self.read_raw(Request::ResetStats);
        }
        self.pool.reset_stats();
    }

    /// The hosted scheme's breakdown (one round trip, after a flush);
    /// empty on transport failure.
    fn stats_breakdown(&self) -> Vec<(String, SchemeStats)> {
        if !self.flush_quiet() {
            return Vec::new();
        }
        match self.read_raw(Request::StatsBreakdown) {
            Ok(Response::Breakdown(entries)) => entries,
            _ => Vec::new(),
        }
    }

    /// The server's full metric snapshot — its own instrumentation
    /// (request counter, phase histograms, per-connection counters)
    /// plus the hosted scheme's metrics — fetched in one round trip,
    /// then this client's aggregate transport counters as
    /// `net/{round-trips,bytes-in,bytes-out,reconnects}` (read after the
    /// scrape, so they include it; in/out are relative to this client,
    /// the convention the server's `net/conn<i>/...` counters follow).
    /// This is how `repro metrics` scrapes a running server. A transport
    /// failure leaves only the client's counters (the trait cannot
    /// carry errors here).
    fn metrics(&self) -> Vec<Metric> {
        let mut out = if self.flush_quiet() {
            match self.read_raw(Request::Metrics) {
                Ok(Response::Metrics(m)) => m,
                _ => Vec::new(),
            }
        } else {
            Vec::new()
        };
        let t = self.transport_stats();
        out.extend([
            Metric::counter("net/round-trips", t.round_trips),
            Metric::counter("net/bytes-in", t.bytes_received),
            Metric::counter("net/bytes-out", t.bytes_sent),
            Metric::counter("net/reconnects", t.reconnects),
        ]);
        sort_metrics(&mut out);
        out
    }
}

impl Drop for RemoteScheme {
    fn drop(&mut self) {
        // Best-effort: don't silently lose a coalesced backlog.
        let _ = self.flush_pending();
        // The pool (declared first) then drops its transports, closing
        // sockets so an owned server's threads unblock before
        // `LabelServer::drop` joins them.
    }
}
