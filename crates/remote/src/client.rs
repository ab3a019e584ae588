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
//!   items. All writes serialize through the pool's connection 0, and a
//!   write's error comes back from the call that sent it.
//! * **Reads** are page-cached: a `label_of`/`first_in_order`/
//!   `next_in_order` miss fetches one [`Request::Page`] of
//!   `(handle, label)` pairs in list order, so in-order scans cost
//!   `O(n / page)` round trips. Apart from the connection it checks out
//!   of the pool, a read locks nothing but the page cache. Any write
//!   *through this client* invalidates the cache, and so does any
//!   reconnect (the pool's epoch is baked into the cache) — a restarted
//!   server may hold arbitrarily different state, so stale labels can
//!   never be served across a reconnect.
//! * **Pipelining**: [`pipeline_splices`](RemoteScheme::pipeline_splices)
//!   writes a whole splice plan before reading any response, amortizing
//!   the wire latency across the plan. It is the way to batch across
//!   splices; within one splice, `SpliceBuilder` already merges runs.
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

use crate::pool::{ClientPolicy, ConnectionPool, Endpoint};
use crate::server::LabelServer;
use crate::wire::{Request, Response, WireSplice};

/// How many `(handle, label)` pairs a read miss prefetches.
const PAGE_LIMIT: u32 = 256;

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
        Ok(RemoteScheme {
            pool: ConnectionPool::connect(endpoint, policy)?,
            cache: Mutex::new(PageCache::default()),
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
        self.invalidate_cache();
        let mut conn = self.pool.write_conn()?;
        for &op in plan {
            conn.send(&Request::Splice(to_wire(op)))?;
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

    /// The cache, with the reconnect epoch enforced: a page from before
    /// any transport failure is invalidated on sight.
    fn lock_cache(&self) -> MutexGuard<'_, PageCache> {
        let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
        if cache.valid && cache.epoch != self.pool.epoch() {
            cache.invalidate();
        }
        cache
    }

    /// Drop the cached page before a write: the page is stale the moment
    /// the server applies the write, error or not (a failed batch may
    /// have applied a prefix on some schemes).
    fn invalidate_cache(&mut self) {
        self.cache
            .get_mut()
            .unwrap_or_else(|p| p.into_inner())
            .invalidate();
    }

    /// A mutating call through the write connection.
    fn call_write(&mut self, req: Request) -> Result<Response> {
        self.invalidate_cache();
        self.pool.call_write(&req)
    }

    /// A count read (`Len`, `LiveLen`, `MemoryBytes`). The trait cannot
    /// carry a transport error here; a broken connection reports 0.
    fn read_count(&self, req: Request) -> usize {
        match self.pool.call_read(&req) {
            Ok(Response::Count(n)) => n as usize,
            _ => 0,
        }
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
        let resp = self.pool.call_read(&Request::Page {
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
}

fn to_wire(op: Splice) -> WireSplice {
    match op {
        Splice::InsertAfter { anchor, count } => WireSplice::InsertAfter {
            anchor: anchor.0,
            count: count as u64,
        },
        Splice::DeleteRun { first, count } => WireSplice::DeleteRun {
            first: first.0,
            count: count as u64,
        },
    }
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
        if let Some(l) = self.cached_label(h.0) {
            return Ok(l);
        }
        // Miss: prefetch a page starting at `h` — in-order scans (the
        // dominant read pattern) then hit the cache for the next
        // PAGE_LIMIT items. A handle the server rejects propagates its
        // exact error.
        let (items, _) = self.fetch_page(Some(h.0))?;
        items
            .iter()
            .find(|&&(ih, _)| ih == h.0)
            .map(|&(_, l)| l)
            .ok_or(LTreeError::UnknownHandle)
    }

    fn len(&self) -> usize {
        self.read_count(Request::Len)
    }

    fn live_len(&self) -> usize {
        self.read_count(Request::LiveLen)
    }

    fn first_in_order(&self) -> Option<LeafHandle> {
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
        first.map(LeafHandle)
    }

    fn next_in_order(&self, h: LeafHandle) -> Option<LeafHandle> {
        if let Some(known) = self.cached_next(h.0) {
            return known.map(LeafHandle);
        }
        // Unknown: page from `h`, answered from the returned page (`h`
        // leads it). A rejected or untracked handle means the scheme no
        // longer knows it — `None`, per the trait contract.
        let (items, at_end) = self.fetch_page(Some(h.0)).ok()?;
        let i = items.iter().position(|&(ih, _)| ih == h.0)?;
        match items.get(i + 1) {
            Some(&(n, _)) => Some(LeafHandle(n)),
            None => {
                debug_assert!(at_end, "a non-final page always holds a successor");
                None
            }
        }
    }

    fn label_space_bits(&self) -> u32 {
        match self.pool.call_read(&Request::LabelSpaceBits) {
            Ok(Response::Bits(b)) => b,
            _ => 0,
        }
    }

    fn memory_bytes(&self) -> usize {
        self.read_count(Request::MemoryBytes)
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
        match self.call_write(Request::InsertAfter(anchor.0))? {
            Response::Handle(h) => Ok(LeafHandle(h)),
            other => Err(unexpected(&other)),
        }
    }

    fn insert_before(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        match self.call_write(Request::InsertBefore(anchor.0))? {
            Response::Handle(h) => Ok(LeafHandle(h)),
            other => Err(unexpected(&other)),
        }
    }

    fn delete(&mut self, h: LeafHandle) -> Result<()> {
        match self.call_write(Request::Delete(h.0))? {
            Response::Unit => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

impl BatchLabeling for RemoteScheme {
    /// One frame for the whole batch — never `k` single-insert trips.
    fn insert_many_after(&mut self, anchor: LeafHandle, k: usize) -> Result<Vec<LeafHandle>> {
        match self.call_write(Request::Splice(WireSplice::InsertAfter {
            anchor: anchor.0,
            count: k as u64,
        }))? {
            Response::Handles(hs) => Ok(hs.into_iter().map(LeafHandle).collect()),
            other => Err(unexpected(&other)),
        }
    }

    /// One frame for the whole run.
    fn delete_run(&mut self, first: LeafHandle, count: usize) -> Result<usize> {
        match self.call_write(Request::Splice(WireSplice::DeleteRun {
            first: first.0,
            count: count as u64,
        }))? {
            Response::Count(n) => Ok(n as usize),
            other => Err(unexpected(&other)),
        }
    }
}

impl Instrumented for RemoteScheme {
    /// The hosted scheme's own counters (one round trip). A transport
    /// failure reports zeroed counters — the trait cannot carry errors.
    fn scheme_stats(&self) -> SchemeStats {
        match self.pool.call_read(&Request::Stats) {
            Ok(Response::Stats(s)) => s,
            _ => SchemeStats::default(),
        }
    }

    /// Resets the hosted scheme's counters *and* this client's transport
    /// counters, so the `net/...` counters follow the same reset
    /// discipline as the scheme counters.
    fn reset_scheme_stats(&mut self) {
        let _ = self.pool.call_read(&Request::ResetStats);
        self.pool.reset_stats();
    }

    /// The hosted scheme's breakdown (one round trip); empty on
    /// transport failure.
    fn stats_breakdown(&self) -> Vec<(String, SchemeStats)> {
        match self.pool.call_read(&Request::StatsBreakdown) {
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
        let mut out = match self.pool.call_read(&Request::Metrics) {
            Ok(Response::Metrics(m)) => m,
            _ => Vec::new(),
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
