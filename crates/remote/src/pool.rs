//! [`Endpoint`], [`ConnectionPool`] and [`ClientPolicy`] — the
//! connection layer between a [`RemoteScheme`](crate::RemoteScheme) and
//! its [`TcpTransport`]s.
//!
//! One client used to be one blocking socket: the server's
//! shared-reader `RwLock` path was unreachable from a single client,
//! and every transient socket error was terminal. This module replaces
//! that with three small pieces:
//!
//! * an **[`Endpoint`]** is the server address a fresh [`TcpTransport`]
//!   dials;
//! * a **[`ConnectionPool`]** owns `policy.conns` transports. Read
//!   calls check out *any* idle connection (round-robin start, so K
//!   client threads spread across connections and exercise the
//!   server's shared read lock); writes serialize through connection 0,
//!   which is also the one pipelined plans ride on;
//! * a **[`ClientPolicy`]** declares the connection count, the retry
//!   budget, whether transport errors trigger transparent reconnects,
//!   and the per-operation timeout. The defaults (`conns = 1`, no
//!   reconnect) reproduce the old single-connection behavior exactly.
//!
//! ## Reconnect, retry, and staleness
//!
//! A transport-level failure (I/O error, closed peer, timeout — never a
//! scheme error, which travels as a typed response) marks the
//! connection dead and bumps the pool's **reconnect epoch**; the page
//! cache in `RemoteScheme` is keyed on that epoch, so reconnecting
//! *mandatorily* invalidates cached labels — a restarted server may
//! hold arbitrarily different state. With `reconnect` set, the pool
//! then dials the same endpoint again (never a *different* address —
//! an unsynchronized peer holds different state, so cross-address
//! failover is deliberately out of scope until there is replication)
//! and, within the `retries` budget:
//!
//! * **reads** are retried transparently — they are idempotent;
//! * **writes** are retried only when the failure struck while
//!   *sending*, i.e. the request provably never reached the server. A
//!   failure while awaiting the response surfaces as an error (the
//!   write may have been applied; retrying could double-apply), but the
//!   connection is still re-established so the session continues.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use ltree_core::registry::SpecOptions;
use ltree_core::{LTreeError, Result};

use crate::client::TransportStats;
use crate::transport::TcpTransport;
use crate::wire::{Request, Response, PROTOCOL_VERSION};

/// Declarative client behavior: how many connections, how failures are
/// handled, how long an operation may block. Spec options
/// (`remote(host:port,conns=4,retries=2,reconnect)`) parse into this;
/// the defaults reproduce the original single-connection client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientPolicy {
    /// Transports kept per endpoint. Reads use any idle one; writes
    /// serialize through connection 0. Default 1.
    pub conns: usize,
    /// Retry budget per operation after a transport failure (see the
    /// [module docs](self) for what is safe to retry). Implies
    /// reconnection. Default 0.
    pub retries: u32,
    /// Re-establish a connection that hit a transport error, so the
    /// *next* operation works even when the failing one could not be
    /// retried. Implied by `retries > 0`. Default off.
    pub reconnect: bool,
    /// Socket read timeout per operation; an expiry is a transport
    /// error (and thus subject to the reconnect/retry policy).
    /// Default none (block forever).
    pub op_timeout: Option<Duration>,
}

impl Default for ClientPolicy {
    fn default() -> Self {
        ClientPolicy {
            conns: 1,
            retries: 0,
            reconnect: false,
            op_timeout: None,
        }
    }
}

impl ClientPolicy {
    /// Parse the policy from trailing spec options: `conns=N`,
    /// `retries=N`, `reconnect`, `timeout-ms=N`. Leaves
    /// unknown keys in `opts` for the caller's `finish()` to reject.
    pub fn from_options(opts: &mut SpecOptions) -> Result<ClientPolicy> {
        let mut p = ClientPolicy::default();
        if let Some(c) = opts.take_u32("conns")? {
            if c == 0 {
                return Err(LTreeError::InvalidOption {
                    spec: opts.spec().to_owned(),
                    key: "conns".into(),
                    reason: "a client needs at least one connection",
                });
            }
            p.conns = c as usize;
        }
        if let Some(r) = opts.take_u32("retries")? {
            p.retries = r;
            p.reconnect = p.reconnect || r > 0;
        }
        if opts.take_flag("reconnect")? {
            p.reconnect = true;
        }
        if let Some(ms) = opts.take_u64("timeout-ms")? {
            p.op_timeout = Some(Duration::from_millis(ms));
        }
        Ok(p)
    }

    /// Whether transport failures trigger reconnection at all.
    fn reconnects(&self) -> bool {
        self.reconnect || self.retries > 0
    }
}

/// The address a pool dials for fresh [`TcpTransport`]s to one label
/// store. See the [module docs](self).
pub struct Endpoint {
    /// Only `addrs[primary]` is ever dialed — the rest of the list
    /// exists for the registry's per-build rotation. Connecting to a
    /// *different* address on failure would silently attach the session
    /// to a store holding different state (in the `ServerGroup`
    /// deployment, another shard's), so failover across addresses is
    /// deliberately not done; it needs replication first.
    addrs: Vec<String>,
    primary: usize,
}

impl Endpoint {
    /// A TCP endpoint. `addrs` is one `host:port` or a `|`-separated
    /// list of which only the **first** entry is dialed — the list form
    /// exists for the registry's per-build rotation, and reconnects
    /// always return to the same address (dialing a different,
    /// unsynchronized peer would silently attach the session to
    /// different state).
    pub fn tcp(addrs: &str) -> Result<Endpoint> {
        Self::tcp_rotated(
            addrs
                .split('|')
                .map(|a| a.trim().to_owned())
                .collect::<Vec<_>>(),
            0,
        )
    }

    /// A TCP endpoint whose primary is `addrs[primary % len]` — the
    /// registry's `remote(a|b|c)` rotation uses this so consecutive
    /// builds (e.g. the segments of `sharded(n,remote(...))`) land on
    /// consecutive servers.
    pub(crate) fn tcp_rotated(addrs: Vec<String>, primary: usize) -> Result<Endpoint> {
        if addrs.is_empty() || addrs.iter().any(String::is_empty) {
            return Err(LTreeError::InvalidSpec {
                spec: "remote".into(),
                reason: "expected one host:port address or a |-separated list of them",
            });
        }
        let primary = primary % addrs.len();
        Ok(Endpoint { addrs, primary })
    }

    /// Dial this endpoint's (one) address. No handshake yet — the pool
    /// performs it so every connection is version-checked identically.
    fn connect(&self, op_timeout: Option<Duration>) -> Result<TcpTransport> {
        TcpTransport::connect(&self.addrs[self.primary], op_timeout)
    }
}

/// One pooled connection slot: the live transport (lazily connected;
/// `None` after a transport failure until reconnect) plus its counters.
struct Slot {
    transport: Option<TcpTransport>,
    stats: TransportStats,
}

/// Which half of an exchange failed — decides write retryability.
enum FailStage {
    /// Connecting or handshaking: nothing reached the server.
    Connect,
    /// The request frame did not go out: nothing reached the server.
    Send,
    /// The request may have been applied; the response was lost.
    Recv,
}

struct Failure {
    stage: FailStage,
    error: LTreeError,
}

type CallResult = std::result::Result<Response, Failure>;

/// Append the request's tag name to a transport error context, so a
/// timeout or broken pipe in a log names the operation it interrupted.
/// Non-`Remote` errors pass through untouched.
fn tag_with_request(error: LTreeError, verb: &str, req: &Request) -> LTreeError {
    match error {
        LTreeError::Remote { context } => LTreeError::Remote {
            context: format!("{context} (while {verb} {})", req.name()),
        },
        other => other,
    }
}

/// `policy.conns` transports to one endpoint, with checkout, reconnect
/// and retry. See the [module docs](self).
pub struct ConnectionPool {
    endpoint: Endpoint,
    policy: ClientPolicy,
    slots: Vec<Mutex<Slot>>,
    /// Round-robin start index for read checkout. `Relaxed` everywhere:
    /// a scheduling hint, never synchronization.
    rotation: AtomicUsize,
    /// Bumped on every transport failure; the page cache is keyed on it,
    /// so reconnects invalidate cached labels unconditionally.
    /// `Release` on the bump / `Acquire` on the read — the one atomic in
    /// this crate that carries an ordering obligation (see `kill`).
    epoch: AtomicU64,
    /// Successful reconnect count. `Relaxed` everywhere: statistics
    /// only, reported through [`TransportStats`] and reset wholesale.
    reconnects: AtomicU64,
}

impl ConnectionPool {
    /// Build the pool and eagerly connect + handshake **every** slot.
    /// Eager connection does two jobs: a dead endpoint (or a
    /// protocol-version mismatch) fails construction — `remote(nope:1)`
    /// errors at build time, not first use — and every transport's
    /// lifetime starts *now*, so a connection can only ever see a newer
    /// server via the failure path, which bumps the epoch and kills the
    /// page cache. (A lazily-connected slot could dial a restarted
    /// server without any failure being observed, and stale cached
    /// labels would survive the restart.)
    pub fn connect(endpoint: Endpoint, policy: ClientPolicy) -> Result<ConnectionPool> {
        let slots = (0..policy.conns.max(1))
            .map(|_| {
                Mutex::new(Slot {
                    transport: None,
                    stats: TransportStats::default(),
                })
            })
            .collect();
        let pool = ConnectionPool {
            endpoint,
            policy,
            slots,
            rotation: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
        };
        for i in 0..pool.slots.len() {
            let mut slot = pool.lock_slot(i);
            pool.connect_slot(&mut slot).map_err(|f| f.error)?;
        }
        Ok(pool)
    }

    /// The policy this pool runs under.
    pub fn policy(&self) -> &ClientPolicy {
        &self.policy
    }

    /// The reconnect epoch: changes whenever any connection hit a
    /// transport failure. Cached reads from an older epoch are stale.
    ///
    /// Ordering: `Acquire`, pairing with the `Release` bump in the
    /// (private) `kill`. A client that observes the new epoch here
    /// also observes everything the killing thread published before the
    /// bump, so an epoch-keyed cache entry can never pass validation
    /// while missing the failover it is keyed against. The
    /// `epoch_keyed_cache_never_serves_stale_data` model in
    /// `tests/loom_models.rs` checks the protocol built on this pair.
    pub fn epoch(&self) -> u64 {
        // acquire: pairs with the Release epoch bump (see the doc above).
        self.epoch.load(Ordering::Acquire)
    }

    fn lock_slot(&self, i: usize) -> MutexGuard<'_, Slot> {
        self.slots[i].lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Check out a connection for a read: probe every slot for an idle
    /// one starting at a rotating index (so sequential callers spread
    /// over the pool, not just contended ones), blocking on the start
    /// slot when all are busy.
    fn checkout_read(&self) -> MutexGuard<'_, Slot> {
        let n = self.slots.len();
        // Ordering: `Relaxed` is enough — the counter only picks a
        // start slot, and correctness (mutual exclusion, progress) comes
        // from the slot mutexes below; see the `checkout_*` models in
        // `tests/loom_models.rs`. The RMW itself is still atomic, so
        // concurrent callers get distinct start hints.
        let start = self.rotation.fetch_add(1, Ordering::Relaxed) % n;
        for i in 0..n {
            if let Ok(guard) = self.slots[(start + i) % n].try_lock() {
                return guard;
            }
        }
        self.lock_slot(start)
    }

    /// Connect + handshake one slot.
    fn connect_slot(&self, slot: &mut Slot) -> std::result::Result<(), Failure> {
        let fail = |error| Failure {
            stage: FailStage::Connect,
            error,
        };
        let mut t = self
            .endpoint
            .connect(self.policy.op_timeout)
            .map_err(fail)?;
        slot.stats.bytes_sent += t
            .send(&Request::Hello {
                version: PROTOCOL_VERSION,
            })
            .map_err(fail)?;
        let (resp, bytes) = t.recv().map_err(fail)?;
        slot.stats.bytes_received += bytes;
        slot.stats.round_trips += 1;
        match resp {
            Response::Hello { version } if version == PROTOCOL_VERSION => {}
            Response::Hello { version } => {
                return Err(fail(LTreeError::Remote {
                    context: format!(
                        "protocol version mismatch: server speaks {version}, \
                         client speaks {PROTOCOL_VERSION}"
                    ),
                }))
            }
            Response::Err(e) => return Err(fail(e)),
            other => {
                return Err(fail(LTreeError::Remote {
                    context: format!("unexpected handshake response: {other:?}"),
                }))
            }
        }
        slot.transport = Some(t);
        Ok(())
    }

    /// One send+recv on an already-checked-out slot, connecting it
    /// lazily first. Transport failures kill the slot's transport and
    /// bump the reconnect epoch. Transport error contexts are tagged
    /// with the request name (`"… while sending Splice::InsertAfter"`)
    /// so a timeout in a log names the operation that hung, not just
    /// the peer.
    fn exchange(&self, slot: &mut Slot, req: &Request) -> CallResult {
        if slot.transport.is_none() {
            self.connect_slot(slot)?;
        }
        let t = slot.transport.as_mut().expect("just connected");
        match t.send(req) {
            Ok(b) => slot.stats.bytes_sent += b,
            Err(error) => {
                self.kill(slot);
                return Err(Failure {
                    stage: FailStage::Send,
                    error: tag_with_request(error, "sending", req),
                });
            }
        }
        match t.recv() {
            Ok((resp, b)) => {
                slot.stats.bytes_received += b;
                slot.stats.round_trips += 1;
                Ok(resp)
            }
            Err(error) => {
                self.kill(slot);
                Err(Failure {
                    stage: FailStage::Recv,
                    error: tag_with_request(error, "awaiting", req),
                })
            }
        }
    }

    fn kill(&self, slot: &mut Slot) {
        slot.transport = None;
        // Ordering: `Release`, pairing with the `Acquire` load in
        // [`epoch`](Self::epoch) — the write that invalidates every
        // epoch-keyed cache must not be reorderable before the failure
        // handling that precedes it. `Relaxed` here would let a reader
        // validate its cache against the old epoch after the failover
        // is visible elsewhere.
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The policy-driven call loop shared by reads and writes.
    fn call_with_policy(
        &self,
        mut slot: MutexGuard<'_, Slot>,
        req: &Request,
        write: bool,
    ) -> Result<Response> {
        let mut attempts = 0u32;
        loop {
            match self.exchange(&mut slot, req) {
                Ok(Response::Err(e)) => return Err(e), // scheme error: never retried
                Ok(resp) => return Ok(resp),
                Err(fail) => {
                    if !self.policy.reconnects() {
                        return Err(fail.error);
                    }
                    // Re-establish the connection regardless of whether
                    // this op can be retried, so the session survives.
                    let reconnected = self.connect_slot(&mut slot).is_ok();
                    if reconnected {
                        // Ordering: `Relaxed` — a pure statistics
                        // counter; nothing is published under it and no
                        // decision anywhere reads it for synchronization.
                        self.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    let retryable = match fail.stage {
                        FailStage::Connect | FailStage::Send => true,
                        // The server may have applied the write.
                        FailStage::Recv => !write,
                    };
                    if !retryable || attempts >= self.policy.retries {
                        return Err(fail.error);
                    }
                    attempts += 1;
                }
            }
        }
    }

    /// A read: any idle connection, full reconnect-and-retry.
    pub fn call_read(&self, req: &Request) -> Result<Response> {
        self.call_with_policy(self.checkout_read(), req, false)
    }

    /// A write: connection 0, reconnect always, retry only when the
    /// request provably never left (see the [module docs](self)).
    pub fn call_write(&self, req: &Request) -> Result<Response> {
        self.call_with_policy(self.lock_slot(0), req, true)
    }

    /// Check out the write connection (slot 0) for a pipelined plan:
    /// the caller sends any number of frames, then drains the
    /// responses. Plans are not retried — a transport failure mid-plan
    /// surfaces after killing the connection (and reconnecting it for
    /// subsequent ops when the policy allows).
    pub fn write_conn(&self) -> Result<WriteConn<'_>> {
        let mut slot = self.lock_slot(0);
        if slot.transport.is_none() {
            self.connect_slot(&mut slot).map_err(|f| f.error)?;
        }
        Ok(WriteConn { pool: self, slot })
    }

    /// Aggregate transport counters over every connection, plus the
    /// pool-level reconnect count.
    pub fn transport_stats(&self) -> TransportStats {
        let mut total = TransportStats {
            // relaxed: statistic only; the slot stats below are mutex-ordered anyway.
            reconnects: self.reconnects.load(Ordering::Relaxed),
            ..TransportStats::default()
        };
        for i in 0..self.slots.len() {
            let s = self.lock_slot(i).stats;
            total.round_trips += s.round_trips;
            total.bytes_sent += s.bytes_sent;
            total.bytes_received += s.bytes_received;
        }
        total
    }

    /// Per-connection counters, in slot order (connection 0 is the
    /// write connection). Never-used slots report zeros.
    pub fn per_conn_stats(&self) -> Vec<TransportStats> {
        (0..self.slots.len())
            .map(|i| self.lock_slot(i).stats)
            .collect()
    }

    /// Zero every counter (the reset discipline of
    /// [`Instrumented::reset_scheme_stats`](ltree_core::Instrumented)).
    pub fn reset_stats(&self) {
        for i in 0..self.slots.len() {
            self.lock_slot(i).stats = TransportStats::default();
        }
        // relaxed: advisory counter reset; races with reconnect accounting benignly.
        self.reconnects.store(0, Ordering::Relaxed);
    }
}

/// The checked-out write connection for pipelined plans (from
/// [`ConnectionPool::write_conn`]). `send` / `recv` map transport
/// failures to `Err` after killing the connection;
/// [`count_round_trip`](Self::count_round_trip) lets the caller charge
/// a whole pipelined plan as one trip.
pub struct WriteConn<'a> {
    pool: &'a ConnectionPool,
    slot: MutexGuard<'a, Slot>,
}

impl WriteConn<'_> {
    /// Send one request frame without reading a response.
    pub fn send(&mut self, req: &Request) -> Result<()> {
        let t = self
            .slot
            .transport
            .as_mut()
            .ok_or_else(|| LTreeError::Remote {
                context: "write connection lost mid-plan".into(),
            })?;
        match t.send(req) {
            Ok(b) => {
                self.slot.stats.bytes_sent += b;
                Ok(())
            }
            Err(e) => {
                self.pool.kill(&mut self.slot);
                Err(tag_with_request(e, "sending", req))
            }
        }
    }

    /// Read the next in-order response frame (not counted as a round
    /// trip — call [`count_round_trip`](Self::count_round_trip) once
    /// per drained plan).
    pub fn recv(&mut self) -> Result<Response> {
        let t = self
            .slot
            .transport
            .as_mut()
            .ok_or_else(|| LTreeError::Remote {
                context: "write connection lost mid-plan".into(),
            })?;
        match t.recv() {
            Ok((resp, b)) => {
                self.slot.stats.bytes_received += b;
                Ok(resp)
            }
            Err(e) => {
                self.pool.kill(&mut self.slot);
                Err(e)
            }
        }
    }

    /// Charge one round trip to this connection's counters.
    pub fn count_round_trip(&mut self) {
        self.slot.stats.round_trips += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltree_core::{LTree, Params};

    #[test]
    fn transport_errors_name_the_request() {
        let mut server = crate::server::LabelServer::bind(
            "127.0.0.1:0",
            Box::new(LTree::new(Params::new(4, 2).unwrap())),
        )
        .unwrap();
        let pool = ConnectionPool::connect(
            Endpoint::tcp(&server.local_addr().to_string()).unwrap(),
            ClientPolicy::default(),
        )
        .unwrap();
        server.shutdown();
        let err = pool.call_read(&Request::Len).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("Len"),
            "transport error should name the request tag: {msg}"
        );
    }
}
