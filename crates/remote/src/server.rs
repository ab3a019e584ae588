//! [`LabelServer`] — a TCP server hosting one labeling scheme.
//!
//! The server owns any [`DynScheme`] (usually registry-built) behind an
//! `RwLock`: reads (pages, counts, stats) take the shared lock so
//! concurrent connections read in parallel; writes take the exclusive
//! lock, mirroring the trait family's `&self`/`&mut self` split.
//! Connections are served one thread each, with request pipelining: a
//! client may write any number of request frames before reading the
//! responses, which come back in order.
//!
//! Shutdown is graceful and deterministic: [`LabelServer::shutdown`]
//! (also run on drop) stops the accept loop, unblocks every connection
//! thread by shutting its socket down, and joins them all, so no thread
//! outlives the server value.
//!
//! A connection whose client hung up releases its socket and thread:
//! the accept loop joins and drops every finished connection before it
//! registers the next one, so a long-lived server holds one registration
//! per live connection, not one per connection ever opened.
//!
//! Per-connection op/byte counters are part of the server's metrics:
//! [`LabelServer::metrics`] and the wire `Metrics` scrape both report
//! `net/conn<i>/{round-trips,bytes-in,bytes-out}` counters for every
//! live connection, next to the request counter, the phase histograms
//! and the hosted scheme's own metrics. When a connection ends, its
//! counts move into `net/closed-conns/{round-trips,bytes-in,bytes-out}`
//! and its series go, so the number of series is bounded by the live
//! connections. The [`Instrumented`] cost counters stay the hosted
//! scheme's alone.
//!
//! The socket is the only way in: `remote(…)` clients dial it from
//! anywhere, and a `served(…)` client dials the server it binds on
//! `127.0.0.1:0` in its own process.

use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use ltree_core::metrics::{sort_metrics, Metric};
use ltree_core::registry::{SchemeConfig, SchemeRegistry};
use ltree_core::{
    Cursor, DynScheme, Instrumented, LTreeError, LeafHandle, Result, SchemeStats, Splice,
};
use ltree_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::wire::{
    decode_request, encode_response_capped, io_err, read_frame, write_frame, Request, Response,
    WireSplice, MAX_PAGE_ITEMS, MAX_REPLY_HANDLES, PROTOCOL_VERSION,
};

/// One connection's op/byte counters, taken from the server's
/// registry as `net/conn<i>/{round-trips,bytes-in,bytes-out}`.
struct ConnCounters {
    id: usize,
    round_trips: Arc<Counter>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
}

/// The server's own live instrumentation, all in one registry: the
/// request counter, the active-connection gauge, the four per-request
/// phase histograms (`net/phase/{decode,lock-wait,apply,encode}`,
/// nanoseconds), the op/byte counters of every live connection and
/// their totals over closed ones. Shared by every connection thread; a
/// `Metrics` wire request (or [`Instrumented::metrics`] on the server)
/// snapshots it together with the hosted scheme's own metrics.
struct ServerMetrics {
    registry: MetricsRegistry,
    requests: Arc<Counter>,
    active_conns: Arc<Gauge>,
    decode: Arc<Histogram>,
    lock_wait: Arc<Histogram>,
    apply: Arc<Histogram>,
    encode: Arc<Histogram>,
    next_conn_id: AtomicUsize,
}

impl ServerMetrics {
    fn new() -> Arc<ServerMetrics> {
        let registry = MetricsRegistry::new();
        let requests = registry.counter("net/requests");
        let active_conns = registry.gauge("net/active-conns");
        let decode = registry.histogram("net/phase/decode");
        let lock_wait = registry.histogram("net/phase/lock-wait");
        let apply = registry.histogram("net/phase/apply");
        let encode = registry.histogram("net/phase/encode");
        Arc::new(ServerMetrics {
            registry,
            requests,
            active_conns,
            decode,
            lock_wait,
            apply,
            encode,
            next_conn_id: AtomicUsize::new(0),
        })
    }

    /// Register a new connection and hand back its counters, reported
    /// as `net/conn<i>/...` from now on.
    fn open_conn(&self) -> ConnCounters {
        // Ordering: `Relaxed` — ids only need uniqueness, which the
        // atomic RMW guarantees on its own; nothing is published under
        // the counter.
        let id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
        ConnCounters {
            id,
            round_trips: self.registry.counter(&format!("net/conn{id}/round-trips")),
            bytes_in: self.registry.counter(&format!("net/conn{id}/bytes-in")),
            bytes_out: self.registry.counter(&format!("net/conn{id}/bytes-out")),
        }
    }

    /// Fold an ended connection's counters into the closed-connection
    /// totals and drop its series. Its thread no longer counts, so no
    /// count is lost, and each counter moves under the registry's lock,
    /// so a scrape counts it once.
    fn close_conn(&self, c: ConnCounters) {
        let id = c.id;
        self.registry.fold_counter(
            &format!("net/conn{id}/round-trips"),
            "net/closed-conns/round-trips",
        );
        self.registry.fold_counter(
            &format!("net/conn{id}/bytes-in"),
            "net/closed-conns/bytes-in",
        );
        self.registry.fold_counter(
            &format!("net/conn{id}/bytes-out"),
            "net/closed-conns/bytes-out",
        );
    }
}

/// The full scrape: the server's own instrumentation concatenated with
/// the hosted scheme's [`Instrumented::metrics`] (read under the guard
/// `lock` returns), sorted by name. One function backs the wire
/// `Metrics` handler and the host-side [`Instrumented`] impl, so both
/// views agree counter-for-counter.
fn full_metrics<'a>(
    metrics: &ServerMetrics,
    lock: impl FnOnce() -> RwLockReadGuard<'a, Box<dyn DynScheme>>,
) -> Vec<Metric> {
    let mut out = metrics.registry.snapshot();
    out.extend(lock().metrics());
    sort_metrics(&mut out);
    out
}

/// One accepted socket connection.
struct ConnReg {
    /// A clone of the connection's socket, kept so shutdown can unblock
    /// the thread's blocking read.
    stream: TcpStream,
    thread: Option<JoinHandle<()>>,
}

type SharedScheme = Arc<RwLock<Box<dyn DynScheme>>>;

fn read_lock(s: &RwLock<Box<dyn DynScheme>>) -> RwLockReadGuard<'_, Box<dyn DynScheme>> {
    s.read().unwrap_or_else(|p| p.into_inner())
}

fn write_lock(s: &RwLock<Box<dyn DynScheme>>) -> RwLockWriteGuard<'_, Box<dyn DynScheme>> {
    s.write().unwrap_or_else(|p| p.into_inner())
}

/// A running label-store server. See the [module docs](self).
///
/// ```
/// use ltree_core::registry::SchemeRegistry;
/// use ltree_core::{Instrumented, OrderedLabelingMut};
/// use ltree_remote::{LabelServer, RemoteScheme};
///
/// let scheme = SchemeRegistry::with_builtin().build("ltree(4,2)").unwrap();
/// let server = LabelServer::bind("127.0.0.1:0", scheme).unwrap();
/// let mut client = RemoteScheme::connect(&server.local_addr().to_string()).unwrap();
/// let handles = client.bulk_build(100).unwrap();
/// client.insert_after(handles[50]).unwrap();
/// assert_eq!(server.scheme_stats().inserts, 1); // host-side view
/// ```
pub struct LabelServer {
    addr: SocketAddr,
    scheme: SharedScheme,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<ConnReg>>>,
    accept: Option<JoinHandle<()>>,
}

impl LabelServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving `scheme`. Returns once the listener is live; the
    /// accept loop runs on its own thread until [`shutdown`](Self::shutdown).
    pub fn bind<A: ToSocketAddrs>(addr: A, scheme: Box<dyn DynScheme>) -> Result<LabelServer> {
        let listener = TcpListener::bind(addr).map_err(io_err)?;
        let addr = listener.local_addr().map_err(io_err)?;
        let scheme: SharedScheme = Arc::new(RwLock::new(scheme));
        let metrics = ServerMetrics::new();
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<ConnReg>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let (scheme, stop, conns) = (scheme.clone(), stop.clone(), conns.clone());
            let metrics = metrics.clone();
            std::thread::spawn(move || accept_loop(listener, scheme, metrics, stop, conns))
        };
        Ok(LabelServer {
            addr,
            scheme,
            metrics,
            stop,
            conns,
            accept: Some(accept),
        })
    }

    /// The address the server listens on (useful with port 0: every
    /// test binds an ephemeral port and reads the real one back here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Bind `addr` and serve a [`crate::DurableScheme`] recovered from
    /// `dir` — the restart-from-disk constructor. `inner` must be a
    /// freshly built (empty) scheme of the same kind the directory's
    /// snapshot and write-ahead log were produced against; recovery
    /// replays the durable state into it before the listener goes live,
    /// so the first client request already sees the acknowledged
    /// prefix. With an empty or missing `dir` this is just a durable
    /// server starting from scratch.
    pub fn recover_from_dir<A: ToSocketAddrs>(
        addr: A,
        inner: Box<dyn DynScheme>,
        dir: &std::path::Path,
        opts: crate::DurableOptions,
    ) -> Result<LabelServer> {
        let scheme = crate::DurableScheme::open_path(inner, dir, opts)?;
        Self::bind(addr, Box::new(scheme))
    }

    /// Shut the server down and take the hosted scheme back out — the
    /// primitive behind "restart the server on the same state" (bind a
    /// new [`LabelServer`] with the returned scheme). Fails only if a
    /// server thread still holds the scheme after shutdown joined them.
    pub fn into_scheme(mut self) -> Result<Box<dyn DynScheme>> {
        self.shutdown();
        let scheme = Arc::clone(&self.scheme);
        drop(self);
        match Arc::try_unwrap(scheme) {
            Ok(lock) => Ok(lock.into_inner().unwrap_or_else(|p| p.into_inner())),
            Err(_) => Err(LTreeError::Remote {
                context: "cannot take the scheme out of the server: it is still shared".into(),
            }),
        }
    }

    /// Stop accepting, unblock and join every connection thread, then
    /// join the accept thread. Idempotent; also runs on drop.
    ///
    /// The two-pass signaling below is load-bearing: the
    /// `two_pass_shutdown_loses_no_connection` model in
    /// `tests/loom_models.rs` explores every interleaving of this
    /// function against `accept_loop`, and its single-pass variant
    /// demonstrates the lost-connection deadlock the second pass
    /// prevents.
    pub fn shutdown(&mut self) {
        // Ordering: `SeqCst` swap — `stop` is a control flag consulted
        // from the accept loop and every serving thread; the swap also
        // makes shutdown idempotent (exactly one caller sees `false`).
        // The flag synchronizes nothing but itself, so `AcqRel` would
        // do; `SeqCst` keeps every stop-flag site in one total order for
        // free — this path runs once per server lifetime.
        // seqcst: one total order across every stop-flag site, at once-per-lifetime cost.
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock connection threads stuck in a blocking read.
        let conns = self.conns.lock().unwrap_or_else(|p| p.into_inner());
        for c in conns.iter() {
            let _ = c.stream.shutdown(Shutdown::Both);
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        drop(conns);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        // The accept loop (the only registrar) has exited, so the list
        // is complete. A connection accepted concurrently with the first
        // pass may have been registered after it ran — shut each socket
        // down again before joining, or that thread's blocking read
        // would hang this join forever.
        let mut conns = self.conns.lock().unwrap_or_else(|p| p.into_inner());
        for c in conns.iter_mut() {
            let _ = c.stream.shutdown(Shutdown::Both);
            if let Some(t) = c.thread.take() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for LabelServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Host-side instrumentation: the hosted scheme's cost counters and
/// breakdown, and the full metric scrape — the same snapshot a wire
/// `Metrics` request returns.
impl Instrumented for LabelServer {
    fn scheme_stats(&self) -> SchemeStats {
        read_lock(&self.scheme).scheme_stats()
    }

    fn reset_scheme_stats(&mut self) {
        write_lock(&self.scheme).reset_scheme_stats();
    }

    fn stats_breakdown(&self) -> Vec<(String, SchemeStats)> {
        read_lock(&self.scheme).stats_breakdown()
    }

    fn metrics(&self) -> Vec<Metric> {
        full_metrics(&self.metrics, || read_lock(&self.scheme))
    }
}

fn accept_loop(
    listener: TcpListener,
    scheme: SharedScheme,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<ConnReg>>>,
) {
    for incoming in listener.incoming() {
        // This stop check runs *after* `accept()` returned and *before*
        // the registration below — a connection that passes it can still
        // be registered after shutdown's first signaling pass, which is
        // exactly why `shutdown` signals twice (modeled step for step in
        // `tests/loom_models.rs`).
        // seqcst: stop-flag sites share one total order with shutdown's swap.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = incoming else { continue };
        let _ = stream.set_nodelay(true);
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        let thread = {
            let (scheme, metrics, stop) = (scheme.clone(), metrics.clone(), stop.clone());
            let counters = metrics.open_conn();
            std::thread::spawn(move || serve_conn(stream, scheme, metrics, counters, stop))
        };
        let mut conns = conns.lock().unwrap_or_else(|p| p.into_inner());
        reap_finished(&mut conns);
        conns.push(ConnReg {
            stream: clone,
            thread: Some(thread),
        });
    }
}

/// Join and drop every connection whose thread has ended (its client
/// hung up), releasing the registration's socket clone. Runs under the
/// lock `shutdown` takes, so `shutdown` sees each connection either
/// registered or already joined. Only finished threads are reaped: every
/// thread that ever held the scheme is still joined before `into_scheme`
/// unwraps it.
fn reap_finished(conns: &mut Vec<ConnReg>) {
    conns.retain_mut(|c| {
        let finished = c.thread.as_ref().is_none_or(JoinHandle::is_finished);
        if finished {
            if let Some(t) = c.thread.take() {
                let _ = t.join();
            }
        }
        !finished
    });
}

/// One connection: read frames until EOF/shutdown, answering in order.
/// Undecodable requests get an error *response* (the stream stays in
/// frame sync thanks to the length prefix); transport failures end the
/// connection.
fn serve_conn(
    stream: TcpStream,
    scheme: SharedScheme,
    metrics: Arc<ServerMetrics>,
    counters: ConnCounters,
    stop: Arc<AtomicBool>,
) {
    let Ok(read_half) = stream.try_clone() else {
        metrics.close_conn(counters);
        return;
    };
    metrics.active_conns.add(1);
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    // seqcst: stop-flag sites share one total order with shutdown's swap.
    while !stop.load(Ordering::SeqCst) {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => break,
        };
        let in_bytes = 4 + payload.len() as u64;
        let t = Instant::now();
        let decoded = decode_request(&payload);
        metrics.decode.record(t.elapsed().as_nanos() as u64);
        let resp = match decoded {
            Ok(req) => handle_request(&scheme, &metrics, req),
            Err(e) => Response::Err(e),
        };
        let t = Instant::now();
        let out = encode_response_capped(&resp);
        metrics.encode.record(t.elapsed().as_nanos() as u64);
        // Count before replying: once the client holds its answer, a
        // scrape it sends on another connection must already see this
        // request.
        counters.round_trips.inc();
        counters.bytes_in.add(in_bytes);
        counters.bytes_out.add(4 + out.len() as u64);
        if write_frame(&mut writer, &out).is_err() {
            break;
        }
    }
    // Close both halves and fold the counters before reporting the
    // connection gone, so a caller that waits for `net/active-conns` to
    // drop also sees its sockets released and its series folded.
    drop(reader);
    drop(writer);
    metrics.close_conn(counters);
    metrics.active_conns.add(-1);
}

/// Refuse an insert whose `Handles` reply could not be framed. Checked
/// before the write lock is taken: applied, such an insert could only be
/// answered with "re-read the result", and a count like `1 << 40` would
/// exhaust the server's memory before that.
fn reply_fits(req: &Request) -> Result<()> {
    let count = match *req {
        Request::BulkBuild(n) | Request::Splice(WireSplice::InsertAfter { count: n, .. }) => n,
        _ => return Ok(()),
    };
    if count <= MAX_REPLY_HANDLES {
        return Ok(());
    }
    Err(LTreeError::Remote {
        context: format!(
            "an insert of {count} items exceeds the {MAX_REPLY_HANDLES} handles one reply \
             frame carries; nothing was applied"
        ),
    })
}

fn ok_or_err<T>(r: Result<T>, f: impl FnOnce(T) -> Response) -> Response {
    match r {
        Ok(v) => f(v),
        Err(e) => Response::Err(e),
    }
}

fn handle_request(
    scheme: &RwLock<Box<dyn DynScheme>>,
    metrics: &ServerMetrics,
    req: Request,
) -> Response {
    metrics.requests.inc();
    let start = Instant::now();
    // Lock-wait is accumulated by the closures below; the apply phase is
    // everything else in this function (the time actually holding the
    // lock and running the scheme). Both are recorded per request.
    let waited = std::cell::Cell::new(0u64);
    let rl = || {
        let t = Instant::now();
        let g = read_lock(scheme);
        waited.set(waited.get() + t.elapsed().as_nanos() as u64);
        g
    };
    let wl = || {
        let t = Instant::now();
        let g = write_lock(scheme);
        waited.set(waited.get() + t.elapsed().as_nanos() as u64);
        g
    };
    let resp = dispatch(rl, wl, metrics, scheme, req);
    let total = start.elapsed().as_nanos() as u64;
    let lock_wait = waited.get();
    metrics.lock_wait.record(lock_wait);
    metrics.apply.record(total.saturating_sub(lock_wait));
    resp
}

fn dispatch<'a, R, W>(
    rl: R,
    wl: W,
    metrics: &ServerMetrics,
    scheme: &'a RwLock<Box<dyn DynScheme>>,
    req: Request,
) -> Response
where
    R: Fn() -> RwLockReadGuard<'a, Box<dyn DynScheme>>,
    W: Fn() -> RwLockWriteGuard<'a, Box<dyn DynScheme>>,
{
    let read_lock = |_: &RwLock<Box<dyn DynScheme>>| rl();
    let write_lock = |_: &RwLock<Box<dyn DynScheme>>| wl();
    if let Err(e) = reply_fits(&req) {
        return Response::Err(e);
    }
    match req {
        Request::Hello { version } => {
            if version == PROTOCOL_VERSION {
                Response::Hello {
                    version: PROTOCOL_VERSION,
                }
            } else {
                Response::Err(LTreeError::Remote {
                    context: format!(
                        "protocol version mismatch: client speaks {version}, server speaks {PROTOCOL_VERSION}"
                    ),
                })
            }
        }
        Request::Len => Response::Count(read_lock(scheme).len() as u64),
        Request::LiveLen => Response::Count(read_lock(scheme).live_len() as u64),
        Request::LabelSpaceBits => Response::Bits(read_lock(scheme).label_space_bits()),
        Request::MemoryBytes => Response::Count(read_lock(scheme).memory_bytes() as u64),
        Request::BulkBuild(n) => ok_or_err(write_lock(scheme).bulk_build(n as usize), |hs| {
            Response::Handles(hs.into_iter().map(|h| h.0).collect())
        }),
        Request::InsertFirst => {
            ok_or_err(write_lock(scheme).insert_first(), |h| Response::Handle(h.0))
        }
        Request::InsertAfter(h) => ok_or_err(write_lock(scheme).insert_after(LeafHandle(h)), |h| {
            Response::Handle(h.0)
        }),
        Request::InsertBefore(h) => {
            ok_or_err(write_lock(scheme).insert_before(LeafHandle(h)), |h| {
                Response::Handle(h.0)
            })
        }
        Request::Delete(h) => ok_or_err(write_lock(scheme).delete(LeafHandle(h)), |()| {
            Response::Unit
        }),
        Request::Splice(op) => {
            let op = match op {
                WireSplice::InsertAfter { anchor, count } => Splice::InsertAfter {
                    anchor: LeafHandle(anchor),
                    count: count as usize,
                },
                WireSplice::DeleteRun { first, count } => Splice::DeleteRun {
                    first: LeafHandle(first),
                    count: count as usize,
                },
            };
            ok_or_err(write_lock(scheme).splice(op), |r| match r {
                ltree_core::SpliceResult::Inserted(hs) => {
                    Response::Handles(hs.into_iter().map(|h| h.0).collect())
                }
                ltree_core::SpliceResult::Deleted(n) => Response::Count(n as u64),
            })
        }
        Request::Page { from, limit } => {
            let guard = read_lock(scheme);
            page(&**guard, from, limit)
        }
        Request::Stats => Response::Stats(read_lock(scheme).scheme_stats()),
        Request::ResetStats => {
            write_lock(scheme).reset_scheme_stats();
            Response::Unit
        }
        Request::StatsBreakdown => Response::Breakdown(read_lock(scheme).stats_breakdown()),
        Request::Metrics => Response::Metrics(full_metrics(metrics, &rl)),
    }
}

/// A fleet of [`LabelServer`]s plus the spec that deploys over them —
/// the one-call version of the "start every shard's host by hand"
/// recipe. [`launch`](Self::launch) binds `n` ephemeral-port servers,
/// each hosting a fresh registry-built `inner` scheme;
/// [`spec`](Self::spec) hands back the ready-made
/// `sharded(n,remote(addr1|addr2|…))` spec string. The `remote` factory
/// rotates through a `|`-separated address list per build, so the
/// sharded store's `n` segments land on the `n` servers one-to-one.
///
/// Servers shut down (gracefully, joining their threads) when the group
/// drops — after any clients built from the spec.
///
/// ```
/// use ltree_core::registry::SchemeRegistry;
/// use ltree_core::OrderedLabelingMut;
/// use ltree_remote::ServerGroup;
///
/// let mut reg = SchemeRegistry::with_builtin();
/// ltree_sharded::register(&mut reg);
/// ltree_remote::register(&mut reg);
///
/// let group = ServerGroup::launch(2, "ltree(4,2)", &reg).unwrap();
/// // e.g. "sharded(2,remote(127.0.0.1:PORT_A|127.0.0.1:PORT_B))"
/// let mut scheme = reg.build(&group.spec()).unwrap();
/// assert_eq!(scheme.bulk_build(10).unwrap().len(), 10);
/// // Each segment landed on its own server: connect to the hosts
/// // directly and find the 10 items split across them.
/// use ltree_core::OrderedLabeling;
/// let per_host: Vec<usize> = group
///     .addrs()
///     .iter()
///     .map(|a| ltree_remote::RemoteScheme::connect(a).unwrap().live_len())
///     .collect();
/// assert_eq!(per_host.iter().sum::<usize>(), 10);
/// assert!(per_host.iter().all(|&n| n > 0), "{per_host:?}");
/// ```
pub struct ServerGroup {
    servers: Vec<LabelServer>,
}

impl ServerGroup {
    /// Bind `n` servers on OS-chosen ports (`127.0.0.1:0`), each
    /// hosting a fresh `inner` scheme built against `reg` with the
    /// default [`SchemeConfig`].
    pub fn launch(n: usize, inner: &str, reg: &SchemeRegistry) -> Result<ServerGroup> {
        Self::launch_with(n, inner, reg, &SchemeConfig::default())
    }

    /// [`launch`](Self::launch) with an explicit config for the inner
    /// scheme builds.
    pub fn launch_with(
        n: usize,
        inner: &str,
        reg: &SchemeRegistry,
        cfg: &SchemeConfig,
    ) -> Result<ServerGroup> {
        if n == 0 {
            return Err(LTreeError::InvalidSpec {
                spec: "ServerGroup".into(),
                reason: "a server group needs at least one server",
            });
        }
        let mut servers = Vec::with_capacity(n);
        for _ in 0..n {
            servers.push(LabelServer::bind(
                "127.0.0.1:0",
                reg.build_with(inner, cfg)?,
            )?);
        }
        Ok(ServerGroup { servers })
    }

    /// The servers, in launch order (index `i` serves segment `i` of a
    /// scheme built from [`spec`](Self::spec)).
    pub fn servers(&self) -> &[LabelServer] {
        &self.servers
    }

    /// The listening addresses, in launch order.
    pub fn addrs(&self) -> Vec<String> {
        self.servers
            .iter()
            .map(|s| s.local_addr().to_string())
            .collect()
    }

    /// The `|`-separated address list the `remote` spec consumes.
    pub fn addr_list(&self) -> String {
        self.addrs().join("|")
    }

    /// The deployment spec: `sharded(n,remote(addr1|…|addrN))`.
    pub fn spec(&self) -> String {
        format!(
            "sharded({},remote({}))",
            self.servers.len(),
            self.addr_list()
        )
    }

    /// [`spec`](Self::spec) with extra client options appended to the
    /// `remote` inner spec, e.g. `spec_with("conns=4,retries=2")` →
    /// `sharded(n,remote(addr1|…,conns=4,retries=2))`.
    pub fn spec_with(&self, options: &str) -> String {
        format!(
            "sharded({},remote({},{options}))",
            self.servers.len(),
            self.addr_list()
        )
    }
}

/// Collect up to `limit` `(handle, label)` pairs in list order. A `from`
/// handle the scheme rejects produces that error, so the client's
/// `label_of` keeps exact error semantics.
fn page(s: &dyn DynScheme, from: Option<u64>, limit: u32) -> Response {
    let limit = limit.clamp(1, MAX_PAGE_ITEMS) as usize;
    let mut cursor = match from {
        None => Cursor::new(s),
        Some(h) => {
            if let Err(e) = s.label_of(LeafHandle(h)) {
                return Response::Err(e);
            }
            Cursor::starting_at(s, LeafHandle(h))
        }
    };
    let mut items = Vec::with_capacity(limit.min(1024));
    while items.len() < limit {
        let Some(h) = cursor.next() else { break };
        match s.label_of(h) {
            Ok(l) => items.push((h.0, l)),
            Err(e) => return Response::Err(e),
        }
    }
    Response::Page {
        at_end: cursor.peek().is_none(),
        items,
    }
}
