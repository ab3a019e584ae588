//! # `ltree-remote` — a networked label store speaking splices
//!
//! The trait split (`OrderedLabeling*`) made a labeling scheme a
//! *contract*; the sharded store made it *partitionable*; this crate
//! makes it *remote*: label state lives behind a wire protocol, and the
//! paper's batch splices amortize **round trips** the same way they
//! amortize relabelings. The ancestry-labeling line of related work
//! (Fraigniaud & Korman; Dahlgaard et al.) is about keeping labels
//! compact precisely so they are cheap to ship across a boundary — here
//! the boundary is a connection.
//!
//! The crate is layered so the wire format, the connection model, and
//! the scheme logic vary independently:
//!
//! * [`wire`] — a dependency-free length-prefixed frame codec covering
//!   the full trait surface (point writes, typed splices, counts,
//!   chunked `(handle, label)` pages — the one order read — stats, and
//!   a `Metrics` scrape frame carrying counter/gauge/histogram
//!   snapshots), with explicit protocol-version and error frames;
//! * [`transport`] — one framed request/response channel over a
//!   socket, [`TcpTransport`];
//! * [`pool`] — the connection model: an [`Endpoint`] is the
//!   `host:port` transports dial; a
//!   [`ConnectionPool`] owns `conns` of them so concurrent
//!   readers spread over connections and hit the server's shared read
//!   lock in parallel, while writes serialize through one pipelined
//!   connection; a declarative [`ClientPolicy`]
//!   (`{conns, retries, reconnect, op_timeout}`) drives
//!   automatic reconnect-and-retry on transport errors, with mandatory
//!   page-cache invalidation on every reconnect;
//! * [`LabelServer`] — a `std::net` TCP server hosting any
//!   registry-built scheme behind an `RwLock` (shared reads, exclusive
//!   writes), thread-per-connection with request pipelining, graceful
//!   shutdown, a finished connection's socket and thread released at
//!   the next accept, per-connection op/byte counters and per-request phase
//!   latency histograms (decode / lock-wait / apply / encode) answered
//!   live through the wire `Metrics` request;
//!   [`ServerGroup`] launches *n* of them and hands back the
//!   `sharded(n,remote(…))` deployment spec in one call;
//! * [`RemoteScheme`] — the client: the whole trait family over a pool,
//!   one frame per write call (a whole splice is one frame), pipelined
//!   splice plans, page-cached reads, and transport counters in
//!   `metrics()`.
//!
//! The crate also owns the **durability layer** (see [`durable`] and
//! [`wal`]): [`DurableScheme`] wraps any scheme with a write-ahead log
//! of wire-encoded splice frames (fsynced before the mutation returns)
//! plus snapshot checkpoints, and recovers snapshot + log tail after a
//! crash — [`LabelServer::recover_from_dir`] is the restart-from-disk
//! server constructor.
//!
//! ## Registry specs
//!
//! [`register`] adds three composite specs (grammar in
//! [`ltree_core::registry`]; the same table lives in ARCHITECTURE.md):
//!
//! | spec | meaning |
//! |------|---------|
//! | `remote(addrs[,options])` | connect to already-running [`LabelServer`]s; `addrs` is `host:port` or a `\|`-separated list (each build connects to the next entry, round-robin) |
//! | `served(inner[,options])` | bind a server hosting `inner` on `127.0.0.1:0` in this process, connect to it over TCP |
//! | `durable(inner[,dir=PATH][,sync=always\|never][,checkpoint_every=N])` | write-ahead logged, snapshot-checkpointed wrapper; recovers from `dir` when it holds state, uses a self-cleaning scratch dir when `dir=` is omitted |
//!
//! Options are `key=value` pairs / bare flags mapping onto
//! [`ClientPolicy`]: `conns=N`, `retries=N`, `reconnect`,
//! `timeout-ms=N`. Defaults reproduce the plain
//! single-connection client, so every pre-existing spec parses
//! unchanged.
//!
//! `served` is the zero-infrastructure form: tests, benches and CI get
//! a real client/server pair (real frames through the real codec, over
//! a real socket) from a plain spec string. And because it is just
//! another registry scheme, it composes: `sharded(4,served(ltree(4,2)))`
//! routes each segment's splices to its own server through the segment
//! directory, unchanged — and `sharded(4,remote(a\|b\|c\|d,conns=2))`
//! is the same deployment over real processes, one spec string from
//! [`ServerGroup::spec_with`].
//!
//! ```
//! use ltree_core::registry::SchemeRegistry;
//! use ltree_core::{OrderedLabeling, OrderedLabelingMut};
//!
//! let mut reg = SchemeRegistry::with_builtin();
//! ltree_remote::register(&mut reg);
//! let mut scheme = reg.build("served(ltree(4,2),conns=2,reconnect)").unwrap();
//! let handles = scheme.bulk_build(10).unwrap();
//! assert!(scheme.label_of(handles[3]).unwrap() < scheme.label_of(handles[4]).unwrap());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod wire;

pub mod client;
pub mod durable;
pub mod pool;
pub mod server;
pub mod transport;
pub mod wal;

pub use client::{RemoteScheme, TransportStats};
pub use durable::{DurableOptions, DurableScheme, SyncPolicy};
pub use pool::{ClientPolicy, ConnectionPool, Endpoint};
pub use server::{LabelServer, ServerGroup};
pub use transport::TcpTransport;
pub use wal::{scratch_dir, DurableDir, FsDir, SimDir};
pub use wire::PROTOCOL_VERSION;

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use ltree_core::registry::{SchemeRegistry, SpecArg, SpecOptions};
use ltree_core::LTreeError;

/// Register the `remote(host:port[,options])`,
/// `served(inner[,options])` and `durable(inner[,options])` composite
/// specs.
///
/// * `remote(addrs)` connects to an external [`LabelServer`]; the build
///   fails with [`LTreeError::Remote`] when nothing listens there.
///   `addrs` is one `host:port` or a `|`-separated list: consecutive
///   builds of the same list rotate through it, one address per build
///   (so `sharded(n,remote(a|b|…))` — the [`ServerGroup`] deployment
///   spec — puts each segment on its own server). Reconnects always
///   redial the address the client was built with: the listed servers
///   are *not* replicas of each other.
/// * `served(inner)` builds `inner` against the same registry
///   (recursively — any spec works), hosts it on a [`LabelServer`] bound
///   on `127.0.0.1:0` in this process, and hands back a
///   [`RemoteScheme`] connected to it over TCP.
///
/// Both accept trailing [`ClientPolicy`] options — `conns=N`,
/// `retries=N`, `reconnect`, `timeout-ms=N` — e.g.
/// `remote(127.0.0.1:7878,conns=4,retries=2,reconnect)`. Unknown or
/// malformed options are typed [`LTreeError::InvalidOption`] errors
/// naming the key.
///
/// * `durable(inner)` wraps `inner` in a [`DurableScheme`]: every
///   mutation is appended to a write-ahead log (and fsynced, unless
///   `sync=never`) before it is acknowledged, snapshots checkpoint the
///   log every `checkpoint_every=N` logged records (default 1024), and
///   reopening the same `dir=PATH` recovers snapshot + log tail. With
///   no `dir=` the store lives in a unique scratch directory removed
///   when the scheme is dropped — durable across `checkpoint`/reopen
///   within the process, perfect for tests and sweeps.
pub fn register(reg: &mut SchemeRegistry) {
    reg.register_composite(
        "durable",
        "write-ahead logged, snapshot-checkpointed wrapper; args: (inner-spec[,dir=PATH,sync=always|never,checkpoint_every=N])",
        |reg, cfg, args| {
            let Some((SpecArg::Spec(inner), rest)) = args.split_first() else {
                return Err(LTreeError::InvalidSpec {
                    spec: "durable".into(),
                    reason: "expected an inner scheme spec first, e.g. durable(ltree(4,2),dir=/path/to/store)",
                });
            };
            let mut opts = SpecOptions::parse("durable", rest)?;
            let dir = opts.take_str("dir")?;
            let sync = match opts.take_str("sync")?.as_deref() {
                None | Some("always") => SyncPolicy::Always,
                Some("never") => SyncPolicy::Never,
                Some(_) => {
                    return Err(LTreeError::InvalidOption {
                        spec: "durable".into(),
                        key: "sync".into(),
                        reason: "expected `always` or `never`",
                    })
                }
            };
            let checkpoint_every = match opts.take_u64("checkpoint_every")? {
                Some(0) => {
                    return Err(LTreeError::InvalidOption {
                        spec: "durable".into(),
                        key: "checkpoint_every".into(),
                        reason: "must be at least 1 (records between checkpoints)",
                    })
                }
                Some(n) => n,
                None => DurableOptions::default().checkpoint_every,
            };
            opts.finish()?;
            let inner = reg.build_with(inner, cfg)?;
            let dopts = DurableOptions {
                sync,
                checkpoint_every,
            };
            let scheme = match dir {
                Some(path) => {
                    DurableScheme::open_path(inner, std::path::Path::new(&path), dopts)?
                }
                None => DurableScheme::open_scratch(inner, dopts)?,
            };
            Ok(Box::new(scheme))
        },
    );
    reg.register_composite(
        "served",
        "remote store on an in-process server, dialed over TCP; args: (inner-spec[,conns=N,retries=N,reconnect,timeout-ms=N])",
        |reg, cfg, args| {
            let Some((SpecArg::Spec(inner), rest)) = args.split_first() else {
                return Err(LTreeError::InvalidSpec {
                    spec: "served".into(),
                    reason: "expected an inner scheme spec first, e.g. served(ltree(4,2))",
                });
            };
            let mut opts = SpecOptions::parse("served", rest)?;
            let policy = ClientPolicy::from_options(&mut opts)?;
            opts.finish()?;
            let scheme = reg.build_with(inner, cfg)?;
            Ok(Box::new(RemoteScheme::served_with(scheme, policy)?))
        },
    );
    // Consecutive builds of the same address list rotate their primary
    // address, keyed per list, so one spec string fans a sharded store's
    // segments out over a ServerGroup one-to-one.
    let rotation: Arc<Mutex<HashMap<String, usize>>> = Arc::new(Mutex::new(HashMap::new()));
    reg.register_composite(
        "remote",
        "client for external label server(s); args: (host:port|host:port…[,conns=N,retries=N,reconnect,timeout-ms=N])",
        move |_, _, args| {
            let Some((SpecArg::Spec(addrs), rest)) = args.split_first() else {
                return Err(LTreeError::InvalidSpec {
                    spec: "remote".into(),
                    reason: "expected a host:port address (or a |-separated list) first, \
                             e.g. remote(127.0.0.1:7878,conns=4)",
                });
            };
            let mut opts = SpecOptions::parse("remote", rest)?;
            let policy = ClientPolicy::from_options(&mut opts)?;
            opts.finish()?;
            let list: Vec<String> = addrs.split('|').map(|a| a.trim().to_owned()).collect();
            let primary = if list.len() > 1 {
                let mut seen = rotation.lock().unwrap_or_else(|p| p.into_inner());
                let next = seen.entry(addrs.clone()).or_insert(0);
                let p = *next;
                *next += 1;
                p
            } else {
                0
            };
            let endpoint = Endpoint::tcp_rotated(list, primary)?;
            Ok(Box::new(RemoteScheme::from_endpoint(endpoint, policy, None)?))
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltree_core::registry::SchemeRegistry;
    use ltree_core::{
        BatchLabeling, Instrumented, LTree, LTreeError, OrderedLabeling, OrderedLabelingMut,
        Params, Splice, SpliceResult,
    };

    fn ltree() -> Box<ltree_core::LTree> {
        Box::new(LTree::new(Params::new(4, 2).unwrap()))
    }

    fn served() -> RemoteScheme {
        RemoteScheme::served(ltree()).unwrap()
    }

    fn round_trips(s: &RemoteScheme) -> u64 {
        s.transport_stats().round_trips
    }

    #[test]
    fn point_ops_and_labels_match_a_local_scheme() {
        let mut remote = served();
        let mut local = LTree::new(Params::new(4, 2).unwrap());
        let rh = remote.bulk_build(16).unwrap();
        let lh = OrderedLabelingMut::bulk_build(&mut local, 16).unwrap();
        assert_eq!(remote.len(), OrderedLabeling::len(&local));
        // Same structure ⇒ identical labels, read through the wire.
        for (r, l) in rh.iter().zip(&lh) {
            assert_eq!(remote.label_of(*r).unwrap(), local.label_of(*l).unwrap());
        }
        let mid = remote.insert_after(rh[7]).unwrap();
        assert!(remote.label_of(rh[7]).unwrap() < remote.label_of(mid).unwrap());
        assert!(remote.label_of(mid).unwrap() < remote.label_of(rh[8]).unwrap());
        remote.delete(mid).unwrap();
        assert!(matches!(remote.delete(mid), Err(LTreeError::DeletedLeaf)));
        assert_eq!(remote.live_len(), 16);
        assert_eq!(remote.len(), 17, "tombstone still tracked");
    }

    #[test]
    fn cursor_pages_instead_of_tripping_per_item() {
        let mut s = served();
        s.bulk_build(1000).unwrap();
        let before = round_trips(&s);
        assert_eq!(s.cursor().count(), 1000);
        let walk_trips = round_trips(&s) - before;
        assert!(
            walk_trips <= 1000 / 256 + 2,
            "a full walk must page, not trip per item ({walk_trips} trips)"
        );
        // And the labels stream in strictly increasing order.
        let mut prev = None;
        for h in s.cursor() {
            let l = s.label_of(h).unwrap();
            if let Some(p) = prev {
                assert!(p < l);
            }
            prev = Some(l);
        }
    }

    #[test]
    fn batches_are_one_round_trip_each() {
        let mut s = served();
        let hs = s.bulk_build(8).unwrap();
        let before = round_trips(&s);
        let batch = s.insert_many_after(hs[3], 500).unwrap();
        assert_eq!(batch.len(), 500);
        assert_eq!(round_trips(&s) - before, 1, "one frame per batch");
        let before = round_trips(&s);
        let deleted = s.delete_run(batch[0], 200).unwrap();
        assert_eq!(deleted, 200);
        assert_eq!(round_trips(&s) - before, 1, "one frame per delete run");
    }

    #[test]
    fn pipelined_plans_pay_latency_once() {
        let mut s = served();
        let hs = s.bulk_build(10).unwrap();
        let before = round_trips(&s);
        let plan: Vec<Splice> = hs
            .iter()
            .map(|&h| Splice::InsertAfter {
                anchor: h,
                count: 3,
            })
            .collect();
        let results = s.pipeline_splices(&plan).unwrap();
        assert_eq!(results.len(), 10);
        for r in &results {
            assert!(matches!(r, SpliceResult::Inserted(v) if v.len() == 3));
        }
        assert_eq!(round_trips(&s) - before, 1, "whole plan, one round trip");
        assert_eq!(s.live_len(), 40);
    }

    #[test]
    fn pipelined_errors_keep_the_stream_in_sync() {
        let mut s = served();
        let hs = s.bulk_build(4).unwrap();
        let plan = vec![
            Splice::InsertAfter {
                anchor: hs[0],
                count: 2,
            },
            Splice::InsertAfter {
                anchor: hs[1],
                count: 0,
            }, // EmptyBatch
            Splice::InsertAfter {
                anchor: hs[2],
                count: 2,
            },
        ];
        assert!(matches!(
            s.pipeline_splices(&plan),
            Err(LTreeError::EmptyBatch)
        ));
        // The connection is still usable and the non-erroring splices
        // were applied (the SpliceBuilder prefix contract).
        assert_eq!(s.live_len(), 8);
        s.insert_after(hs[3]).unwrap();
    }

    fn counter(metrics: &[ltree_core::metrics::Metric], name: &str) -> u64 {
        match metrics.iter().find(|m| m.name == name).map(|m| &m.value) {
            Some(ltree_core::metrics::MetricValue::Counter(v)) => *v,
            other => panic!("{name}: expected a counter, got {other:?}"),
        }
    }

    #[test]
    fn stats_forward_and_metrics_carry_transport_counters() {
        let mut s = served();
        let hs = s.bulk_build(32).unwrap();
        s.reset_scheme_stats();
        s.insert_after(hs[5]).unwrap();
        let stats = s.scheme_stats();
        assert_eq!(stats.inserts, 1);
        assert!(stats.label_writes >= 1);
        let metrics = s.metrics();
        let net = |k: &str| counter(&metrics, k);
        assert_eq!(
            net("net/round-trips"),
            3,
            "insert, stats and the scrape itself"
        );
        assert!(net("net/bytes-out") > 0);
        assert!(net("net/bytes-in") > 0);
        // Reset zeroes the transport counters with the scheme counters.
        s.reset_scheme_stats();
        assert_eq!(s.transport_stats().round_trips, 0);
    }

    #[test]
    fn server_side_instrumentation_sees_connections() {
        let mut s = served();
        let hs = s.bulk_build(10).unwrap();
        s.insert_after(hs[4]).unwrap();
        let server = s.server().expect("served owns its server");
        // Host-side view: bulk loading is not an update in the paper's
        // model, so only the point insert counts.
        assert_eq!(server.scheme_stats().inserts, 1);
        assert!(counter(&server.metrics(), "net/conn0/round-trips") >= 2);
    }

    #[test]
    fn errors_cross_the_wire_typed() {
        let mut s = served();
        assert!(matches!(
            s.insert_after(ltree_core::LeafHandle(u64::MAX)),
            Err(LTreeError::UnknownHandle)
        ));
        assert!(matches!(
            s.label_of(ltree_core::LeafHandle(u64::MAX)),
            Err(LTreeError::UnknownHandle)
        ));
        let hs = s.bulk_build(4).unwrap();
        assert!(matches!(
            s.insert_many_after(hs[0], 0),
            Err(LTreeError::EmptyBatch)
        ));
        assert!(matches!(s.bulk_build(4), Err(LTreeError::NotEmpty)));
    }

    /// An insert whose `Handles` reply could not be framed is refused
    /// before it runs: `1 << 40` items would exhaust the server's memory,
    /// and one past the frame's capacity would be applied yet unanswered.
    #[test]
    fn oversized_inserts_are_refused_before_they_run() {
        use crate::wire::{Request, Response, WireSplice, MAX_REPLY_HANDLES};
        let server = LabelServer::bind("127.0.0.1:0", ltree()).unwrap();
        let pool = ConnectionPool::connect(
            Endpoint::tcp(&server.local_addr().to_string()).unwrap(),
            ClientPolicy::default(),
        )
        .unwrap();
        let live_len = || match pool.call_read(&Request::LiveLen).unwrap() {
            Response::Count(n) => n,
            other => panic!("expected a count, got {other:?}"),
        };
        for n in [1 << 40, MAX_REPLY_HANDLES + 1] {
            let refused = pool.call_write(&Request::BulkBuild(n));
            assert!(
                matches!(refused, Err(LTreeError::Remote { .. })),
                "{refused:?}"
            );
            assert_eq!(live_len(), 0, "a refused bulk build of {n} applied nothing");
        }
        let anchor = match pool.call_write(&Request::BulkBuild(4)).unwrap() {
            Response::Handles(hs) => hs[1],
            other => panic!("expected handles, got {other:?}"),
        };
        for count in [1 << 40, MAX_REPLY_HANDLES + 1] {
            let refused =
                pool.call_write(&Request::Splice(WireSplice::InsertAfter { anchor, count }));
            assert!(
                matches!(refused, Err(LTreeError::Remote { .. })),
                "{refused:?}"
            );
            assert_eq!(live_len(), 4, "a refused insert of {count} applied nothing");
        }
        // The connection still answers.
        assert!(matches!(
            pool.call_write(&Request::Splice(WireSplice::InsertAfter { anchor, count: 2 })),
            Ok(Response::Handles(hs)) if hs.len() == 2
        ));
    }

    /// The point-read frames protocol 3 retired (`Name`, `LabelOf`,
    /// `FirstInOrder`, `NextInOrder`: tags 2, 3, 6 and 7) and the
    /// `StatsBreakdown` request protocol 4 retired (tag 19) are answered
    /// with a typed error, and the connection stays in frame sync. No
    /// client can encode them any more, so they go out as raw frames.
    #[test]
    fn retired_point_read_frames_are_typed_errors_that_keep_frame_sync() {
        use crate::wire::{
            decode_response, encode_request, read_frame, write_frame, Request, Response,
        };
        let mut s = served();
        s.bulk_build(5).unwrap();
        let mut conn = std::net::TcpStream::connect(s.server().unwrap().local_addr()).unwrap();
        let mut exchange = |payload: &[u8]| -> Response {
            write_frame(&mut conn, payload).unwrap();
            decode_response(&read_frame(&mut conn).unwrap().unwrap()).unwrap()
        };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        assert!(matches!(
            exchange(&encode_request(&hello)),
            Response::Hello {
                version: PROTOCOL_VERSION
            }
        ));
        let handle = 1u64.to_le_bytes();
        let retired = [
            vec![2],
            [&[3], &handle[..]].concat(),
            vec![6],
            [&[7], &handle[..]].concat(),
            vec![19],
        ];
        for frame in retired {
            match exchange(&frame) {
                Response::Err(LTreeError::Remote { context }) => {
                    assert!(context.contains("bad request tag"), "{context}");
                }
                other => panic!("tag {}: expected a Remote error, got {other:?}", frame[0]),
            }
            assert_eq!(
                exchange(&encode_request(&Request::LiveLen)),
                Response::Count(5),
                "frame sync after tag {}",
                frame[0]
            );
        }
    }

    /// A client that speaks the previous protocol (v3, which still had
    /// the breakdown frames) is refused at the handshake with a typed
    /// error naming its version.
    #[test]
    fn an_older_protocol_hello_is_refused_with_a_typed_error() {
        use crate::wire::{
            decode_response, encode_request, read_frame, write_frame, Request, Response,
        };
        let server = LabelServer::bind("127.0.0.1:0", ltree()).unwrap();
        let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let hello = Request::Hello {
            version: PROTOCOL_VERSION - 1,
        };
        write_frame(&mut conn, &encode_request(&hello)).unwrap();
        match decode_response(&read_frame(&mut conn).unwrap().unwrap()).unwrap() {
            Response::Err(LTreeError::Remote { context }) => {
                assert!(context.contains("protocol version mismatch"), "{context}");
                assert!(
                    context.contains(&format!("client speaks {}", PROTOCOL_VERSION - 1)),
                    "{context}"
                );
            }
            other => panic!("expected a Remote error, got {other:?}"),
        }
    }

    #[test]
    fn connect_to_nothing_is_a_remote_error() {
        let mut reg = SchemeRegistry::with_builtin();
        register(&mut reg);
        // Reserve a port, then close it: nothing listens there.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        match reg.build(&format!("remote({addr})")) {
            Err(LTreeError::Remote { context }) => assert!(context.contains("connect")),
            Err(other) => panic!("expected a Remote error, got {other:?}"),
            Ok(_) => panic!("expected a Remote error, got a scheme"),
        }
    }

    #[test]
    fn registry_specs_build_and_reject_bad_shapes() {
        let mut reg = SchemeRegistry::with_builtin();
        register(&mut reg);
        let mut s = reg.build("served(ltree(4,2))").unwrap();
        assert_eq!(s.name(), "remote");
        assert_eq!(s.bulk_build(12).unwrap().len(), 12);
        // Policy options parse through the spec string.
        let mut s = reg
            .build("served(ltree(4,2),conns=3,retries=1,reconnect)")
            .unwrap();
        assert_eq!(s.bulk_build(4).unwrap().len(), 4);
        for bad in ["served", "served()", "served(4)"] {
            assert!(
                matches!(reg.build(bad), Err(LTreeError::InvalidSpec { .. })),
                "{bad} must be rejected"
            );
        }
        for bad in ["remote", "remote()", "remote(1,2)"] {
            assert!(
                matches!(reg.build(bad), Err(LTreeError::InvalidSpec { .. })),
                "{bad} must be rejected"
            );
        }
        // A second positional where an option belongs names the word;
        // unknown/malformed options name the key.
        for (bad, key) in [
            ("served(ltree,gap)", "gap"),
            ("served(ltree,bogus=1)", "bogus"),
            ("served(ltree,conns=many)", "conns"),
            ("served(ltree,conns=0)", "conns"),
            ("served(ltree,reconnect=1)", "reconnect"),
            ("served(ltree,coalesce)", "coalesce"),
        ] {
            match reg.build(bad) {
                Err(LTreeError::InvalidOption { key: k, .. }) => {
                    assert_eq!(k, key, "{bad}");
                }
                Err(other) => panic!("{bad}: expected InvalidOption, got {other:?}"),
                Ok(_) => panic!("{bad}: expected InvalidOption, got a scheme"),
            }
        }
        assert!(
            matches!(
                reg.build("served(nope)"),
                Err(LTreeError::UnknownScheme { .. })
            ),
            "inner spec must resolve"
        );
    }

    #[test]
    fn two_clients_share_one_server() {
        let mut a = served();
        let hs = a.bulk_build(8).unwrap();
        let addr = a.server().unwrap().local_addr().to_string();
        let b = RemoteScheme::connect(&addr).unwrap();
        // The second client reads state the first one wrote.
        assert_eq!(b.live_len(), 8);
        assert_eq!(
            b.label_of(hs[3]).unwrap(),
            a.label_of(hs[3]).unwrap(),
            "same handle, same label, either connection"
        );
    }

    #[test]
    fn shutdown_is_graceful_and_idempotent() {
        let mut s = served();
        s.bulk_build(4).unwrap();
        let addr = s.server().unwrap().local_addr();
        drop(s); // client socket closes, server joins all threads
                 // The port no longer accepts label traffic.
        assert!(RemoteScheme::connect(&addr.to_string()).is_err());
        // Explicit double-shutdown is fine.
        let mut server = LabelServer::bind("127.0.0.1:0", ltree()).unwrap();
        server.shutdown();
        server.shutdown();
    }
}
