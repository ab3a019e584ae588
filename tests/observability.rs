//! End-to-end observability acceptance: a live port-0 [`LabelServer`]
//! hosting `traced(durable(ltree(4,2)))` answers the wire `Metrics`
//! request with a snapshot that agrees **counter-for-counter** with the
//! in-process registry — including nonzero fsync-duration and per-op
//! latency histograms — and the snapshot renders as Prometheus text.
//!
//! The scrape travels over a real TCP connection (client →
//! `Request::Metrics` frame → server → `Response::Metrics` frame), so
//! the whole codec path for histogram frames is exercised too.

use ltree::prelude::*;
use ltree_core::metrics::{Metric, MetricValue};

fn hist_count(ms: &[Metric], name: &str) -> u64 {
    match &ms
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("missing metric {name}"))
        .value
    {
        MetricValue::Histogram(h) => h.count,
        other => panic!("{name} should be a histogram, got {other:?}"),
    }
}

fn counter(ms: &[Metric], name: &str) -> u64 {
    match &ms
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("missing metric {name}"))
        .value
    {
        MetricValue::Counter(v) => *v,
        other => panic!("{name} should be a counter, got {other:?}"),
    }
}

#[test]
fn tcp_metrics_scrape_agrees_with_the_in_process_registry() {
    let scheme = default_registry()
        .build("traced(durable(ltree(4,2)))")
        .unwrap();
    let server = LabelServer::bind("127.0.0.1:0", scheme).unwrap();
    let mut client = RemoteScheme::connect(&server.local_addr().to_string()).unwrap();

    // A workload touching every phase: bulk load, point ops, a batch
    // splice, a delete run, and reads.
    let hs = client.bulk_build(64).unwrap();
    let mid = client.insert_after(hs[10]).unwrap();
    client.insert_before(hs[20]).unwrap();
    client.delete(mid).unwrap();
    let batch = client.insert_many_after(hs[30], 25).unwrap();
    client.delete_run(batch[0], 10).unwrap();
    client.label_of(hs[0]).unwrap();

    // Scrape over TCP *first*: the scrape's own apply/encode samples are
    // recorded after its response frame is built, so the in-process
    // snapshot taken afterwards can only run ahead on `net/` series —
    // never the other way around.
    let scraped = client.metrics();
    let local = server.metrics();

    // Scheme-owned series (`obs/…`, `wal/…`, `audit/…` — histograms and
    // counters alike) agree counter-for-counter: nothing touched the
    // scheme between the two snapshots.
    let scheme_owned = |ms: &[Metric]| -> Vec<Metric> {
        ms.iter()
            .filter(|m| {
                ["obs/", "wal/", "audit/"]
                    .iter()
                    .any(|p| m.name.starts_with(p))
            })
            .cloned()
            .collect()
    };
    assert_eq!(
        scheme_owned(&scraped),
        scheme_owned(&local),
        "wire scrape must mirror the in-process registry exactly"
    );

    // The histograms the acceptance criteria name, all nonzero, and the
    // log's counters beside them.
    assert!(hist_count(&scraped, "wal/fsync-duration") > 0, "fsyncs ran");
    assert_eq!(
        counter(&scraped, "wal/appends"),
        6,
        "one record per mutation"
    );
    assert_eq!(
        counter(&scraped, "wal/fsyncs"),
        hist_count(&scraped, "wal/fsync-duration")
    );
    assert_eq!(hist_count(&scraped, "obs/op/bulk_build"), 1);
    assert_eq!(hist_count(&scraped, "obs/op/insert_after"), 1);
    assert_eq!(hist_count(&scraped, "obs/op/insert_before"), 1);
    assert_eq!(hist_count(&scraped, "obs/op/delete"), 1);
    // Batch edits travel as typed `Splice` frames and land on the
    // scheme's `splice` entry point, so they record under `obs/op/splice`.
    assert_eq!(hist_count(&scraped, "obs/op/splice"), 2);
    assert!(hist_count(&scraped, "obs/op/label_of") >= 1);

    // Server-side series ride along: request counting and per-request
    // phase histograms are present and nonzero in the scrape.
    assert!(counter(&scraped, "net/requests") >= 8);
    // The connection's own counters: the in-process read can only run
    // ahead of the scrape (it may also count the scrape's request).
    let conn_trips = counter(&local, "net/conn0/round-trips");
    assert!(counter(&scraped, "net/conn0/round-trips") <= conn_trips);
    assert!(
        conn_trips >= 8,
        "handshake and the 7 calls before the scrape"
    );
    for phase in ["decode", "lock-wait", "apply", "encode"] {
        assert!(
            hist_count(&scraped, &format!("net/phase/{phase}")) > 0,
            "net/phase/{phase} must have samples"
        );
    }

    // The scrape is name-sorted (the wire contract for stable output).
    let names: Vec<&str> = scraped.iter().map(|m| m.name.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);

    // And it renders as Prometheus exposition text.
    let text = render_prometheus(&scraped);
    assert!(text.contains("ltree_net_requests_total"));
    assert!(text.contains("ltree_wal_fsync_duration"));
    assert!(text.contains("quantile=\"0.99\""));
}

/// The ordering contract (deterministic, name-sorted) holds at every
/// collection point in the stack, and the per-segment `seg/<i>/…`
/// series reach the outermost snapshot — across a wrapper and across
/// the wire — one set per segment of the sharded layer.
#[test]
fn stats_breakdowns_are_name_sorted_everywhere() {
    for (spec, segments) in [
        ("checked(ltree(4,2))", 0),
        ("sharded(4,ltree(4,2))", 4),
        ("durable(ltree(4,2))", 0),
        ("served(traced(ltree(4,2)))", 0),
        ("traced(durable(gap))", 0),
        ("checked(sharded(3,ltree(4,2)))", 3),
        ("served(sharded(2,ltree(4,2)))", 2),
    ] {
        let mut s = default_registry().build(spec).unwrap();
        let hs = s.bulk_build(40).unwrap();
        s.insert_after(hs[3]).unwrap();
        s.delete(hs[7]).unwrap();
        let metrics = s.metrics();
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "{spec}: metrics must be name-sorted");
        let segs: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| n.starts_with("seg/"))
            .collect();
        assert_eq!(segs.len(), 5 * segments, "{spec}: {segs:?}");
        if segments > 0 {
            assert_eq!(counter(&metrics, "seg/0/inserts"), 1, "{spec}");
            assert_eq!(counter(&metrics, "seg/0/deletes"), 1, "{spec}");
        }
    }
}

/// `sharded(…,traced(…))` reports one merged `obs/op/*` family spanning
/// all segments instead of per-segment duplicates.
#[test]
fn sharded_merges_traced_metrics_across_segments() {
    let mut s = default_registry()
        .build("sharded(4,traced(ltree(4,2)))")
        .unwrap();
    let hs = s.bulk_build(40).unwrap();
    s.insert_after(hs[5]).unwrap();
    s.insert_after(hs[35]).unwrap();
    let ms = s.metrics();
    let bulk: Vec<&Metric> = ms
        .iter()
        .filter(|m| m.name == "obs/op/bulk_build")
        .collect();
    assert_eq!(bulk.len(), 1, "one merged series, not one per segment");
    match &bulk[0].value {
        MetricValue::Histogram(h) => assert_eq!(h.count, 4, "all four segments' builds merged"),
        other => panic!("expected a histogram, got {other:?}"),
    }
}

/// `sharded(…,served(…))` reports one merged client transport series
/// spanning every segment's connection, not one per segment.
#[test]
fn sharded_merges_served_transport_counters() {
    let mut s = default_registry()
        .build("sharded(2,served(ltree(4,2)))")
        .unwrap();
    let hs = s.bulk_build(20).unwrap();
    s.insert_after(hs[3]).unwrap();
    let ms = s.metrics();
    let trips: Vec<&Metric> = ms.iter().filter(|m| m.name == "net/round-trips").collect();
    assert_eq!(trips.len(), 1, "one merged series, not one per segment");
    // Per segment client: handshake, bulk build and its scrape; plus
    // the one insert.
    assert!(counter(&ms, "net/round-trips") >= 7, "{:?}", trips[0]);
    // The segment series stay the per-segment cost record: the insert
    // landed in segment 0.
    let segs: Vec<&str> = ms
        .iter()
        .map(|m| m.name.as_str())
        .filter(|n| n.starts_with("seg/") && n.ends_with("/inserts"))
        .collect();
    assert_eq!(segs, ["seg/0/inserts", "seg/1/inserts"]);
    assert_eq!(counter(&ms, "seg/0/inserts"), 1);
    assert_eq!(counter(&ms, "seg/1/inserts"), 0);
}

/// Σ `net/conn<i>/round-trips` over a scrape: every request the server
/// has answered, on any connection.
fn served_round_trips(ms: &[Metric]) -> u64 {
    ms.iter()
        .filter(|m| m.name.starts_with("net/conn") && m.name.ends_with("/round-trips"))
        .map(|m| match m.value {
            MetricValue::Counter(v) => v,
            ref other => panic!("{} should be a counter, got {other:?}", m.name),
        })
        .sum()
}

/// A server counts a request before it writes the reply. Otherwise a
/// client that holds its answer can scrape on another pooled connection
/// before the serving thread has counted, and the scrape comes up short
/// of the client's own round-trip count.
#[test]
fn a_scrape_counts_every_request_already_answered() {
    let server = LabelServer::bind(
        "127.0.0.1:0",
        default_registry().build("ltree(4,2)").unwrap(),
    )
    .unwrap();
    let policy = ClientPolicy {
        conns: 2,
        ..ClientPolicy::default()
    };
    let mut client = RemoteScheme::connect_with(&server.local_addr().to_string(), policy).unwrap();
    client.bulk_build(16).unwrap();
    for round in 0..500 {
        client.live_len();
        let answered = client.transport_stats().round_trips;
        let scraped = served_round_trips(&client.metrics());
        assert_eq!(
            scraped, answered,
            "round {round}: the scrape missed a request its client already holds the answer to"
        );
    }
}

/// `served(…)` reaches its server through the socket, like `remote(…)`:
/// every pooled connection is a served connection.
#[test]
fn served_connections_are_server_connections() {
    let s = default_registry()
        .build("served(ltree(4,2),conns=3)")
        .unwrap();
    let ms = s.metrics();
    match ms
        .iter()
        .find(|m| m.name == "net/active-conns")
        .map(|m| &m.value)
    {
        Some(MetricValue::Gauge(n)) => assert_eq!(*n, 3, "one per pooled connection"),
        other => panic!("net/active-conns should be a gauge, got {other:?}"),
    }
}
