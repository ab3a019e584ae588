//! A connection whose client hung up releases its server-side socket,
//! thread and metric series. The descriptor count comes from
//! `/proc/self/fd`, so the test is Linux-only; it lives in its own test
//! binary because it measures the whole process's descriptors, which
//! other tests running in parallel threads would disturb.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use ltree_core::metrics::MetricValue;
use ltree_core::{Instrumented, LTree, Params};
use ltree_remote::{LabelServer, RemoteScheme};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn active_conns(server: &LabelServer) -> i64 {
    server
        .metrics()
        .iter()
        .find_map(|m| match m.value {
            MetricValue::Gauge(v) if m.name == "net/active-conns" => Some(v),
            _ => None,
        })
        .expect("the server reports net/active-conns")
}

#[test]
fn closed_connections_release_their_sockets_and_threads() {
    const CYCLES: usize = 300;
    let server = LabelServer::bind(
        "127.0.0.1:0",
        Box::new(LTree::new(Params::new(4, 2).unwrap())),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let before = open_fds();
    for _ in 0..CYCLES {
        drop(RemoteScheme::connect(&addr).unwrap());
    }
    // Wait until the server has seen every hang-up.
    let deadline = Instant::now() + Duration::from_secs(30);
    while active_conns(&server) != 0 {
        assert!(
            Instant::now() < deadline,
            "{} connections still active",
            active_conns(&server)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // The next accept releases every finished connection.
    let client = RemoteScheme::connect(&addr).unwrap();
    let grown = open_fds().saturating_sub(before);
    assert!(
        grown <= 10,
        "{CYCLES} closed connections left {grown} more descriptors open"
    );
    // Their series are gone too, folded into the closed-connection
    // totals: the live connection's three and the three totals remain,
    // and every round trip is counted once.
    let metrics = server.metrics();
    let count = |name: &str| match metrics.iter().find(|m| m.name == name) {
        Some(m) => match m.value {
            MetricValue::Counter(v) => v,
            ref other => panic!("{name}: expected a counter, got {other:?}"),
        },
        None => 0,
    };
    let series: Vec<&str> = metrics
        .iter()
        .map(|m| m.name.as_str())
        .filter(|n| n.starts_with("net/conn") || n.starts_with("net/closed-conns/"))
        .collect();
    assert!(
        series.len() <= 6,
        "{CYCLES} closed connections left {} connection series",
        series.len()
    );
    let live_round_trips: u64 = series
        .iter()
        .filter(|n| n.starts_with("net/conn") && n.ends_with("/round-trips"))
        .map(|n| count(n))
        .sum();
    assert_eq!(
        live_round_trips + count("net/closed-conns/round-trips"),
        count("net/requests"),
        "live plus closed round trips are every request"
    );
    drop(client);
}
