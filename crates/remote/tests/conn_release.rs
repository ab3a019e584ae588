//! A connection whose client hung up releases its server-side socket and
//! thread. The count comes from `/proc/self/fd`, so the test is
//! Linux-only; it lives in its own test binary because it measures the
//! whole process's descriptors, which other tests running in parallel
//! threads would disturb.

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
    drop(client);
}
