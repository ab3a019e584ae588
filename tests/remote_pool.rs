//! Pool and policy coverage for the remote client:
//!
//! * K reader threads spread over >1 pooled connection (pinned via the
//!   server's per-connection `net/conn<i>` counters), exercising the
//!   server's shared-read `RwLock` path;
//! * fault injection: the server is killed and restarted mid-session on
//!   the *same state*, and a `ClientPolicy` with reconnect+retries
//!   carries the session across — with no stale cache reads;
//! * `remote(a|b|c)` rotation puts one segment on each server.
//!
//! Every server binds port 0 and plumbs the OS-chosen port back through
//! `LabelServer::local_addr()` — no fixed ports anywhere.

use ltree::prelude::*;
use ltree::remote::ClientPolicy;
use ltree::LTreeError;

fn ltree() -> Box<dyn DynScheme> {
    Scheme::build("ltree(4,2)").unwrap()
}

/// K reader threads over a `conns=4` client: the pool's rotating
/// checkout must spread them over several connections — observable in
/// the server's per-connection counters — so the server's `RwLock`
/// shared-reader path actually runs concurrently.
#[test]
fn pooled_readers_spread_across_connections() {
    let scheme = {
        let mut s = RemoteScheme::served_with(
            ltree(),
            ClientPolicy {
                conns: 4,
                ..ClientPolicy::default()
            },
        )
        .unwrap();
        s.bulk_build(500).unwrap();
        s
    };
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..50 {
                    assert_eq!(scheme.live_len(), 500);
                }
            });
        }
    });
    // Server-side view: count connections that carried real traffic
    // (more than the 1-trip handshake).
    let busy = scheme
        .server()
        .unwrap()
        .metrics()
        .iter()
        .filter(|m| {
            m.name.starts_with("net/conn")
                && m.name.ends_with("/round-trips")
                && matches!(m.value, ltree::MetricValue::Counter(v) if v > 1)
        })
        .count();
    assert!(
        busy > 1,
        "reads must spread across the pool, not pile on one connection ({busy} busy)"
    );
    // And the client-side aggregate saw every trip.
    assert!(scheme.transport_stats().round_trips >= 400);
}

/// Kill the server mid-session, restart it **on the same state and
/// port**, and keep using the same client: the policy reconnects and
/// retries reads transparently, the page cache is invalidated on
/// reconnect (a label cached before the crash must not be served after
/// it), and writes work again on the fresh connection.
#[test]
fn policy_reconnects_after_server_restart_without_stale_reads() {
    let server = LabelServer::bind("127.0.0.1:0", ltree()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = RemoteScheme::connect_with(
        &addr,
        ClientPolicy {
            conns: 2,
            retries: 3,
            reconnect: true,
            ..ClientPolicy::default()
        },
    )
    .unwrap();
    let hs = client.bulk_build(100).unwrap();
    // Read every label (fills the page cache — 100 items fit one page).
    let before: Vec<u128> = hs.iter().map(|&h| client.label_of(h).unwrap()).collect();

    // Kill the server, take the scheme back out, edit it while the
    // client cannot see it, and restart on the same port.
    let mut scheme = server.into_scheme().unwrap();
    scheme.delete(hs[50]).unwrap();
    let added = scheme
        .splice(Splice::InsertAfter {
            anchor: hs[10],
            count: 50,
        })
        .unwrap()
        .into_inserted();
    let server2 = LabelServer::bind(&addr, scheme).unwrap();
    assert_eq!(server2.local_addr().to_string(), addr);

    // The old sockets are dead: the next reads ride the reconnect path.
    assert_eq!(client.live_len(), 149, "reconnected read sees new state");
    // No stale cache reads: the surviving client and a brand-new one
    // agree on every label — including the ones the offline insert
    // relabeled, which the pre-crash cache remembers differently.
    let fresh = RemoteScheme::connect(&addr).unwrap();
    let after: Vec<Option<u128>> = hs.iter().map(|&h| client.label_of(h).ok()).collect();
    let fresh_view: Vec<Option<u128>> = hs.iter().map(|&h| fresh.label_of(h).ok()).collect();
    assert_eq!(after, fresh_view, "non-stale labels after reconnect");
    assert_ne!(
        before.iter().map(|&l| Some(l)).collect::<Vec<_>>(),
        after,
        "the offline edit must have moved labels, or this test proves nothing"
    );
    assert_eq!(
        client.label_of(added[20]).unwrap(),
        fresh.label_of(added[20]).unwrap()
    );
    assert!(
        client.transport_stats().reconnects >= 1,
        "the pool must report the reconnect(s): {:?}",
        client.transport_stats()
    );
    // Writes flow again through the re-established connection.
    let h = client.insert_after(hs[20]).unwrap();
    assert!(client.label_of(hs[20]).unwrap() < client.label_of(h).unwrap());
    assert_eq!(fresh.live_len(), 150);
}

/// The durable flavor of kill-and-restart: the server hosts a
/// `DurableScheme` over a real on-disk directory, is killed *without*
/// handing its in-memory scheme to the successor, and the replacement
/// recovers purely from the write-ahead log + snapshot via
/// [`LabelServer::recover_from_dir`]. Every operation the old server
/// acknowledged must be visible to the reconnected client, the
/// surviving client's caches must agree with a brand-new client even
/// though recovery re-derived every label (checkpoint + replay, not the
/// original incremental construction), and writes must flow again.
#[test]
fn policy_reconnects_after_recovery_from_wal_dir() {
    use ltree::remote::LabelServer;

    let dir = ltree::remote::scratch_dir("pool-recovery");
    let dopts = || DurableOptions {
        sync: SyncPolicy::Always,
        // Small enough that the session below checkpoints several
        // times, so recovery genuinely mixes snapshot and log replay.
        checkpoint_every: 8,
    };
    let server = LabelServer::recover_from_dir("127.0.0.1:0", ltree(), &dir, dopts()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = RemoteScheme::connect_with(
        &addr,
        ClientPolicy {
            conns: 2,
            retries: 3,
            reconnect: true,
            ..ClientPolicy::default()
        },
    )
    .unwrap();
    let hs = client.bulk_build(60).unwrap();
    let added = client.insert_many_after(hs[10], 12).unwrap();
    client.delete(hs[30]).unwrap();
    client.delete_run(hs[40], 5).unwrap();
    // Six more records push the log past checkpoint_every=8, so the
    // recovery below starts from a snapshot (bulk-built, evenly
    // relabeled) rather than replaying the session verbatim.
    for &h in hs.iter().take(6) {
        client.insert_after(h).unwrap();
    }
    // Fill the page cache with the pre-crash labels.
    let before: Vec<Option<u128>> = hs.iter().map(|&h| client.label_of(h).ok()).collect();
    let live_before = client.live_len();

    // Kill the server and throw its in-memory scheme away: the only
    // route back is the directory.
    drop(server);
    let server2 = LabelServer::recover_from_dir(&addr, ltree(), &dir, dopts()).unwrap();
    assert_eq!(server2.local_addr().to_string(), addr);

    // Every acknowledged op survived.
    assert_eq!(client.live_len(), live_before, "recovered acked state");
    // The surviving client and a fresh one agree on every label — the
    // pre-crash cache must not leak through the reconnect, and recovery
    // rebuilt labels from a snapshot, so stale entries would differ.
    let fresh = RemoteScheme::connect(&addr).unwrap();
    let after: Vec<Option<u128>> = hs.iter().map(|&h| client.label_of(h).ok()).collect();
    let fresh_view: Vec<Option<u128>> = hs.iter().map(|&h| fresh.label_of(h).ok()).collect();
    assert_eq!(after, fresh_view, "non-stale labels after recovery");
    assert_ne!(
        before, after,
        "recovery relabeled (snapshot bulk-build + replay), or this proves nothing"
    );
    // Handle identity survived recovery: deleted stays deleted, the
    // splice's handles still resolve, and order is intact.
    assert!(client.label_of(hs[30]).is_err());
    assert_eq!(
        client.label_of(added[3]).unwrap(),
        fresh.label_of(added[3]).unwrap()
    );
    assert!(client.transport_stats().reconnects >= 1);
    // Writes flow again, durably: they land in the recovered WAL.
    let h = client.insert_after(hs[20]).unwrap();
    assert!(client.label_of(hs[20]).unwrap() < client.label_of(h).unwrap());
    assert_eq!(fresh.live_len(), live_before + 1);
    drop(client);
    drop(fresh);
    drop(server2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Without a reconnect policy, the first failure is terminal — the old
/// single-connection behavior, preserved as the default.
#[test]
fn default_policy_stays_fail_fast() {
    let server = LabelServer::bind("127.0.0.1:0", ltree()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = RemoteScheme::connect(&addr).unwrap();
    client.bulk_build(10).unwrap();
    let scheme = server.into_scheme().unwrap();
    let _server2 = LabelServer::bind(&addr, scheme).unwrap();
    // The server is back, but the default policy never redials.
    assert!(matches!(
        client.insert_first(),
        Err(LTreeError::Remote { .. })
    ));
    assert_eq!(client.transport_stats().reconnects, 0);
}

/// `remote(a|b|c)` rotation: consecutive builds of the same address
/// list land on consecutive servers, which is what lets a `ServerGroup`
/// hand out one spec string for a one-server-per-segment deployment.
#[test]
fn server_group_spreads_segments_one_per_server() {
    let group = ltree::remote::ServerGroup::launch(3, "ltree(4,2)", &default_registry()).unwrap();
    let mut scheme = default_registry().build(&group.spec()).unwrap();
    let hs = scheme.bulk_build(90).unwrap();
    assert_eq!(scheme.cursor().count(), 90);
    // Every server holds a non-empty slice of the list.
    let per_host: Vec<usize> = group
        .addrs()
        .iter()
        .map(|a| RemoteScheme::connect(a).unwrap().live_len())
        .collect();
    assert_eq!(per_host.iter().sum::<usize>(), 90, "{per_host:?}");
    assert!(per_host.iter().all(|&n| n > 0), "{per_host:?}");
    // Edits route through the segment directory to the right host.
    scheme.delete(hs[45]).unwrap();
    assert_eq!(scheme.live_len(), 89);
    // Options ride along in the deployment spec (fresh group — the
    // first one's stores are populated).
    let group2 = ltree::remote::ServerGroup::launch(2, "gap", &default_registry()).unwrap();
    let mut pooled = default_registry()
        .build(&group2.spec_with("conns=2,retries=1"))
        .unwrap();
    assert_eq!(pooled.bulk_build(12).unwrap().len(), 12);
}
