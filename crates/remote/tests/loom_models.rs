//! Exhaustive interleaving models of the three concurrency protocols in
//! this crate, driven by `ltree_checked::interleave` (the workspace's
//! dependency-free stand-in for `loom` — see that module's docs for the
//! scope statement; the scheduled TSan CI lane covers weak memory).
//!
//! Each model extracts one protocol into an explicit state machine and
//! proves a claim over **every** schedule, not one lucky test ordering:
//!
//! 1. **Epoch-keyed cache** (`pool.rs::kill`/`epoch` +
//!    `client.rs::lock_cache`/`fetch_page`): a cache hit never serves
//!    data older than the last *detected* failover. The proof hinges on
//!    `fetch_page` sampling the epoch **before** the exchange and
//!    installing the page under that pre-call epoch; the seeded-bug
//!    variant samples at install time instead and the explorer exhibits
//!    the stale-read schedule.
//! 2. **Checkout rotation** (`pool.rs::checkout_read`): the rotating
//!    try-lock probe over all slots, falling back to a blocking lock on
//!    the start slot, completes every client, leaks no slot and cannot
//!    deadlock — including more clients than slots.
//! 3. **Two-pass shutdown** (`server.rs::shutdown` + `accept_loop`): a
//!    connection accepted concurrently with the first signaling pass may
//!    register *after* that pass ran; the second pass catches it. The
//!    seeded-bug variant drops the second pass and the explorer exhibits
//!    the lost-connection deadlock. The accept loop also reaps
//!    connections whose client hung up (`reap_finished`) in the same
//!    locked step that registers the next one; the model proves a reap
//!    only ever joins a finished thread and loses nothing.
//!
//! The models compile and run under plain `cargo test` with small
//! bounds; `RUSTFLAGS="--cfg loom" cargo test --release` widens them
//! (more rounds, more failover cycles, more contention).

use ltree_checked::interleave::{Explored, Explorer, Step, Thread, Violation};

// ---------------------------------------------------------------------
// Model 1: epoch-keyed client cache vs. pool failover.
// ---------------------------------------------------------------------

/// One linearized answer handed to a caller, stamped with enough of the
/// world to judge its freshness after the fact.
#[derive(Debug, Clone, Copy)]
struct Serve {
    from_cache: bool,
    /// Server generation the answer's data was produced by.
    data_gen: u64,
    /// Last failover generation *detected* (epoch-bumped) at serve time.
    detected_gen: u64,
}

/// Shared state of the cache model. `epoch` mirrors
/// `ConnectionPool::epoch`; `server_gen` is which server incarnation is
/// live; `conn_gen` is the incarnation the pooled connection talks to
/// (stale after a restart until a failed exchange kills + reconnects).
#[derive(Debug, Clone)]
struct CacheWorld {
    epoch: u64,
    server_gen: u64,
    conn_gen: u64,
    detected_gen: u64,
    /// The client page cache: `(install_epoch, data_gen)`.
    cache: Option<(u64, u64)>,
    serves: Vec<Serve>,
}

impl CacheWorld {
    fn new() -> Self {
        CacheWorld {
            epoch: 0,
            server_gen: 0,
            conn_gen: 0,
            detected_gen: 0,
            cache: None,
            serves: Vec::new(),
        }
    }

    /// A failed exchange: `ConnectionPool::kill` (epoch bump, Release in
    /// the real code) followed by reconnect to the live server.
    fn kill_and_reconnect(&mut self) {
        self.epoch += 1;
        self.detected_gen = self.server_gen;
        self.conn_gen = self.server_gen;
    }
}

/// Where a reader is inside `cached_label` → `fetch_page`.
#[derive(Debug, Clone, Copy)]
enum ReadPhase {
    /// `lock_cache`: validate the cache against the current epoch.
    Check,
    /// `fetch_page`: sample the epoch *before* the exchange.
    Sample,
    /// The exchange itself (may fail and retry after kill+reconnect).
    Exchange { pre: u64 },
    /// Install the fetched page into the cache.
    Install { pre: u64, data_gen: u64 },
}

/// A client performing `rounds` cached lookups. With `install_pre_epoch`
/// the page is installed under the epoch sampled before the exchange
/// (what `fetch_page` does); without it, under the epoch at install time
/// (the seeded bug).
#[derive(Debug, Clone)]
struct Reader {
    rounds: u32,
    phase: ReadPhase,
    install_pre_epoch: bool,
}

impl Reader {
    fn new(rounds: u32, install_pre_epoch: bool) -> Self {
        Reader {
            rounds,
            phase: ReadPhase::Check,
            install_pre_epoch,
        }
    }

    fn finish_round(&mut self) -> Step {
        self.rounds -= 1;
        self.phase = ReadPhase::Check;
        if self.rounds == 0 {
            Step::Done
        } else {
            Step::Ran
        }
    }
}

impl Thread<CacheWorld> for Reader {
    fn step(&mut self, w: &mut CacheWorld, _choice: u32) -> Step {
        match self.phase {
            ReadPhase::Check => match w.cache {
                // `lock_cache` keeps the cache only while its install
                // epoch matches the pool's; a hit answers immediately.
                Some((install_epoch, data_gen)) if install_epoch == w.epoch => {
                    w.serves.push(Serve {
                        from_cache: true,
                        data_gen,
                        detected_gen: w.detected_gen,
                    });
                    self.finish_round()
                }
                _ => {
                    w.cache = None;
                    self.phase = ReadPhase::Sample;
                    Step::Ran
                }
            },
            ReadPhase::Sample => {
                self.phase = ReadPhase::Exchange { pre: w.epoch };
                Step::Ran
            }
            ReadPhase::Exchange { pre } => {
                if w.conn_gen == w.server_gen {
                    // Live connection: the answer is fresh by
                    // construction (served from the exchange payload).
                    let data_gen = w.conn_gen;
                    w.serves.push(Serve {
                        from_cache: false,
                        data_gen,
                        detected_gen: w.detected_gen,
                    });
                    self.phase = ReadPhase::Install { pre, data_gen };
                } else {
                    // Dead connection: `exchange` kills (epoch bump) and
                    // the retry policy reconnects; `pre` stays what it
                    // was, so the eventual install is already invalid —
                    // conservative, never stale.
                    w.kill_and_reconnect();
                }
                Step::Ran
            }
            ReadPhase::Install { pre, data_gen } => {
                let key = if self.install_pre_epoch { pre } else { w.epoch };
                w.cache = Some((key, data_gen));
                self.finish_round()
            }
        }
    }
}

/// The failure injector: each cycle restarts the server (new
/// generation; the pooled connection silently goes stale) and then a
/// concurrent writer's failing call detects it (kill + reconnect).
#[derive(Debug, Clone)]
struct Faulter {
    cycles: u32,
    mid_cycle: bool,
}

impl Thread<CacheWorld> for Faulter {
    fn step(&mut self, w: &mut CacheWorld, _choice: u32) -> Step {
        if !self.mid_cycle {
            w.server_gen += 1;
            self.mid_cycle = true;
            Step::Ran
        } else {
            w.kill_and_reconnect();
            self.mid_cycle = false;
            self.cycles -= 1;
            if self.cycles == 0 {
                Step::Done
            } else {
                Step::Ran
            }
        }
    }
}

/// The freshness claim: no serve — cache hit or direct — carries data
/// older than the last failover that had been detected when it was
/// handed out. (Data from an *undetected* failover window is the
/// inherent staleness any cache has; the epoch key bounds it at one
/// failed call.)
fn freshness(w: &CacheWorld) -> Result<(), String> {
    for s in &w.serves {
        if s.data_gen < s.detected_gen {
            return Err(format!(
                "stale {} serve: data from generation {} after failover {} was detected",
                if s.from_cache { "cache" } else { "direct" },
                s.data_gen,
                s.detected_gen
            ));
        }
    }
    Ok(())
}

fn cache_model(
    readers: usize,
    rounds: u32,
    cycles: u32,
    install_pre_epoch: bool,
) -> Result<Explored, Violation> {
    let threads: Vec<Reader> = (0..readers)
        .map(|_| Reader::new(rounds, install_pre_epoch))
        .collect();
    // A Reader and a Faulter are different types; run them as one enum.
    #[derive(Clone)]
    enum T {
        R(Reader),
        F(Faulter),
    }
    impl Thread<CacheWorld> for T {
        fn step(&mut self, w: &mut CacheWorld, choice: u32) -> Step {
            match self {
                T::R(r) => r.step(w, choice),
                T::F(f) => f.step(w, choice),
            }
        }
    }
    let mut all: Vec<T> = threads.into_iter().map(T::R).collect();
    all.push(T::F(Faulter {
        cycles,
        mid_cycle: false,
    }));
    Explorer::default().run(&CacheWorld::new(), &all, freshness)
}

#[cfg(not(loom))]
const CACHE_SIZES: (usize, u32, u32) = (2, 1, 1); // readers, rounds, failover cycles
#[cfg(loom)]
const CACHE_SIZES: (usize, u32, u32) = (2, 1, 2);

#[test]
fn epoch_keyed_cache_never_serves_stale_data() {
    let (readers, rounds, cycles) = CACHE_SIZES;
    let explored = cache_model(readers, rounds, cycles, true).unwrap();
    // The model must genuinely interleave: cache hits, misses and the
    // failover all occur across the explored schedules.
    assert!(explored.schedules > 100, "trivial model: {explored:?}");
}

#[test]
fn installing_under_the_current_epoch_is_the_stale_read_bug() {
    // Seeded bug: key the page under the epoch read at install time.
    // Schedule exhibiting it: reader A fetches from the old server,
    // the faulter restarts + detection bumps the epoch, A installs the
    // old page under the *new* epoch, reader B cache-hits stale data.
    let (readers, rounds, cycles) = CACHE_SIZES;
    let err = cache_model(readers, rounds, cycles, false).unwrap_err();
    match err {
        Violation::Invariant { message, schedule } => {
            assert!(message.contains("stale cache serve"), "{message}");
            assert!(!schedule.is_empty());
        }
        other => panic!("expected a stale-read invariant violation, got {other}"),
    }
}

// ---------------------------------------------------------------------
// Model 2: checkout_read's rotating try-lock probe.
// ---------------------------------------------------------------------

/// Shared state: the rotation counter (Relaxed in the real code — it is
/// only a start-slot hint), one mutex per slot, and completion records.
#[derive(Debug, Clone)]
struct PoolWorld {
    rotation: usize,
    locked: Vec<bool>,
    /// Slot index acquired, in acquisition order.
    history: Vec<usize>,
    completed: usize,
}

impl PoolWorld {
    fn new(slots: usize) -> Self {
        PoolWorld {
            rotation: 0,
            locked: vec![false; slots],
            history: Vec::new(),
            completed: 0,
        }
    }
}

/// Where a client is inside `checkout_read`.
#[derive(Debug, Clone, Copy)]
enum CheckoutPhase {
    /// `rotation.fetch_add(1, Relaxed)` picks the start slot.
    Start,
    /// Non-blocking `try_lock` probe at `start + probed`.
    Probe { start: usize, probed: usize },
    /// Every probe failed: block on the start slot (`lock_slot`).
    BlockOn { start: usize },
    /// Exchange done under the slot lock; release it.
    Release { held: usize },
}

#[derive(Debug, Clone)]
struct Checkout {
    phase: CheckoutPhase,
}

impl Checkout {
    fn new() -> Self {
        Checkout {
            phase: CheckoutPhase::Start,
        }
    }
}

impl Thread<PoolWorld> for Checkout {
    fn step(&mut self, w: &mut PoolWorld, _choice: u32) -> Step {
        let n = w.locked.len();
        match self.phase {
            CheckoutPhase::Start => {
                let start = w.rotation % n;
                w.rotation += 1;
                self.phase = CheckoutPhase::Probe { start, probed: 0 };
                Step::Ran
            }
            CheckoutPhase::Probe { start, probed } => {
                let slot = (start + probed) % n;
                if !w.locked[slot] {
                    w.locked[slot] = true;
                    w.history.push(slot);
                    self.phase = CheckoutPhase::Release { held: slot };
                } else if probed + 1 == n {
                    self.phase = CheckoutPhase::BlockOn { start };
                } else {
                    self.phase = CheckoutPhase::Probe {
                        start,
                        probed: probed + 1,
                    };
                }
                Step::Ran
            }
            CheckoutPhase::BlockOn { start } => {
                if w.locked[start] {
                    return Step::Blocked;
                }
                w.locked[start] = true;
                w.history.push(start);
                self.phase = CheckoutPhase::Release { held: start };
                Step::Ran
            }
            CheckoutPhase::Release { held } => {
                w.locked[held] = false;
                w.completed += 1;
                Step::Done
            }
        }
    }
}

fn checkout_model(clients: usize, slots: usize) -> Result<Explored, Violation> {
    let threads: Vec<Checkout> = (0..clients).map(|_| Checkout::new()).collect();
    Explorer::default().run(&PoolWorld::new(slots), &threads, move |w| {
        if w.completed != clients {
            return Err(format!("{} of {clients} clients completed", w.completed));
        }
        if w.locked.iter().any(|&l| l) {
            return Err(format!("slot leaked locked: {:?}", w.locked));
        }
        if w.history.len() != clients {
            return Err(format!(
                "{} checkouts for {clients} clients",
                w.history.len()
            ));
        }
        Ok(())
    })
}

#[test]
fn checkout_completes_every_client_without_leaking_a_slot() {
    // As many clients as slots: every schedule completes, no deadlock.
    let explored = checkout_model(2, 2).unwrap();
    assert!(explored.schedules > 10, "trivial model: {explored:?}");
    // One slot: the blocking fallback path is forced to serialize.
    checkout_model(2, 1).unwrap();
}

#[cfg(not(loom))]
const CONTENTION: (usize, usize) = (3, 2);
#[cfg(loom)]
const CONTENTION: (usize, usize) = (3, 3);

#[test]
fn checkout_survives_contention_beyond_the_slot_count() {
    // More clients than slots: the probe loop misses everywhere and the
    // blocking fallback must still guarantee progress for everyone.
    let (clients, slots) = CONTENTION;
    checkout_model(clients, slots).unwrap();
}

#[test]
fn rotation_spreads_sequential_checkouts_across_slots() {
    // Uncontended clients, run to completion one after another, land on
    // distinct slots round-robin — the point of the Relaxed rotation
    // counter (a hint, not a guarantee under contention).
    let mut w = PoolWorld::new(2);
    for _ in 0..4 {
        let mut c = Checkout::new();
        while !matches!(c.step(&mut w, 0), Step::Done) {}
    }
    assert_eq!(w.history, vec![0, 1, 0, 1]);
}

// ---------------------------------------------------------------------
// Model 3: two-pass server shutdown vs. concurrent accept.
// ---------------------------------------------------------------------

/// One server-side connection's lifecycle flags.
#[derive(Debug, Clone, Copy, Default)]
struct ConnState {
    registered: bool,
    /// Socket shut down by a signaling pass — unblocks the read.
    signaled: bool,
    /// The client closed its end: the read saw EOF.
    hung_up: bool,
    finished: bool,
    /// Joined and dropped by the accept loop before shutdown.
    reaped: bool,
}

/// Shared state mirroring `LabelServer`: the `stop` flag, the accept
/// queue depth, the registered-connections list and the accept-loop
/// join flag.
#[derive(Debug, Clone)]
struct ServerWorld {
    stop: bool,
    pending: u32,
    accept_done: bool,
    conns: Vec<ConnState>,
}

/// A client whose only modeled action is connecting.
#[derive(Debug, Clone)]
struct Connector;

impl Thread<ServerWorld> for Connector {
    fn step(&mut self, w: &mut ServerWorld, _choice: u32) -> Step {
        w.pending += 1;
        Step::Done
    }
}

/// The accept loop. Faithful to `accept_loop`: `accept()` returns, the
/// `stop` flag is checked, and only then is the connection registered —
/// the registration is a *separate* step, so it can interleave after
/// shutdown's first signaling pass (the race the second pass exists
/// for). Registering first reaps every finished connection, in the same
/// step because the real code holds the conns lock for both.
#[derive(Debug, Clone)]
enum Acceptor {
    Waiting { next: usize },
    Registering { next: usize },
}

impl Thread<ServerWorld> for Acceptor {
    fn step(&mut self, w: &mut ServerWorld, _choice: u32) -> Step {
        match *self {
            Acceptor::Waiting { next } => {
                if w.pending == 0 {
                    return Step::Blocked; // blocked in accept()
                }
                w.pending -= 1;
                if w.stop {
                    // Post-accept stop check: drop the stream, break.
                    w.accept_done = true;
                    return Step::Done;
                }
                *self = Acceptor::Registering { next };
                Step::Ran
            }
            Acceptor::Registering { next } => {
                for c in w.conns.iter_mut().filter(|c| c.registered && c.finished) {
                    c.reaped = true;
                }
                w.conns[next].registered = true;
                *self = Acceptor::Waiting { next: next + 1 };
                Step::Ran
            }
        }
    }
}

/// One `serve_conn` thread: not schedulable until registered, serves a
/// few requests, then either sees its client hang up (EOF) or sits in a
/// blocking read that only the socket shutdown (signal) can unblock.
#[derive(Debug, Clone)]
struct ServeConn {
    index: usize,
    requests_left: u32,
    hangs_up: bool,
}

impl Thread<ServerWorld> for ServeConn {
    fn step(&mut self, w: &mut ServerWorld, _choice: u32) -> Step {
        let me = w.conns[self.index];
        if !me.registered {
            if w.accept_done {
                // The listener closed before this connection was ever
                // accepted; the thread never comes to life.
                return Step::Done;
            }
            return Step::Blocked;
        }
        if me.signaled {
            w.conns[self.index].finished = true;
            return Step::Done;
        }
        if self.requests_left > 0 {
            self.requests_left -= 1;
            return Step::Ran;
        }
        if self.hangs_up {
            w.conns[self.index].hung_up = true;
            w.conns[self.index].finished = true;
            return Step::Done;
        }
        Step::Blocked // blocking read; only shutdown() unblocks it
    }
}

/// `LabelServer::shutdown`, step for step. `two_pass: false` seeds the
/// bug of joining connection threads without the second signaling pass.
#[derive(Debug, Clone)]
struct Shutdown {
    phase: u32,
    two_pass: bool,
}

impl Thread<ServerWorld> for Shutdown {
    fn step(&mut self, w: &mut ServerWorld, _choice: u32) -> Step {
        match self.phase {
            // stop.swap(true, SeqCst)
            0 => {
                w.stop = true;
                self.phase = 1;
                Step::Ran
            }
            // First pass: shut down every *currently registered* socket
            // (one step — the real code holds the conns lock).
            1 => {
                for c in w.conns.iter_mut().filter(|c| c.registered) {
                    c.signaled = true;
                }
                self.phase = 2;
                Step::Ran
            }
            // Throwaway connect to unblock accept().
            2 => {
                w.pending += 1;
                self.phase = 3;
                Step::Ran
            }
            // Join the accept loop.
            3 => {
                if !w.accept_done {
                    return Step::Blocked;
                }
                self.phase = 4;
                Step::Ran
            }
            // Second pass: signal again — catching any connection that
            // registered between the first pass and the accept join.
            4 => {
                if self.two_pass {
                    for c in w.conns.iter_mut().filter(|c| c.registered) {
                        c.signaled = true;
                    }
                }
                self.phase = 5;
                Step::Ran
            }
            // Join every connection thread.
            _ => {
                if w.conns.iter().any(|c| c.registered && !c.finished) {
                    return Step::Blocked;
                }
                Step::Done
            }
        }
    }
}

/// `conns` connections, each serving `requests` requests; every one but
/// the last is closed by its client, so the accept loop may reap it.
/// Returns the exploration and whether any schedule reaped.
fn shutdown_model(
    conns: usize,
    requests: u32,
    two_pass: bool,
) -> Result<(Explored, bool), Violation> {
    #[derive(Clone)]
    enum T {
        C(Connector),
        A(Acceptor),
        S(ServeConn),
        D(Shutdown),
    }
    impl Thread<ServerWorld> for T {
        fn step(&mut self, w: &mut ServerWorld, choice: u32) -> Step {
            match self {
                T::C(t) => t.step(w, choice),
                T::A(t) => t.step(w, choice),
                T::S(t) => t.step(w, choice),
                T::D(t) => t.step(w, choice),
            }
        }
    }
    let mut threads = Vec::new();
    for i in 0..conns {
        threads.push(T::C(Connector));
        threads.push(T::S(ServeConn {
            index: i,
            requests_left: requests,
            hangs_up: i + 1 < conns,
        }));
    }
    threads.push(T::A(Acceptor::Waiting { next: 0 }));
    threads.push(T::D(Shutdown { phase: 0, two_pass }));
    let world = ServerWorld {
        stop: false,
        pending: 0,
        accept_done: false,
        conns: vec![ConnState::default(); conns],
    };
    let reaped = std::cell::Cell::new(false);
    let explored = Explorer::default().run(&world, &threads, |w| {
        if !w.accept_done {
            return Err("accept loop still running after shutdown".into());
        }
        for (i, c) in w.conns.iter().enumerate() {
            if c.registered && !(c.finished && (c.signaled || c.hung_up)) {
                return Err(format!("connection {i} lost: {c:?}"));
            }
            if c.reaped && !c.finished {
                return Err(format!("connection {i} reaped while running: {c:?}"));
            }
            reaped.set(reaped.get() || c.reaped);
        }
        Ok(())
    })?;
    Ok((explored, reaped.get()))
}

#[cfg(not(loom))]
const SHUTDOWN_REQUESTS: u32 = 1;
#[cfg(loom)]
const SHUTDOWN_REQUESTS: u32 = 3;

#[test]
fn two_pass_shutdown_loses_no_connection() {
    let (explored, reaped) = shutdown_model(2, SHUTDOWN_REQUESTS, true).unwrap();
    assert!(explored.schedules > 50, "trivial model: {explored:?}");
    assert!(reaped, "no schedule reaped a hung-up connection");
}

#[test]
fn single_pass_shutdown_deadlocks_on_the_registration_race() {
    // Seeded bug: join connection threads after the accept join without
    // signaling again. The lost schedule: accept() returns and passes
    // the stop check, shutdown's first pass signals (nothing registered
    // yet), the connection registers, its read blocks forever — and so
    // does the join.
    let err = shutdown_model(2, SHUTDOWN_REQUESTS, false).unwrap_err();
    match err {
        Violation::Deadlock { blocked, schedule } => {
            assert!(!blocked.is_empty());
            assert!(!schedule.is_empty());
        }
        other => panic!("expected a lost-connection deadlock, got {other}"),
    }
}
