//! `local-edit`: the core write path in process, one thread.
//!
//! 40 % `insert_after`, 3 % `splice` insert runs of 2–16, 10 % whole-run
//! deletes, 35 % `label_of`, 12 % `compare`, against `ltree(4,2)` with
//! n₀ = 10⁵ items and the hot spot on the first 5 % of them. No wire, no
//! log: a change to the core shows here and nowhere else.

use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Instant;

use ltree::{LeafHandle, Splice};

use crate::bench::{check_list, record_stats, Acct, Cfg, Clock, Make, Round, Workload};
use crate::model::{ListModel, RunPicker};
use crate::rng::Rng;
use crate::span::{Kind, Tracer};

/// Script length per round at full scale. The L-Tree's relabel cost
/// moves in steps as the hot region crosses subtree sizes; at this
/// length the steps fall alike for every seed (label writes per insert
/// spread ~2 % across seeds, against ~14 % at 400 000).
const OPS: usize = 150_000;

/// One script step. Anchors and read targets index the initial items;
/// a delete names the run (in insertion order) it removes.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u32),
    Splice(u32, u32),
    Delete(u32),
    Label(u32),
    Compare(u32, u32),
}

pub struct LocalEdit {
    n0: usize,
    script: Vec<Op>,
    make: Make,
}

impl LocalEdit {
    pub fn new(cfg: &Cfg, make: Make) -> Self {
        let n0 = cfg.n0();
        let mut rng = Rng::new(cfg.seed, 1);
        let mut runs = RunPicker::default();
        let script = (0..cfg.ops(OPS))
            .map(|_| {
                let choice = rng.pick(&[40, 3, 10, 35, 12]);
                if choice == 2 {
                    if let Some(id) = runs.pick(&mut rng) {
                        return Op::Delete(id);
                    }
                }
                match choice {
                    1 => {
                        runs.inserted();
                        Op::Splice(rng.hot(n0) as u32, rng.between(2, 16) as u32)
                    }
                    0 | 2 => {
                        runs.inserted();
                        Op::Insert(rng.hot(n0) as u32)
                    }
                    3 => Op::Label(rng.below(n0) as u32),
                    _ => Op::Compare(rng.below(n0) as u32, rng.below(n0) as u32),
                }
            })
            .collect();
        LocalEdit { n0, script, make }
    }
}

/// A script step with its handles looked up — done for the whole script
/// before the replay starts, so the replay itself streams through.
enum Call {
    Insert(u32, LeafHandle),
    Splice(u32, LeafHandle, usize),
    Delete(u32),
    Label(LeafHandle),
    Compare(LeafHandle, LeafHandle, Ordering),
}

impl Workload for LocalEdit {
    fn round(&mut self, tracer: Option<&Arc<Tracer>>, acct: &mut Acct) -> Round {
        let mut r = Round::default();
        let t = Instant::now();
        let mut s = (self.make)(tracer);
        let handles = match s.bulk_build(self.n0) {
            Ok(h) => h,
            Err(e) => {
                acct.fail(format!("setup: bulk_build: {e}"));
                return r;
            }
        };
        r.setup_s = t.elapsed().as_secs_f64();
        s.reset_scheme_stats();
        let mut m = ListModel::new(handles);
        let h = |i: u32| m.initial[i as usize];
        let calls: Vec<Call> = self
            .script
            .iter()
            .map(|&op| match op {
                Op::Insert(a) => Call::Insert(a, h(a)),
                Op::Splice(a, k) => Call::Splice(a, h(a), k as usize),
                Op::Delete(id) => Call::Delete(id),
                Op::Label(i) => Call::Label(h(i)),
                Op::Compare(i, j) => Call::Compare(h(i), h(j), i.cmp(&j)),
            })
            .collect();
        let clock = Clock::new(tracer, None);
        let mut busy = 0u64;
        let spans = tracer.map(|t| t.aggs());
        let start = Instant::now();
        for call in &calls {
            let ns =
                match *call {
                    Call::Insert(a, anchor) => {
                        let tick = clock.start(Kind::Write);
                        let got = s.insert_after(anchor);
                        let ns = clock.stop(tick, "op", Kind::Write);
                        match got {
                            Ok(h) => {
                                acct.check(true, String::new);
                                m.add_run(a as usize, &[h]);
                            }
                            Err(e) => acct.fail(format!("insert_after: {e}")),
                        }
                        r.write.record(ns);
                        ns
                    }
                    Call::Splice(a, anchor, count) => {
                        let tick = clock.start(Kind::Write);
                        let got = s.splice(Splice::InsertAfter { anchor, count });
                        let ns = clock.stop(tick, "op", Kind::Write);
                        match got.map(|r| r.into_inserted()) {
                            Ok(hs) if hs.len() == count => {
                                acct.check(true, String::new);
                                m.add_run(a as usize, &hs);
                            }
                            Ok(hs) => acct.fail(format!("splice of {count} inserted {}", hs.len())),
                            Err(e) => acct.fail(format!("splice: {e}")),
                        }
                        r.write.record(ns);
                        ns
                    }
                    Call::Delete(id) => {
                        let Some((first, count)) = m.take(id) else {
                            acct.fail(format!("run {id} to delete was never inserted"));
                            continue;
                        };
                        let tick = clock.start(Kind::Write);
                        let got = s.splice(Splice::DeleteRun { first, count });
                        let ns = clock.stop(tick, "op", Kind::Write);
                        match got.map(|r| r.deleted()) {
                            Ok(n) => acct
                                .check(n == count, || format!("delete run of {count} deleted {n}")),
                            Err(e) => acct.fail(format!("delete run: {e}")),
                        }
                        r.write.record(ns);
                        ns
                    }
                    Call::Label(h) => {
                        let tick = clock.start(Kind::Read);
                        let got = s.label_of(h);
                        let ns = clock.stop(tick, "op", Kind::Read);
                        acct.check(got.is_ok(), || format!("label_of: {:?}", got.err()));
                        r.read.record(ns);
                        ns
                    }
                    Call::Compare(a, b, want) => {
                        let tick = clock.start(Kind::Read);
                        let got = s.compare(a, b);
                        let ns = clock.stop(tick, "op", Kind::Read);
                        match got {
                            Ok(o) => acct
                                .check(o == want, || format!("compare: got {o:?}, want {want:?}")),
                            Err(e) => acct.fail(format!("compare: {e}")),
                        }
                        r.read.record(ns);
                        ns
                    }
                };
            busy += ns;
        }
        r.replay_s = start.elapsed().as_secs_f64();
        r.busy_s = busy as f64 / 1e9;
        r.ops = calls.len() as u64;
        if let (Some(t), Some(before)) = (tracer, spans) {
            r.spans = t.aggs_since(&before);
        }
        check_list(&*s, &mut m, true, acct);
        record_stats(&*s, &mut r);
        let per_item = s.memory_bytes() as f64 / s.live_len().max(1) as f64;
        r.vals.insert("bytes_per_item", per_item);
        r.vals.insert("core.bytes_per_item", per_item);
        r.vals
            .insert("core.label_bits", f64::from(s.label_space_bits()));
        r
    }
}
