//! The benchmark's model of the list: what order the program must report.
//!
//! Anchors are always initial items, and a run inserted after anchor `a`
//! lands directly after `a` — in front of the runs inserted there before
//! it — so the list is: each initial item, followed by the runs anchored
//! on it, newest first. Deletes remove whole runs, which therefore stay
//! contiguous until they go. Every update is `O(1)` amortized (no
//! positional insert into a flat list): runs are only appended, and the
//! per-anchor index that orders them is built on the first order query
//! (the end of a round, for most workloads) and kept up to date after.

use ltree::LeafHandle;

use crate::rng::Rng;

struct Run {
    anchor: u32,
    start: u32,
    len: u32,
    live: bool,
}

pub struct ListModel {
    pub initial: Vec<LeafHandle>,
    runs: Vec<Run>,
    /// Run ids anchored on each initial item, in insertion order; built
    /// on first use.
    after: Option<Vec<Vec<u32>>>,
    /// Every run's items, back to back.
    items: Vec<LeafHandle>,
    live: usize,
}

impl ListModel {
    pub fn new(initial: Vec<LeafHandle>) -> Self {
        let n = initial.len();
        ListModel {
            live: n,
            after: None,
            initial,
            runs: Vec::new(),
            items: Vec::new(),
        }
    }

    /// Record the run an insert returned. Run ids count up from 0 in
    /// insertion order, as [`RunPicker`] numbers them.
    pub fn add_run(&mut self, anchor: usize, handles: &[LeafHandle]) {
        let id = self.runs.len() as u32;
        self.runs.push(Run {
            anchor: anchor as u32,
            start: self.items.len() as u32,
            len: handles.len() as u32,
            live: true,
        });
        self.items.extend_from_slice(handles);
        if let Some(after) = &mut self.after {
            after[anchor].push(id);
        }
        self.live += handles.len();
    }

    /// Mark run `id` deleted; returns its first item and length, for one
    /// delete-run splice. `None` when the run does not exist or is gone
    /// already (an earlier insert failed).
    pub fn take(&mut self, id: u32) -> Option<(LeafHandle, usize)> {
        let run = self.runs.get_mut(id as usize).filter(|r| r.live)?;
        run.live = false;
        self.live -= run.len as usize;
        Some((self.items[run.start as usize], run.len as usize))
    }

    /// Items not deleted.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Items ever inserted (initial ones included) — what a scheme that
    /// keeps tombstones reports as its length.
    pub fn total_len(&self) -> usize {
        self.initial.len() + self.items.len()
    }

    /// Up to `k` items in list order starting at initial item `i`;
    /// deleted runs are included (as the tombstones some schemes keep in
    /// place) when `tombstones` is set.
    pub fn order_from(&mut self, i: usize, k: usize, tombstones: bool) -> Vec<LeafHandle> {
        let after = self.after.get_or_insert_with(|| {
            let mut after = vec![Vec::new(); self.initial.len()];
            for (id, run) in self.runs.iter().enumerate() {
                after[run.anchor as usize].push(id as u32);
            }
            after
        });
        let mut out = Vec::with_capacity(k.min(self.initial.len() + self.items.len()));
        for (&item, runs) in self.initial.iter().zip(after.iter()).skip(i) {
            if out.len() == k {
                break;
            }
            out.push(item);
            for &id in runs.iter().rev() {
                let run = &self.runs[id as usize];
                if !(run.live || tombstones) {
                    continue;
                }
                let items = &self.items[run.start as usize..(run.start + run.len) as usize];
                for &h in items {
                    if out.len() == k {
                        return out;
                    }
                    out.push(h);
                }
            }
        }
        out
    }

    /// The whole expected list.
    pub fn order(&mut self, tombstones: bool) -> Vec<LeafHandle> {
        self.order_from(0, usize::MAX, tombstones)
    }
}

/// Chooses, while a script is generated, which earlier run each delete
/// removes — so the replay does no choosing, and every round deletes the
/// same runs.
#[derive(Default)]
pub struct RunPicker {
    live: Vec<u32>,
    next: u32,
}

impl RunPicker {
    /// A run was inserted.
    pub fn inserted(&mut self) {
        self.live.push(self.next);
        self.next += 1;
    }

    /// Draw a live run to delete, if any is left.
    pub fn pick(&mut self, rng: &mut Rng) -> Option<u32> {
        (!self.live.is_empty()).then(|| {
            let i = rng.below(self.live.len());
            self.live.swap_remove(i)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(v: u64) -> LeafHandle {
        LeafHandle(v)
    }

    #[test]
    fn newer_runs_land_between_the_anchor_and_older_runs() {
        let mut m = ListModel::new(vec![h(0), h(1), h(2)]);
        m.add_run(0, &[h(10), h(11)]);
        m.add_run(0, &[h(20)]);
        m.add_run(2, &[h(30)]);
        assert_eq!(
            m.order(false),
            [0, 20, 10, 11, 1, 2, 30].map(h).to_vec(),
            "newest run first after its anchor"
        );
        assert_eq!((m.live_len(), m.total_len()), (7, 7));
        assert_eq!(m.take(0), Some((h(10), 2)));
        assert_eq!(m.take(0), None, "a run goes once");
        assert_eq!(m.order(false), [0, 20, 1, 2, 30].map(h).to_vec());
        assert_eq!(m.order(true), [0, 20, 10, 11, 1, 2, 30].map(h).to_vec());
        assert_eq!(m.order_from(0, 3, false), [0, 20, 1].map(h).to_vec());
        assert_eq!((m.live_len(), m.total_len()), (5, 7));
    }

    #[test]
    fn picker_deletes_each_run_at_most_once() {
        let (mut p, mut rng) = (RunPicker::default(), Rng::new(3, 0));
        assert_eq!(p.pick(&mut rng), None);
        (0..5).for_each(|_| p.inserted());
        let mut got: Vec<u32> = (0..5).filter_map(|_| p.pick(&mut rng)).collect();
        got.sort_unstable();
        assert_eq!(got, [0, 1, 2, 3, 4]);
        assert_eq!(p.pick(&mut rng), None);
    }
}
