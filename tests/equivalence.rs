//! Experiment X9 (correctness half) — the virtual L-Tree (paper §4.2)
//! produces *identical labels* to the materialized L-Tree under any
//! operation stream: the structure really is "implicit in the labels
//! themselves". Randomized across parameter presets via the seeded
//! workspace PRNG; failures reproduce from the printed seed.

use ltree::prelude::*;
use ltree::rng::SplitMix64;

/// An abstract op over item indices (interpreted against the live list).
#[derive(Debug, Clone)]
enum Op {
    InsertAfter(usize),
    InsertBefore(usize),
    InsertMany(usize, usize),
    Delete(usize),
}

fn random_ops(rng: &mut SplitMix64, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| {
            let i = rng.gen_range(0..10_000);
            match rng.gen_range(0..8) {
                0..=3 => Op::InsertAfter(i),
                4..=5 => Op::InsertBefore(i),
                6 => Op::InsertMany(i, rng.gen_range(1..40)),
                _ => Op::Delete(i),
            }
        })
        .collect()
}

fn materialized_labels(t: &LTree) -> Vec<u128> {
    t.leaves().map(|l| t.label(l).unwrap().get()).collect()
}

fn run_stream(params: Params, initial: usize, ops: &[Op]) {
    let (mut mat, mat_handles) = LTree::bulk_load(params, initial).unwrap();
    let mut mat_order: Vec<LeafId> = mat_handles;
    let mut virt = VirtualLTree::new(params);
    let mut virt_order: Vec<LeafHandle> = virt.bulk_build(initial).unwrap();

    for op in ops {
        match *op {
            Op::InsertAfter(i) => {
                if mat_order.is_empty() {
                    continue;
                }
                let i = i % mat_order.len();
                let m = mat.insert_after(mat_order[i]).unwrap();
                let v = virt.insert_after(virt_order[i]).unwrap();
                mat_order.insert(i + 1, m);
                virt_order.insert(i + 1, v);
            }
            Op::InsertBefore(i) => {
                if mat_order.is_empty() {
                    continue;
                }
                let i = i % mat_order.len();
                let m = mat.insert_before(mat_order[i]).unwrap();
                let v = virt.insert_before(virt_order[i]).unwrap();
                mat_order.insert(i, m);
                virt_order.insert(i, v);
            }
            Op::InsertMany(i, k) => {
                if mat_order.is_empty() {
                    continue;
                }
                let i = i % mat_order.len();
                let ms = mat.insert_many_after(mat_order[i], k).unwrap();
                let vs = BatchLabeling::insert_many_after(&mut virt, virt_order[i], k).unwrap();
                for (j, (m, v)) in ms.into_iter().zip(vs).enumerate() {
                    mat_order.insert(i + 1 + j, m);
                    virt_order.insert(i + 1 + j, v);
                }
            }
            Op::Delete(i) => {
                if mat_order.is_empty() {
                    continue;
                }
                let i = i % mat_order.len();
                // Tombstone (idempotence errors are part of the contract:
                // both sides must agree).
                let m = mat.delete(mat_order[i]);
                let v = virt.delete(virt_order[i]);
                assert_eq!(m.is_ok(), v.is_ok());
            }
        }
        // Bit-for-bit label equivalence after *every* op.
        assert_eq!(materialized_labels(&mat), virt.labels_in_order());
        assert_eq!(mat.height(), virt.height(), "heights track together");
    }
    mat.check_invariants().unwrap();
    virt.check_invariants().unwrap();
    // Handle-level agreement too.
    for (m, v) in mat_order.iter().zip(&virt_order) {
        assert_eq!(mat.label(*m).unwrap().get(), virt.label_of(*v).unwrap());
    }
}

fn random_streams(params: Params, seed_base: u64) {
    for seed in seed_base..seed_base + 24 {
        let mut rng = SplitMix64::new(seed);
        let initial = rng.gen_range(0..40);
        let stream_len = rng.gen_range(1..60);
        let ops = random_ops(&mut rng, stream_len);
        run_stream(params, initial, &ops);
    }
}

#[test]
fn virtual_equals_materialized_f4s2() {
    random_streams(Params::new(4, 2).unwrap(), 0);
}

#[test]
fn virtual_equals_materialized_f9s3() {
    random_streams(Params::new(9, 3).unwrap(), 1_000);
}

#[test]
fn virtual_equals_materialized_f16s4() {
    random_streams(Params::new(16, 4).unwrap(), 2_000);
}

#[test]
fn long_hotspot_stream_equivalence() {
    let params = Params::new(4, 2).unwrap();
    let ops: Vec<Op> = (0..600).map(|i| Op::InsertAfter(i / 3)).collect();
    run_stream(params, 8, &ops);
}

#[test]
fn batch_heavy_stream_equivalence() {
    let params = Params::new(8, 2).unwrap();
    let ops: Vec<Op> = (0..40)
        .map(|i| Op::InsertMany(i * 7, (i % 13) + 1))
        .collect();
    run_stream(params, 4, &ops);
}

/// Labels past 2⁶⁴. At `(64,32)` a root rebuild at 32,768 leaves lifts
/// the tree to height 11 (a 67-bit label space, `65^11`) with 32 root
/// children, so from then on the labels of the root's children from
/// index 14 up exceed `u64::MAX` and the materialized tree keeps their
/// high words outside its leaf records. Both trees must agree label for
/// label, and compaction and an `LTRS` round trip must keep the order.
#[test]
fn wide_labels_past_u64_equivalence() {
    let params = Params::new(64, 32).unwrap();
    let mut mat = LTree::new(params);
    let mut virt = VirtualLTree::new(params);
    let mut edge = (mat.insert_first().unwrap(), virt.insert_first().unwrap());
    // Both trees' handles of each item, in insertion order.
    let mut items = vec![edge];
    let mut first_wide = None;
    let mut rng = SplitMix64::new(64);
    while mat.len() < 40_000 {
        let (m, v) = items[rng.gen_range(0..items.len())];
        match rng.gen_range(0..16) {
            0..=9 => {
                edge = (
                    mat.insert_after(edge.0).unwrap(),
                    virt.insert_after(edge.1).unwrap(),
                );
                items.push(edge);
            }
            10..=11 => items.push((mat.insert_after(m).unwrap(), virt.insert_after(v).unwrap())),
            12 => items.push((
                mat.insert_before(m).unwrap(),
                virt.insert_before(v).unwrap(),
            )),
            13 => {
                let k = rng.gen_range(1..40);
                let ms = mat.insert_many_after(m, k).unwrap();
                let vs = BatchLabeling::insert_many_after(&mut virt, v, k).unwrap();
                items.extend(ms.into_iter().zip(vs));
            }
            _ => assert_eq!(mat.delete(m).is_ok(), virt.delete(v).is_ok()),
        }
        if first_wide.is_none() && mat.max_label().unwrap().get() > u128::from(u64::MAX) {
            first_wide = Some(mat.len());
        }
    }
    // Below height 11 every label is under 65^10 < 2^64.
    let first_wide = first_wide.expect("no label passed u64::MAX");
    assert!(first_wide >= 32_768, "wide at {first_wide} leaves");
    let labels = materialized_labels(&mat);
    assert_eq!(labels, virt.labels_in_order());
    for &(m, v) in &items {
        assert_eq!(mat.label(m).unwrap().get(), virt.label_of(v).unwrap());
    }
    mat.check_invariants().unwrap();
    virt.check_invariants().unwrap();

    // An `LTRS` image regenerates every label, high words included.
    let (loaded, _) = ltree::snapshot::load(&ltree::snapshot::save(&mat)).unwrap();
    assert_eq!(materialized_labels(&loaded), labels);
    loaded.check_invariants().unwrap();

    // Compaction keeps the live leaves in order and labels them as a
    // bulk load of the same size would.
    let live: Vec<LeafId> = mat.live_leaves().collect();
    mat.compact().unwrap();
    assert_eq!(mat.live_leaves().collect::<Vec<_>>(), live);
    mat.check_invariants().unwrap();
    let mut fresh = VirtualLTree::new(params);
    fresh.bulk_build(live.len()).unwrap();
    assert_eq!(materialized_labels(&mat), fresh.labels_in_order());
}

/// Both trees do the same relabel work, not just produce the same
/// labels: equal `label_writes` and `relabel_events` after one seeded
/// stream of single inserts and batches of 2–119 that cascade.
#[test]
fn virtual_and_materialized_count_the_same_relabel_work() {
    for (f, s) in [(4, 2), (8, 2), (16, 4)] {
        let params = Params::new(f, s).unwrap();
        let (mut mat, mat_handles) = LTree::bulk_load(params, 200).unwrap();
        let mut virt = VirtualLTree::new(params);
        let virt_handles = virt.bulk_build(200).unwrap();
        let mut items: Vec<(LeafId, LeafHandle)> =
            mat_handles.into_iter().zip(virt_handles).collect();
        let mut rng = SplitMix64::new(23);
        for _ in 0..3_000 {
            let (m, v) = items[rng.gen_range(0..items.len())];
            match rng.gen_range(0..8) {
                0..=1 => {
                    let k = rng.gen_range(2..120);
                    let ms = mat.insert_many_after(m, k).unwrap();
                    let vs = BatchLabeling::insert_many_after(&mut virt, v, k).unwrap();
                    items.extend(ms.into_iter().zip(vs));
                }
                2..=4 => items.push((
                    mat.insert_before(m).unwrap(),
                    virt.insert_before(v).unwrap(),
                )),
                _ => items.push((mat.insert_after(m).unwrap(), virt.insert_after(v).unwrap())),
            }
        }
        assert!(mat.stats().cascade_splits > 0, "({f},{s}): no cascade");
        assert_eq!(
            materialized_labels(&mat),
            virt.labels_in_order(),
            "({f},{s})"
        );
        let (ms, vs) = (mat.scheme_stats(), virt.scheme_stats());
        assert_eq!(ms.label_writes, vs.label_writes, "({f},{s}): label writes");
        assert_eq!(
            ms.relabel_events, vs.relabel_events,
            "({f},{s}): relabel events"
        );
    }
}
