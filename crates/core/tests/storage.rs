//! The materialized L-Tree's storage, pinned from outside the crate:
//!
//! * batches too large for the tree's `u32` index space are a typed
//!   error before anything is allocated, and leave the tree unchanged,
//!   its cost counters included;
//! * per-preset cost, shape and label goldens: a seeded stream of single
//!   and batch inserts, scattered deletes and a `compact()`, pinned as
//!   the whole [`Stats`] block, the `LTRS` image's sealed trailer and a
//!   digest of the label sequence — storage changes must reproduce the
//!   algorithm bit for bit (the three relabel counters were re-recorded
//!   once a split renumbered only what moves; everything else keeps its
//!   earlier recording);
//! * a split renumbers only its pieces and the siblings to their right;
//! * a rejected `compact()` changes nothing;
//! * a space ceiling on `memory_bytes() / live_len()` at n₀ = 10⁵;
//! * the one-pass builder at large sizes: bulk loads and compactions
//!   pass the invariant checker and carry `layout::bulk_load_labels`.

use ltree_core::layout::bulk_load_labels;
use ltree_core::rng::SplitMix64;
use ltree_core::{snapshot, LTree, LTreeError, LeafId, Params, Stats};

/// FNV-1a over the labels in document order (tombstones included).
fn label_digest(tree: &LTree) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for leaf in tree.leaves() {
        for b in tree.label(leaf).unwrap().get().to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn labels(tree: &LTree) -> Vec<u128> {
    tree.leaves()
        .map(|l| tree.label(l).unwrap().get())
        .collect()
}

#[test]
fn oversized_batches_are_typed_errors_that_change_nothing() {
    let params = Params::new(4, 2).unwrap();
    let (mut tree, leaves) = LTree::bulk_load(params, 50).unwrap();
    let before = labels(&tree);
    for k in [1usize << 40, u32::MAX as usize] {
        let stats = tree.stats().clone();
        assert_eq!(
            tree.insert_many_after(leaves[10], k),
            Err(LTreeError::CapacityExceeded {
                requested: k as u64
            }),
            "batch of {k}"
        );
        assert_eq!(tree.len(), 50);
        assert_eq!(tree.live_len(), 50);
        assert_eq!(labels(&tree), before);
        assert_eq!(*tree.stats(), stats, "a rejected batch counts nothing");
        tree.check_invariants().unwrap();
    }
    // The tree still takes an ordinary batch afterwards.
    tree.insert_many_after(leaves[10], 3).unwrap();
    tree.check_invariants().unwrap();

    let err = LTree::bulk_load(params, 1 << 40).unwrap_err();
    assert_eq!(err, LTreeError::CapacityExceeded { requested: 1 << 40 });
    assert!(err.to_string().contains("1099511627776"), "{err}");
}

/// A split renumbers from its first piece, not from its parent: the
/// children left of the split node `t` keep their child index, so their
/// labels are neither rewritten nor counted. At `(4,2)` (`B = 5`) a bulk
/// load of 5 leaves gives the root's second child `up` one height-1
/// child with one leaf; a batch of 4 splits it into `a` (2 leaves), `t`
/// (2) and `c` (1), and one insert grows `t` to 3. The next insert
/// brings `t` to its threshold of 4 and `up` to 7 of its 8, so `t`
/// alone splits.
#[test]
fn a_split_renumbers_from_its_first_piece() {
    let params = Params::new(4, 2).unwrap();
    let (mut tree, leaves) = LTree::bulk_load(params, 5).unwrap();
    let batch = tree.insert_many_after(leaves[4], 4).unwrap();
    let (a, t_first) = ([leaves[4], batch[0]], batch[1]);
    tree.insert_after(t_first).unwrap();
    assert_eq!(labels(&tree), [0, 1, 5, 6, 25, 26, 30, 31, 32, 35]);
    let before = tree.stats().clone();

    tree.insert_after(t_first).unwrap();
    tree.check_invariants().unwrap();
    let stats = tree.stats();
    assert_eq!(stats.splits - before.splits, 1);
    assert_eq!(stats.root_rebuilds, before.root_rebuilds);
    assert_eq!(labels(&tree), [0, 1, 5, 6, 25, 26, 30, 31, 35, 36, 40]);
    for (leaf, label) in a.into_iter().zip([25, 26]) {
        assert_eq!(
            tree.label(leaf).unwrap().get(),
            label,
            "`a` keeps its labels"
        );
    }
    // The writes run from `t`'s first leaf to `up`'s last (the tree's),
    // the new leaf included: `t`'s 4 leaves and `c`'s one.
    let moved = tree.leaves().skip_while(|&l| l != t_first).count();
    assert_eq!(moved, 5);
    assert_eq!(
        stats.leaf_label_writes - before.leaf_label_writes,
        moved as u64
    );
}

/// `compact()` rebuilds as a bulk load would, at `f/s = 2`: 200 leaves
/// need height 8, one past `(65536,32768)`'s `max_height` of 7, though
/// appends keep them under a height-1 root. The rejection must come
/// before the tree is taken apart.
#[test]
fn a_rejected_compaction_leaves_the_tree_intact() {
    let params = Params::new(65_536, 32_768).unwrap();
    assert_eq!(params.max_height(), 7);
    let mut tree = LTree::new(params);
    for _ in 0..200 {
        tree.push_back().unwrap();
    }
    assert_eq!(tree.height(), 1);
    let before = labels(&tree);
    let stats = tree.stats().clone();
    assert_eq!(tree.compact(), Err(LTreeError::LabelOverflow { height: 8 }));
    assert_eq!((tree.len(), tree.live_len()), (200, 200));
    assert_eq!(labels(&tree), before);
    assert_eq!(*tree.stats(), stats);
    tree.check_invariants().unwrap();
    // The tree still takes inserts, into its own root.
    let first = tree.first_leaf().unwrap();
    tree.insert_after(first).unwrap();
    tree.insert_many_after(first, 3).unwrap();
    assert_eq!(tree.len(), 204);
    tree.check_invariants().unwrap();
}

/// Seed 1 exercises a cascade split in every preset.
const SEED: u64 = 1;

/// One preset's pinned outcome.
struct Golden {
    stats: Stats,
    image_trailer: u64,
    label_digest: u64,
}

/// Bulk load 200, then 300 ops at random existing leaves (a quarter are
/// batches of 2–119, the rest single inserts), then tombstone about one
/// leaf in eight. Returns the tree before `compact()`.
fn golden_run(params: Params) -> (LTree, Vec<LeafId>) {
    let mut rng = SplitMix64::new(SEED);
    let (mut tree, mut leaves) = LTree::bulk_load(params, 200).unwrap();
    for _ in 0..300 {
        let anchor = leaves[rng.gen_range(0..leaves.len())];
        if rng.gen_range(0..4) == 0 {
            let k = rng.gen_range(2..120);
            leaves.extend(tree.insert_many_after(anchor, k).unwrap());
        } else {
            leaves.push(tree.insert_after(anchor).unwrap());
        }
    }
    for &leaf in &leaves {
        if rng.gen_range(0..8) == 0 {
            tree.delete(leaf).unwrap();
        }
    }
    tree.check_invariants().unwrap();
    (tree, leaves)
}

fn image_trailer(tree: &LTree) -> u64 {
    let image = snapshot::save(tree);
    u64::from_le_bytes(image[image.len() - 8..].try_into().unwrap())
}

#[test]
fn cost_shape_and_label_goldens_per_preset() {
    let goldens = goldens();
    let presets = Params::presets();
    assert_eq!(goldens.len(), presets.len());
    for (params, golden) in presets.into_iter().zip(goldens) {
        let (mut tree, _) = golden_run(params);
        let trailer = image_trailer(&tree);
        let digest = label_digest(&tree);
        let live: Vec<LeafId> = tree.live_leaves().collect();
        tree.compact().unwrap();
        tree.check_invariants().unwrap();
        assert_eq!(tree.live_leaves().collect::<Vec<_>>(), live);
        let stats = tree.stats().clone();
        let (f, s) = (params.f(), params.s());
        assert!(stats.cascade_splits > 0, "({f},{s}): no cascade exercised");
        assert_eq!(stats, golden.stats, "({f},{s}): stats");
        assert_eq!(trailer, golden.image_trailer, "({f},{s}): LTRS trailer");
        assert_eq!(digest, golden.label_digest, "({f},{s}): label digest");
    }
}

#[test]
fn bytes_per_live_item_stay_under_the_ceiling() {
    let params = Params::new(4, 2).unwrap();
    let (mut tree, leaves) = LTree::bulk_load(params, 100_000).unwrap();
    let mut rng = SplitMix64::new(7);
    for _ in 0..10_000 {
        tree.insert_after(leaves[rng.gen_range(0..5_000)]).unwrap();
    }
    let per_item = tree.memory_bytes() as f64 / tree.live_len() as f64;
    assert!(per_item <= 70.0, "{per_item:.1} B per live item");
}

/// 4,097 and 65,537 leaves at every preset, and `ltbench`'s 10⁵ at
/// `(4,2)`. Each bulk load passes the invariant checker, whose check 5
/// derives every number from the shape, and carries the layout module's
/// labels; so does its `compact()` once every third leaf is tombstoned.
#[test]
fn large_bulk_loads_and_compactions_match_the_layout_module() {
    let mut shapes: Vec<(Params, usize)> = Params::presets()
        .into_iter()
        .flat_map(|p| [(p, 4_097), (p, 65_537)])
        .collect();
    shapes.push((Params::new(4, 2).unwrap(), 100_000));
    for (params, n) in shapes {
        let (mut tree, leaves) = LTree::bulk_load(params, n).unwrap();
        tree.check_invariants().unwrap();
        let (height, expect) = bulk_load_labels(&params, n as u64).unwrap();
        assert_eq!(tree.height(), height, "{params} n={n}");
        assert!(labels(&tree) == expect, "{params} n={n}: bulk-load labels");

        for &leaf in leaves.iter().step_by(3) {
            tree.delete(leaf).unwrap();
        }
        let live = tree.live_len();
        tree.compact().unwrap();
        tree.check_invariants().unwrap();
        let (_, expect) = bulk_load_labels(&params, live as u64).unwrap();
        assert!(labels(&tree) == expect, "{params} n={n}: compacted labels");
    }
}

/// In `Params::presets()` order. Recorded from an earlier implementation
/// of the tree over a different node layout, so they pin the algorithm,
/// not the storage under it. The three relabel counters
/// (`nodes_relabeled`, `leaf_label_writes`, `max_relabeled_in_one_op`)
/// were re-recorded when a split began to renumber from its first piece
/// rather than from its parent; every label, trailer and other counter
/// keeps its earlier recording.
fn goldens() -> Vec<Golden> {
    vec![
        // (4,2)
        Golden {
            stats: Stats {
                inserts: 223,
                batch_inserts: 77,
                leaves_inserted: 4954,
                deletes: 640,
                count_updates: 3232,
                relabel_events: 301,
                nodes_relabeled: 55134,
                leaf_label_writes: 27619,
                max_relabeled_in_one_op: 9035,
                splits: 80,
                pieces_created: 233,
                root_rebuilds: 4,
                cascade_splits: 1,
                nodes_visited: 62273,
            },
            image_trailer: 0x420d_92fc_3fbf_ac8e,
            label_digest: 0x38e3_a03d_0968_5a40,
        },
        // (8,2)
        Golden {
            stats: Stats {
                inserts: 223,
                batch_inserts: 77,
                leaves_inserted: 4954,
                deletes: 640,
                count_updates: 1692,
                relabel_events: 301,
                nodes_relabeled: 39037,
                leaf_label_writes: 29308,
                max_relabeled_in_one_op: 6023,
                splits: 78,
                pieces_created: 265,
                root_rebuilds: 2,
                cascade_splits: 4,
                nodes_visited: 28240,
            },
            image_trailer: 0xcc72_8e5f_d3e9_aa4e,
            label_digest: 0x9ea4_2cb1_98af_c772,
        },
        // (9,3)
        Golden {
            stats: Stats {
                inserts: 223,
                batch_inserts: 77,
                leaves_inserted: 4954,
                deletes: 640,
                count_updates: 1968,
                relabel_events: 301,
                nodes_relabeled: 37169,
                leaf_label_writes: 24864,
                max_relabeled_in_one_op: 6775,
                splits: 76,
                pieces_created: 361,
                root_rebuilds: 2,
                cascade_splits: 1,
                nodes_visited: 28872,
            },
            image_trailer: 0x3f99_39a7_9f8e_f945,
            label_digest: 0x36b2_3d7a_22b5_52ff,
        },
        // (16,4)
        Golden {
            stats: Stats {
                inserts: 223,
                batch_inserts: 77,
                leaves_inserted: 4954,
                deletes: 640,
                count_updates: 1526,
                relabel_events: 301,
                nodes_relabeled: 29690,
                leaf_label_writes: 22419,
                max_relabeled_in_one_op: 6023,
                splits: 73,
                pieces_created: 514,
                root_rebuilds: 2,
                cascade_splits: 1,
                nodes_visited: 22823,
            },
            image_trailer: 0xad6d_dad4_fa6d_efa0,
            label_digest: 0x2c4f_35ff_415d_07fa,
        },
        // (32,4)
        Golden {
            stats: Stats {
                inserts: 223,
                batch_inserts: 77,
                leaves_inserted: 4954,
                deletes: 640,
                count_updates: 1106,
                relabel_events: 301,
                nodes_relabeled: 25020,
                leaf_label_writes: 22106,
                max_relabeled_in_one_op: 5162,
                splits: 66,
                pieces_created: 587,
                root_rebuilds: 1,
                cascade_splits: 1,
                nodes_visited: 11985,
            },
            image_trailer: 0x0709_652e_f95e_0a0c,
            label_digest: 0x0ea3_b5a8_bad5_197d,
        },
    ]
}
