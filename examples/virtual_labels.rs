//! The virtual L-Tree (paper, Section 4.2): same labels, no tree.
//!
//! ```sh
//! cargo run --release --example virtual_labels
//! ```

use ltree::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::new(4, 2)?;
    let n = 20_000usize;
    let ops = 10_000usize;

    // Drive both variants through the identical operation stream.
    let (mut mat, mat_leaves) = LTree::bulk_load(params, n)?;
    let mut mat_order: Vec<LeafId> = mat_leaves;
    let mut vt = VirtualLTree::new(params);
    let mut vt_order = vt.bulk_build(n)?;
    mat.reset_stats();
    vt.reset_scheme_stats();

    struct XorShift(u64);
    impl XorShift {
        fn pick(&mut self, len: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % len as u64) as usize
        }
    }

    let mut rng = XorShift(0x9e3779b97f4a7c15);
    let t0 = Instant::now();
    for _ in 0..ops {
        let i = rng.pick(mat_order.len());
        let l = mat.insert_after(mat_order[i])?;
        mat_order.insert(i + 1, l);
    }
    let mat_time = t0.elapsed();

    let mut rng = XorShift(0x9e3779b97f4a7c15); // same stream
    let t1 = Instant::now();
    for _ in 0..ops {
        let i = rng.pick(vt_order.len());
        let h = vt.insert_after(vt_order[i])?;
        vt_order.insert(i + 1, h);
    }
    let vt_time = t1.elapsed();

    // The labels are bit-for-bit identical — the whole point of §4.2:
    // "all the structural information of the L-Tree is implicit in the
    // labels themselves".
    let mat_labels: Vec<u128> = mat.leaves().map(|l| mat.label(l).unwrap().get()).collect();
    assert_eq!(mat_labels, vt.labels_in_order());
    println!(
        "{} leaves, labels identical between the two variants ✓\n",
        mat_labels.len()
    );

    println!("                         materialized      virtual");
    println!(
        "time for {ops} inserts   {:>10.1?}   {:>10.1?}",
        mat_time, vt_time
    );
    println!(
        "memory                 {:>10} KiB {:>10} KiB",
        mat.memory_bytes() / 1024,
        OrderedLabeling::memory_bytes(&vt) / 1024
    );
    let ms = Instrumented::scheme_stats(&mat);
    let vs = vt.scheme_stats();
    // Same labels from the same relabel work: both rewrite the same leaves.
    assert_eq!(ms.label_writes, vs.label_writes);
    println!(
        "label writes / op      {:>14.2} {:>12.2}",
        ms.amortized_label_writes(),
        vs.amortized_label_writes()
    );
    println!(
        "structure touches / op {:>14.2} {:>12.2}",
        ms.node_touches as f64 / ops as f64,
        vs.node_touches as f64 / ops as f64
    );
    println!("\nBoth variants rewrite the same labels, so their label-write columns are");
    println!("equal. §4.2 trades the tree's storage for range-count probes on every");
    println!("insert: the virtual variant pays in structure touches and time. It does");
    println!("not win on memory here: the materialized tree keeps its nodes in compact");
    println!("fixed-size records, and the virtual variant's counted B-tree, whose nodes");
    println!("still own heap vectors, is larger until it gets a flat layout too.");

    // Decode a label's ancestry straight from its digits (the observation
    // that makes the virtual variant possible).
    let leaf = mat_order[mat_order.len() / 2];
    let label = mat.label(leaf)?;
    println!(
        "\nBase-{} digits of label {} (child indices along the root path, low → high):",
        params.base(),
        label
    );
    println!("  {:?}", label.digits(&params, mat.height()));
    for h in 1..=mat.height() {
        let anc = label.ancestor(&params, h);
        println!("  virtual ancestor at height {h}: interval base {anc}");
    }
    Ok(())
}
