//! The scheme zoo: every registered labeling scheme over one workload.
//!
//! All schemes are constructed **by name through the registry** — no
//! concrete scheme type appears below. Registering a new scheme (see
//! `SchemeRegistry::register`) adds it to this sweep automatically.
//!
//! ```sh
//! cargo run --release --example scheme_zoo
//! cargo run --release --example scheme_zoo -- "ltree(16,4)" "gap(1024)"
//! ```

use ltree::gen::{generate_edits, EditProfile};
use ltree::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 5_000usize;
    let ops = 5_000usize;
    let registry = default_registry();

    // Sweep the given specs, or a default zoo covering all five schemes.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let specs: Vec<String> = if args.is_empty() {
        vec![
            "ltree(4,2)".into(),
            "ltree(16,4)".into(),
            "virtual(4,2)".into(),
            "list-label".into(),
            "gap(64)".into(),
            "naive".into(),
        ]
    } else {
        args
    };

    println!("Registered schemes:");
    for (name, summary) in registry.summaries() {
        println!("  {name:14} {summary}");
    }

    println!("\nHotspot workload: n = {n}, {ops} inserts, 90% into the first 5%:\n");
    println!("  spec            writes/op    cost/op   bits   live items");
    let hotspot = EditProfile::SkewedPoint {
        hot_fraction: 0.05,
        hot_weight: 0.9,
    };
    let script = generate_edits(hotspot, n, ops, 7);
    for spec in &specs {
        let mut scheme = registry.build(spec)?;
        let report = script.replay_incremental(&mut scheme)?;
        println!(
            "  {spec:14} {:>9.2}  {:>9.2}   {:>4}   {:>8}",
            report.amortized_label_writes(),
            report.amortized_cost(),
            report.label_space_bits,
            scheme.live_len(),
        );
    }

    // The typed batch API, through the same trait objects: splice a run
    // in, stream it back off the cursor, splice a run out.
    let mut scheme = registry.build("ltree(4,2)")?;
    let handles = scheme.bulk_build(8)?;
    let inserted = scheme
        .splice(Splice::InsertAfter {
            anchor: handles[3],
            count: 5,
        })?
        .into_inserted();
    println!(
        "\nSpliced {} items after #3 of 8; order via the cursor:",
        inserted.len()
    );
    let labels: Vec<u128> = scheme
        .cursor()
        .map(|h| scheme.label_of(h).expect("live"))
        .collect();
    println!("  labels: {labels:?}");
    let removed = scheme
        .splice(Splice::DeleteRun {
            first: inserted[0],
            count: 5,
        })?
        .deleted();
    println!(
        "  deleted the same run again: {removed} items, {} live",
        scheme.live_len()
    );
    Ok(())
}
