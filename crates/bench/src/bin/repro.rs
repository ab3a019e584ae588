//! `repro` — regenerate the reproduction experiment tables (X1–X14) and
//! run the scheme × workload sweep.
//!
//! ```text
//! repro [--full | --quick] [x1 x2 … | all]
//! repro sweep [--full | --quick] [--out PATH] [--baseline PATH] [--max-regress R]
//!             [--summary PATH]
//! repro metrics <host:port | --smoke> [--out PATH]
//! ```
//!
//! Experiments run at quick scale by default (seconds); `--full` uses
//! the sizes the reference runs use. Counter columns are deterministic;
//! only wall-clock columns vary between machines.
//!
//! `sweep` cross-products every registered scheme spec with the five
//! standard workload shapes, prints the comparison table and writes the
//! machine-readable `BENCH_sweep.json` (schema in `crates/bench/README.md`).
//! With `--baseline`, the run exits non-zero when any cell errors or
//! when an L-Tree-family cell's label-write count exceeds
//! `--max-regress` (default 2.0) times the baseline's. `--summary PATH`
//! additionally writes just the markdown table to `PATH` — CI appends it
//! to `$GITHUB_STEP_SUMMARY` so the comparison shows on the PR itself,
//! not only in the artifact.
//!
//! `metrics` scrapes a running [`LabelServer`](ltree::prelude::LabelServer)
//! over the wire `Metrics` request and prints the snapshot as
//! Prometheus exposition text (to `--out PATH` instead, when given).
//! `--smoke` skips the address: it spins up an in-process
//! `served(traced(ltree(4,2)))` stack on a `127.0.0.1` port, drives a
//! small seeded workload through a real TCP client, and scrapes that —
//! CI uploads the result as a sample exposition artifact.
//!
//! Unknown experiment ids or flags are rejected **before** anything
//! runs, with the list of valid names, and exit status 2.

use ltree_bench::{experiments, sweep, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("sweep") => sweep_main(&args[1..]),
        Some("metrics") => metrics_main(&args[1..]),
        _ => experiments_main(&args),
    };
    std::process::exit(code);
}

fn usage() -> String {
    format!(
        "usage:\n  repro [--full | --quick] [ids... | all]   run experiment tables\n  repro sweep [--full | --quick] [--out PATH] [--baseline PATH] [--max-regress R] [--summary PATH]\n  repro metrics <host:port | --smoke> [--out PATH]   scrape a label server as Prometheus text\n\nvalid experiment ids: {}, all",
        experiments::all_ids().join(", ")
    )
}

fn experiments_main(args: &[String]) -> i32 {
    let mut full = false;
    let mut ids: Vec<String> = Vec::new();
    for a in args {
        match a.as_str() {
            "--full" => full = true,
            "--quick" => full = false,
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag: {flag}\n{}", usage());
                return 2;
            }
            id => ids.push(id.to_lowercase()),
        }
    }
    // Validate *every* id before running anything: a typo must fail the
    // whole invocation loudly (CI once ran for minutes, then silently
    // skipped the misspelled experiment), not after the valid prefix.
    let unknown: Vec<&String> = ids
        .iter()
        .filter(|id| *id != "all" && !experiments::all_ids().contains(&id.as_str()))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment id{}: {}\n{}",
            if unknown.len() == 1 { "" } else { "s" },
            unknown
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(", "),
            usage()
        );
        return 2;
    }
    if ids.is_empty() || ids.iter().any(|a| a == "all") {
        ids = experiments::all_ids()
            .iter()
            .map(|s| s.to_string())
            .collect();
    }
    let scale = if full { Scale::Full } else { Scale::Quick };
    println!(
        "# L-Tree reproduction — experiment tables ({} scale)\n",
        if full { "full" } else { "quick" }
    );
    for id in &ids {
        let tables = experiments::run(id, scale).expect("ids were validated upfront");
        for t in tables {
            println!("{}", t.to_markdown());
        }
    }
    0
}

fn sweep_main(args: &[String]) -> i32 {
    let mut full = false;
    let mut out = String::from("BENCH_sweep.json");
    let mut baseline: Option<String> = None;
    let mut summary: Option<String> = None;
    let mut max_regress = 2.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => full = true,
            "--quick" => full = false,
            "--out" => match it.next() {
                Some(p) => out = p.clone(),
                None => {
                    eprintln!("--out needs a path\n{}", usage());
                    return 2;
                }
            },
            "--summary" => match it.next() {
                Some(p) => summary = Some(p.clone()),
                None => {
                    eprintln!("--summary needs a path\n{}", usage());
                    return 2;
                }
            },
            "--baseline" => match it.next() {
                Some(p) => baseline = Some(p.clone()),
                None => {
                    eprintln!("--baseline needs a path\n{}", usage());
                    return 2;
                }
            },
            "--max-regress" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(r) if r >= 1.0 => max_regress = r,
                _ => {
                    eprintln!("--max-regress needs a ratio >= 1.0\n{}", usage());
                    return 2;
                }
            },
            other => {
                eprintln!("unknown sweep argument: {other}\n{}", usage());
                return 2;
            }
        }
    }
    let scale = if full { Scale::Full } else { Scale::Quick };
    let report = sweep::run_sweep(&sweep::default_config(scale));
    println!(
        "# L-Tree scheme × workload sweep ({} scale)\n",
        report.scale
    );
    println!("{}", report.to_table().to_markdown());
    // Multi-size runs (--full) also get the scale trend lines: how the
    // amortized costs move as n grows, the axis the flat table buries.
    if let Some(trends) = report.trend_table() {
        println!("{}", trends.to_markdown());
    }

    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("cannot write {out}: {e}");
        return 1;
    }
    println!("wrote {out} ({} cells)", report.cells.len());

    // The tables alone, for CI step summaries — written before gating so
    // a failing gate still publishes the numbers that explain it.
    if let Some(path) = summary {
        let mut text = report.to_table().to_markdown();
        if let Some(trends) = report.trend_table() {
            text.push('\n');
            text.push_str(&trends.to_markdown());
        }
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        println!("wrote {path}");
    }

    let mut failed = false;
    let errored = report.errored();
    if !errored.is_empty() {
        failed = true;
        for (c, e) in &errored {
            eprintln!("cell error: {} × {} × n={}: {e}", c.spec, c.workload, c.n);
        }
    }
    if let Some(path) = baseline {
        match std::fs::read_to_string(&path).map_err(|e| e.to_string()) {
            Ok(text) => match sweep::SweepReport::from_json(&text) {
                Ok(base) => {
                    let problems = sweep::compare_with_baseline(&report, &base, max_regress);
                    if problems.is_empty() {
                        println!(
                            "baseline check against {path} passed (max-regress {max_regress}x)"
                        );
                    } else {
                        failed = true;
                        for p in &problems {
                            eprintln!("baseline regression: {p}");
                        }
                    }
                }
                Err(e) => {
                    eprintln!("cannot parse baseline {path}: {e}");
                    failed = true;
                }
            },
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                failed = true;
            }
        }
    }
    i32::from(failed)
}

fn metrics_main(args: &[String]) -> i32 {
    use ltree::obs::render_prometheus;
    use ltree::prelude::{LabelServer, RemoteScheme};
    use ltree::{BatchLabeling, Instrumented, OrderedLabeling, OrderedLabelingMut};

    let mut addr: Option<String> = None;
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => {
                    eprintln!("--out needs a path\n{}", usage());
                    return 2;
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown metrics flag: {flag}\n{}", usage());
                return 2;
            }
            a if addr.is_none() => addr = Some(a.to_owned()),
            other => {
                eprintln!("unexpected metrics argument: {other}\n{}", usage());
                return 2;
            }
        }
    }
    if smoke == addr.is_some() {
        eprintln!(
            "metrics needs exactly one of <host:port> or --smoke\n{}",
            usage()
        );
        return 2;
    }

    // The smoke server lives for the whole scrape: drop tears it down.
    let mut smoke_server: Option<LabelServer> = None;
    let target = match addr {
        Some(a) => a,
        None => {
            let scheme = match ltree::default_registry().build("traced(ltree(4,2))") {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot build the smoke scheme: {e}");
                    return 1;
                }
            };
            let server = match LabelServer::bind("127.0.0.1:0", scheme) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot bind the smoke server: {e}");
                    return 1;
                }
            };
            let a = server.local_addr().to_string();
            smoke_server = Some(server);
            a
        }
    };

    let mut client = match RemoteScheme::connect(&target) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {target}: {e}");
            return 1;
        }
    };
    if smoke_server.is_some() {
        // A small deterministic workload so every series the stack
        // exposes — per-op and phase histograms included — has samples.
        let mut drive = || -> Result<(), ltree::LTreeError> {
            let hs = client.bulk_build(128)?;
            let mid = client.insert_after(hs[40])?;
            client.insert_before(hs[80])?;
            let batch = client.insert_many_after(hs[100], 32)?;
            client.delete_run(batch[0], 16)?;
            client.delete(mid)?;
            client.label_of(hs[0])?;
            Ok(())
        };
        if let Err(e) = drive() {
            eprintln!("smoke workload failed: {e}");
            return 1;
        }
    }

    let snapshot = client.metrics();
    if !snapshot.iter().any(|m| m.name == "net/requests") {
        // A healthy server always reports its request counter; without
        // it the scrape itself failed (the client's own transport
        // counters are there either way).
        eprintln!("metrics scrape of {target} returned nothing");
        return 1;
    }
    let text = render_prometheus(&snapshot);
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("cannot write {path}: {e}");
                return 1;
            }
            println!("wrote {path} ({} series)", snapshot.len());
        }
        None => print!("{text}"),
    }
    0
}
