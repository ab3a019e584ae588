//! `ltbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! ltbench [run] [--workload NAME]... [--seed S] [--seconds T] [--trace 0|1]
//!               [--smoke] [--out PATH]
//! ltbench trace [same flags]          # = run --trace 1
//! ltbench compare --parent A.json... --change B.json... [--bench BENCHMARK.json]
//! ```
//!
//! Four workloads (`local-edit`, `doc-query`, `served-read`,
//! `served-rw`; all by default) drive the `ltree` facade in closed loop
//! from this one process, with at most two load threads and two
//! connections. Each workload replays one fixed op script, generated
//! from `--seed` (default 42), from a fresh setup every round: one
//! discarded warm-up round, then rounds until `--seconds` (default 20)
//! have passed, at least three. Every round verifies the program's
//! answers as it goes; a failed check or an unexpected error is a failed
//! operation, never an abort. `--trace 1` spends half the time untraced
//! and half with bench-owned spans at the layer boundaries, and reports
//! the per-layer metrics instead of the end-to-end ones.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (name → value and unit) for the
//! last workload run. `--out` writes the full result of every workload
//! (per-round values, sample counts, p999, counters, per-layer detail),
//! the input of `compare`. See `README.md` next to this file.

mod bench;
mod catalog;
mod compare;
mod doc_query;
mod json;
mod local_edit;
mod model;
mod report;
mod rng;
mod served;
mod span;
mod stats;
#[cfg(test)]
mod tests;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use bench::{ltree_core, Acct, Cfg, Make, Round, Workload};
use json::Json;
use report::{END_TO_END, LAYER_DETAIL, PER_LAYER, UNGATED, WORKLOADS};
use span::Tracer;
use stats::quartiles;

/// Measured seconds per run when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("run") => run_main(&args[1..], false),
        Some("trace") => run_main(&args[1..], true),
        _ => run_main(&args, false),
    };
    std::process::exit(code);
}

const USAGE: &str = "usage: ltbench [run|trace] [--workload NAME]... [--seed S] [--seconds T] \
                     [--trace 0|1] [--smoke] [--out PATH]\n       \
                     ltbench compare --parent A.json... --change B.json... [--bench BENCHMARK.json]";

struct RunArgs {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String], trace: bool) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workloads: Vec::new(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|(n, _)| n == w) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                    return Err(format!(
                        "unknown workload {w:?} (known: {})",
                        names.join(", ")
                    ));
                }
                a.workloads.push(w.clone());
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
    }
    Ok(a)
}

fn run_main(args: &[String], trace: bool) -> i32 {
    let a = match parse_args(args, trace) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let work = PathBuf::from(".ltbench");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        return 1;
    }
    let cfg = Cfg {
        seed: a.seed,
        smoke: a.smoke,
        work: work.clone(),
    };
    let mut runs = Vec::new();
    let mut last_line = Json::Null;
    for name in &a.workloads {
        eprintln!(
            "ltbench: {name} (seed {}, {} s{})",
            a.seed,
            a.seconds,
            if a.trace { ", traced" } else { "" }
        );
        let out = run_workload(name, &cfg, a.seconds, a.trace, ltree_core());
        print_summary(name, &out);
        last_line = out.line;
        runs.push(out.full);
    }
    if let Some(path) = &a.out {
        let mut doc = Json::obj();
        doc.set("ltbench", 1u64).set("runs", runs);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return 1;
        }
    }
    // Leaves the directory only when a trace run left its span logs.
    let _ = std::fs::remove_dir(&work);
    println!("{}", last_line.render());
    0
}

fn print_summary(name: &str, out: &RunOut) {
    let metrics = out
        .full
        .get("per_layer")
        .or_else(|| out.full.get("end_to_end"))
        .map(Json::members)
        .unwrap_or_default();
    println!("{name}:");
    for (metric, v) in metrics {
        let value = v.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {metric:<34} {value:>16.4} {unit}");
    }
    let f = |k| out.full.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "  {:<34} {:>16} of {}",
        "failed ops",
        f("failed"),
        f("attempted")
    );
    for note in out
        .full
        .get("failures")
        .map(Json::as_arr)
        .unwrap_or_default()
    {
        println!("    {}", note.as_str().unwrap_or(""));
    }
}

fn build(name: &str, cfg: &Cfg, make: Make) -> Box<dyn Workload> {
    match name {
        "local-edit" => Box::new(local_edit::LocalEdit::new(cfg, make)),
        "doc-query" => Box::new(doc_query::DocQuery::new(cfg, make)),
        "served-read" => Box::new(served::ServedRead::new(cfg, make)),
        _ => Box::new(served::ServedRw::new(cfg, make)),
    }
}

/// Load threads and connections a workload opens (the server's own
/// threads belong to the program under test).
fn load_shape(name: &str) -> (u64, u64) {
    match name {
        "served-read" => (1, 1),
        "served-rw" => (2, 2),
        _ => (1, 0),
    }
}

pub struct RunOut {
    /// The full result (the `--out` file's entry).
    pub full: Json,
    /// The contract line.
    pub line: Json,
}

/// One discarded warm-up round, then rounds for about `budget` seconds,
/// at least `min` of them: a round starts while at least half of one
/// (as long as the last) still fits. Every round must report the
/// warm-up's counters.
fn run_pass(
    w: &mut dyn Workload,
    tracer: Option<&Arc<Tracer>>,
    budget: f64,
    min: usize,
    acct: &mut Acct,
) -> Vec<Round> {
    // A traced warm-up reports to a tracer of its own, then is dropped.
    let scratch = tracer.map(|_| Arc::new(Tracer::default()));
    let warm = w.round(scratch.as_ref(), acct);
    let mut rounds = Vec::new();
    let start = Instant::now();
    let mut last = 0.0;
    while rounds.len() < min || start.elapsed().as_secs_f64() + last / 2.0 < budget {
        let t = Instant::now();
        rounds.push(w.round(tracer, acct));
        last = t.elapsed().as_secs_f64();
    }
    same_counts(&rounds, &warm, acct);
    rounds
}

/// Deterministic counters must repeat exactly in every round.
fn same_counts(rounds: &[Round], reference: &Round, acct: &mut Acct) {
    for (i, r) in rounds.iter().enumerate() {
        acct.check(r.counts == reference.counts, || {
            format!(
                "round {i}: counters {:?} differ from the first round's {:?}",
                r.counts, reference.counts
            )
        });
    }
}

pub fn run_workload(name: &str, cfg: &Cfg, seconds: f64, trace: bool, make: Make) -> RunOut {
    let mut w = build(name, cfg, make);
    let mut acct = Acct::default();
    let budget = if trace { seconds / 2.0 } else { seconds };
    let min = if cfg.smoke { 2 } else { 3 };
    let u = run_pass(&mut *w, None, budget, min, &mut acct);
    let traced = trace.then(|| {
        let tracer = Arc::new(Tracer::default());
        // Span totals cover every call of a round, so one traced round
        // suffices; more would only stretch the run, since spans slow
        // the read-heavy stacks several times over.
        let t = run_pass(&mut *w, Some(&tracer), budget, 1, &mut acct);
        if let Some(first) = u.first() {
            same_counts(&t, first, &mut acct);
        }
        (t, tracer)
    });

    let mut full = Json::obj();
    let (threads, conns) = load_shape(name);
    full.set("workload", name)
        .set("seed", cfg.seed)
        .set("trace", trace)
        .set("smoke", cfg.smoke)
        .set("correct", acct.failed == 0)
        .set("attempted", acct.attempted)
        .set("failed", acct.failed)
        .set(
            "error_rate",
            acct.failed as f64 / acct.attempted.max(1) as f64,
        )
        .set(
            "failures",
            acct.notes
                .iter()
                .map(|n| Json::from(n.as_str()))
                .collect::<Vec<_>>(),
        )
        .set("rounds", u.len() as u64)
        .set("load_threads", threads)
        .set("connections", conns)
        .set(
            "available_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        );
    let mut e2e = Json::obj();
    for d in END_TO_END.iter().chain(UNGATED.iter()) {
        let Some(v) = report::end_to_end(&u, d.name) else {
            continue;
        };
        let per_round: Vec<f64> = u
            .iter()
            .filter_map(|r| report::per_round(r, d.name))
            .collect();
        let (q1, q3) = quartiles(&per_round);
        let mut m = Json::obj();
        m.set("value", v)
            .set("unit", d.unit)
            .set("better", d.better.as_str())
            .set("bound", d.bound)
            .set("round_q1", q1)
            .set("round_q3", q3)
            .set(
                "per_round",
                per_round.into_iter().map(Json::from).collect::<Vec<_>>(),
            );
        e2e.set(d.name, m);
    }
    full.set("end_to_end", e2e);
    let mut lat = Json::obj();
    for (kind, read) in [("read", true), ("write", false)] {
        let l = report::latency(&u, read);
        let mut j = Json::obj();
        j.set("samples", l.count())
            .set("p50_us", l.quantile_us(0.5))
            .set("p99_us", l.quantile_us(0.99))
            .set("p999_us", l.quantile_us(0.999))
            .set("mean_us", l.mean_ns() / 1e3);
        lat.set(kind, j);
    }
    full.set("latency", lat);
    let mut counts = Json::obj();
    for (k, v) in u.first().map(|r| r.counts.clone()).unwrap_or_default() {
        counts.set(k, v);
    }
    full.set("counts", counts);

    let metrics = match &traced {
        None => {
            let mut m = Json::obj();
            for d in &END_TO_END {
                let v = report::end_to_end(&u, d.name).unwrap_or(0.0);
                let mut j = Json::obj();
                j.set("value", v).set("unit", d.unit);
                m.set(d.name, j);
            }
            m
        }
        Some((t, tracer)) => {
            let values = report::per_layer(&u, t, tracer.overhead());
            let metric = |name: &str, unit: &str| {
                let v = values.iter().find(|(n, _)| *n == name).map_or(0.0, |p| p.1);
                let mut j = Json::obj();
                j.set("value", v).set("unit", unit);
                j
            };
            let mut m = Json::obj();
            for (name, unit, _) in PER_LAYER {
                m.set(name, metric(name, unit));
            }
            let mut detail = m.clone();
            for (metric_name, unit, _) in LAYER_DETAIL {
                if report::has_layer(name, metric_name) {
                    detail.set(metric_name, metric(metric_name, unit));
                }
            }
            full.set("per_layer", detail);
            if let Some(parts) = report::writer_attribution(t) {
                let mut j = Json::obj();
                for (k, v) in parts {
                    j.set(k, v);
                }
                full.set("writer_attribution", j);
            }
            let mut header = Json::obj();
            header.set("workload", name).set("seed", cfg.seed);
            let path = cfg.work.join(format!("spans-{name}.jsonl"));
            if let Err(e) = tracer.write_jsonl(&path, header) {
                eprintln!("cannot write {}: {e}", path.display());
            }
            m
        }
    };
    let mut line = Json::obj();
    line.set("correct", acct.failed == 0)
        .set("attempted", acct.attempted.max(1))
        .set("failed", acct.failed)
        .set("metrics", metrics);
    RunOut { full, line }
}
