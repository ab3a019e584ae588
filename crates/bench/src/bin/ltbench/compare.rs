//! `ltbench compare --parent A.json… --change B.json…` — before/after
//! rows per (workload, end-to-end metric), with a verdict.
//!
//! Files are result files written with `--out`; the i-th parent file is
//! paired with the i-th change file (run them alternately). A row is
//! *improved* when there are at least ten pairs, the change wins at least
//! nine in ten of them (ties count for neither side), and the medians
//! differ by more than the parent's own quartile spread. Otherwise it is
//! *unresolved* when the parent's spread is wider than the metric's bound
//! (unless every change run beats every parent run), *worse* when the
//! change's median is worse than the parent's by more than the bound,
//! and *no-worse* when it is not. The share of failed operations is
//! compared too.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::report::{Better, END_TO_END, UNGATED};
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no-worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric, and the change's win count over the pairs.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: f64,
) -> (Verdict, usize, usize) {
    let beats = |c: f64, p: f64| match better {
        Better::Lower => c < p,
        Better::Higher => c > p,
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| beats(c, p))
        .count();
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let spread = if pm != 0.0 { (q3 - q1) / pm.abs() } else { 0.0 };
    let worse_by = match better {
        Better::Lower => cm - pm,
        Better::Higher => pm - cm,
    } / if pm != 0.0 { pm.abs() } else { 1.0 };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
    let v = if pairs >= 10 && wins * 10 >= pairs * 9 && (cm - pm).abs() > q3 - q1 && beats(cm, pm) {
        Verdict::Improved
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::NoWorse
    };
    (v, wins, pairs)
}

fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("runs") {
        Some(runs) => Ok(runs.as_arr().to_vec()),
        None => Err(format!("{path}: not an ltbench result file (no `runs`)")),
    }
}

/// Bounds and directions from `BENCHMARK.json`, falling back to the
/// binary's own table for metrics it does not list.
fn bounds(bench: &str) -> BTreeMap<String, (Better, f64)> {
    let mut out: BTreeMap<String, (Better, f64)> = END_TO_END
        .iter()
        .chain(UNGATED.iter())
        .map(|d| (d.name.to_owned(), (d.better, d.bound)))
        .collect();
    let Ok(doc) = std::fs::read_to_string(bench)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))
    else {
        return out;
    };
    for m in doc.get("end_to_end").map(Json::as_arr).unwrap_or_default() {
        let (Some(name), Some(bound)) = (
            m.get("name").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
        ) else {
            continue;
        };
        let better = match m.get("better").and_then(Json::as_str) {
            Some("higher") => Better::Higher,
            _ => Better::Lower,
        };
        out.insert(name.to_owned(), (better, bound));
    }
    out
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("end_to_end")?.get(name)?.get("value")?.as_f64()
}

pub fn main(args: &[String]) -> i32 {
    let (mut parent, mut change, mut bench) = (Vec::new(), Vec::new(), "BENCHMARK.json".to_owned());
    let mut side: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            "--bench" => match it.next() {
                Some(p) => bench = p.clone(),
                None => {
                    eprintln!("--bench needs a path");
                    return 2;
                }
            },
            f if f.starts_with("--") => {
                eprintln!("unknown flag {f}\nusage: ltbench compare --parent A.json... --change B.json... [--bench BENCHMARK.json]");
                return 2;
            }
            path => match side.as_deref_mut() {
                Some(v) => v.push(path.to_owned()),
                None => {
                    eprintln!("{path}: name it after --parent or --change");
                    return 2;
                }
            },
        }
    }
    if parent.is_empty() || change.is_empty() {
        eprintln!(
            "usage: ltbench compare --parent A.json... --change B.json... [--bench BENCHMARK.json]"
        );
        return 2;
    }
    let mut runs: [BTreeMap<String, Vec<Json>>; 2] = Default::default();
    for (i, files) in [&parent, &change].into_iter().enumerate() {
        for f in files {
            match load(f) {
                Ok(rs) => {
                    for r in rs {
                        let w = r
                            .get("workload")
                            .and_then(Json::as_str)
                            .unwrap_or("?")
                            .to_owned();
                        runs[i].entry(w).or_default().push(r);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            }
        }
    }
    let bounds = bounds(&bench);
    println!(
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] | change | wins | verdict |"
    );
    println!("|---|---|---|---|---|---|---|");
    let mut any_worse = false;
    for (workload, p_runs) in &runs[0] {
        let Some(c_runs) = runs[1].get(workload) else {
            continue;
        };
        let names = END_TO_END.iter().chain(UNGATED.iter()).map(|d| d.name);
        for name in names {
            let p: Vec<f64> = p_runs.iter().filter_map(|r| metric(r, name)).collect();
            let c: Vec<f64> = c_runs.iter().filter_map(|r| metric(r, name)).collect();
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let (better, bound) = bounds[name];
            let (v, wins, pairs) = verdict(&p, &c, better, bound);
            any_worse |= v == Verdict::Worse;
            let (pm, cm) = (median(&p), median(&c));
            let ((p1, p3), (c1, c3)) = (quartiles(&p), quartiles(&c));
            let delta = if pm != 0.0 {
                100.0 * (cm - pm) / pm
            } else {
                0.0
            };
            println!(
                "| {workload} | {name} | {pm:.4} [{p1:.4}, {p3:.4}] | {cm:.4} [{c1:.4}, {c3:.4}] | {delta:+.2}% | {wins}/{pairs} | {} |",
                v.as_str()
            );
        }
        let share = |rs: &[Json]| {
            let get = |k| rs.iter().filter_map(|r| r.get(k)?.as_f64()).sum::<f64>();
            get("failed") / get("attempted").max(1.0)
        };
        let (ps, cs) = (share(p_runs), share(c_runs));
        let v = if cs > ps {
            Verdict::Worse
        } else {
            Verdict::NoWorse
        };
        any_worse |= v == Verdict::Worse;
        println!(
            "| {workload} | failed share | {ps:.6} | {cs:.6} | | | {} |",
            v.as_str()
        );
    }
    i32::from(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pairing_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = (0..10).map(|i| 80.0 + f64::from(i % 3)).collect();
        assert_eq!(
            verdict(&parent, &faster, Better::Lower, 0.1).0,
            Verdict::Improved
        );
        // Nine pairs are too few to claim a gain, even a clear one.
        assert_eq!(
            verdict(&parent[..9], &faster[..9], Better::Lower, 0.1).0,
            Verdict::NoWorse
        );
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.1).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &slower, Better::Higher, 0.1).0,
            Verdict::Improved
        );
        // A parent noisier than the bound cannot show "no worse".
        let noisy = [50.0, 150.0, 60.0, 140.0, 100.0];
        assert_eq!(
            verdict(&noisy, &noisy, Better::Lower, 0.1).0,
            Verdict::Unresolved
        );
    }
}
