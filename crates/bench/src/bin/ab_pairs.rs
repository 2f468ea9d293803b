//! Paired runs of two `ipa-perf` builds — the evidence behind a host-clock
//! claim.
//!
//! One run of each build, recorded at different times on a shared
//! machine, does not resolve a 20 % difference in host time; runs of the
//! two builds taken back to back do. For every workload and seed this bin
//! runs the parent build and the change build `--pairs` times each,
//! alternating which one goes first (pair 1 parent first, pair 2 change
//! first, …), one process at a time, and compares them:
//!
//! - every run's `simulated` section and `checks` must equal the first run
//!   of its cell, on both sides — "no simulated number moved" is checked on
//!   every run, not one — or the bin fails;
//! - for every end-to-end metric `BENCHMARK.json` lists that a run reports
//!   in its `host` section, the medians and quartiles of both sides, the
//!   pairs the change won, and the verdict of the claim rule: at least ten
//!   pairs, the change better in at least nine of every ten, and the
//!   medians apart by more than the parent's quartile distance, in the
//!   better direction;
//! - for the same metrics, the regression verdict against the metric's
//!   `bound` in `BENCHMARK.json`: how much worse the change's median is, as
//!   a share of the parent's (`worse_by`, negative when it is better), and
//!   `within bound`, `worse than bound`, or `unresolved` — the parent's
//!   quartile distance, as a share of its median, is wider than the bound,
//!   and not every run of the change is better than every run of the
//!   parent, so the runs cannot tell either way.
//!
//! ```text
//! ab_pairs --parent DIR_A/ipa-perf --change DIR_B/ipa-perf --pairs 10 \
//!          --workloads tpcb_oop,tpcb_ipa --seeds 7,23 --out BENCH_N_check
//! ```
//!
//! run from the repository root, writes `BENCH_N_check.json` and
//! `BENCH_N_check.txt` (the table, also printed). The workloads default to
//! all of `BENCHMARK.json`'s and every run lasts its `run_seconds`, as the
//! benchmark's own runs do. Quartiles interpolate linearly between order
//! statistics. The runs' own outputs go to a directory under the system's
//! temporary directory, removed at the end; nothing is written to
//! `bench-results/`. Without arguments the bin prints its usage and exits
//! successfully, so a loop over every bench bin runs it harmlessly.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::{json, Value};

const USAGE: &str = "\
usage: ab_pairs --parent EXE --change EXE [--pairs N] [--workloads A,B]
                [--seeds S,T] [--smoke] [--out PREFIX]
(from the repository root: workloads, run length and metrics are
BENCHMARK.json's)

  --parent EXE     the ipa-perf executable of the parent commit
  --change EXE     the ipa-perf executable of the change
  --pairs N        pairs per workload and seed (default 10)
  --workloads A,B  workloads to run (default: all of BENCHMARK.json's)
  --seeds S,T      seeds to run each workload at (default 7)
  --smoke          pass --smoke to every run
  --out PREFIX     write PREFIX.json and PREFIX.txt";

/// Where the workloads, the run length and the end-to-end metrics are
/// declared.
const BENCHMARK: &str = "BENCHMARK.json";

/// Pairs a claim needs at least, and the share of them the change must
/// win (nine of every ten).
const MIN_PAIRS: usize = 10;

struct Args {
    parent: PathBuf,
    change: PathBuf,
    pairs: usize,
    /// Empty: all of the benchmark's.
    workloads: Vec<String>,
    seeds: Vec<u64>,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        parent: PathBuf::new(),
        change: PathBuf::new(),
        pairs: 10,
        workloads: Vec::new(),
        seeds: vec![7],
        smoke: false,
        out: None,
    };
    let number = |flag: &str, v: &str| v.parse::<u64>().map_err(|_| format!("{flag}: `{v}`"));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--parent" => a.parent = PathBuf::from(value()?),
            "--change" => a.change = PathBuf::from(value()?),
            "--pairs" => a.pairs = number(flag, value()?)? as usize,
            "--workloads" => a.workloads = value()?.split(',').map(String::from).collect(),
            "--seeds" => {
                a.seeds = value()?.split(',').map(|s| number(flag, s)).collect::<Result<_, _>>()?;
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.parent.as_os_str().is_empty() || a.change.as_os_str().is_empty() {
        return Err("both --parent and --change are needed".into());
    }
    if a.pairs == 0 || a.seeds.is_empty() {
        return Err("nothing to run".into());
    }
    Ok(a)
}

/// An end-to-end metric of the benchmark.
struct Metric {
    name: String,
    higher_is_better: bool,
    /// How much worse, as a share of the parent's median, the change may
    /// be before it counts as a regression.
    bound: f64,
}

/// What the benchmark declares: its workloads, run length and end-to-end
/// metrics.
struct Benchmark {
    workloads: Vec<String>,
    seconds: u64,
    metrics: Vec<Metric>,
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_benchmark() -> Result<Benchmark, String> {
    let doc = read_json(Path::new(BENCHMARK))?;
    let list = |key: &str| doc[key].as_array().cloned().ok_or(format!("{BENCHMARK}: no {key}"));
    let workloads =
        list("workloads")?.iter().filter_map(|w| w["name"].as_str().map(String::from)).collect();
    let metrics = list("end_to_end")?
        .iter()
        .filter_map(|m| {
            let name = m["name"].as_str()?.to_string();
            let higher_is_better = m["better"].as_str()? == "higher";
            Some(Metric { name, higher_is_better, bound: m["bound"].as_f64()? })
        })
        .collect();
    let seconds = doc["run_seconds"].as_u64().ok_or(format!("{BENCHMARK}: no run_seconds"))?;
    Ok(Benchmark { workloads, seconds, metrics })
}

/// One `ipa-perf` run of `workload` with `flags`; returns its document.
fn run(exe: &Path, workload: &str, flags: &[String], dir: &Path) -> Result<Value, String> {
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(flags)
        .arg("--out")
        .arg(dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !status.success() {
        let flags = flags.join(" ");
        return Err(format!("{} --workload {workload} {flags}: {status}", exe.display()));
    }
    read_json(&dir.join(format!("{workload}.json")))
}

/// Median and quartiles, linearly interpolated between order statistics.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let x = q * (v.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
    };
    [at(0.5), at(0.25), at(0.75)]
}

/// The runs of one workload at one seed: per side, the documents in pair
/// order.
struct Cell {
    workload: String,
    seed: u64,
    parent: Vec<Value>,
    change: Vec<Value>,
}

impl Cell {
    /// The first run's `simulated` section and `checks` against every
    /// other run's; the differences found.
    fn deviations(&self) -> Vec<String> {
        let first = &self.parent[0];
        let mut out = Vec::new();
        for (side, runs) in [("parent", &self.parent), ("change", &self.change)] {
            for (i, doc) in runs.iter().enumerate() {
                for section in ["simulated", "checks"] {
                    if doc[section] != first[section] {
                        out.push(format!(
                            "{} seed {}: {section} of {side} run {} differs from the first run's",
                            self.workload,
                            self.seed,
                            i + 1
                        ));
                    }
                }
            }
        }
        out
    }

    /// The comparison of one host metric, or `None` when the runs do not
    /// report it.
    fn compare(&self, m: &Metric) -> Option<Value> {
        let values = |runs: &[Value]| -> Option<Vec<f64>> {
            runs.iter().map(|d| d["host"][m.name.as_str()]["value"].as_f64()).collect()
        };
        let (p, c) = (values(&self.parent)?, values(&self.change)?);
        let unit = self.parent[0]["host"][m.name.as_str()]["unit"].clone();
        let better = |change: f64, parent: f64| {
            if m.higher_is_better {
                change > parent
            } else {
                change < parent
            }
        };
        let wins = p.iter().zip(&c).filter(|(p, c)| better(**c, **p)).count();
        let ([pm, pq1, pq3], [cm, cq1, cq3]) = (quartiles(&p), quartiles(&c));
        let pairs = p.len();
        let met = pairs >= MIN_PAIRS
            && wins * 10 >= pairs * 9
            && better(cm, pm)
            && (cm - pm).abs() > pq3 - pq1;
        let worse_by = (if m.higher_is_better { pm - cm } else { cm - pm }) / pm;
        let every_run_better = c.iter().all(|c| p.iter().all(|p| better(*c, *p)));
        let verdict = if (pq3 - pq1) / pm > m.bound && !every_run_better {
            "unresolved"
        } else if worse_by > m.bound {
            "worse than bound"
        } else {
            "within bound"
        };
        Some(json!({
            "name": m.name.as_str(),
            "unit": unit,
            "better": if m.higher_is_better { "higher" } else { "lower" },
            "parent": {"median": pm, "q1": pq1, "q3": pq3, "runs": p},
            "change": {"median": cm, "q1": cq1, "q3": cq3, "runs": c},
            "change_over_parent": cm / pm,
            "wins": wins,
            "pairs": pairs,
            "claim_met": met,
            "bound": m.bound,
            "worse_by": worse_by,
            "verdict": verdict,
        }))
    }
}

/// A number with four significant digits.
fn sig4(x: f64) -> String {
    if x == 0.0 || (1e-3..1e6).contains(&x.abs()) {
        let digits = (3 - x.abs().log10().floor() as i32).clamp(0, 6) as usize;
        format!("{x:.digits$}")
    } else {
        format!("{x:.3e}")
    }
}

fn table(report: &Value) -> String {
    let mut out = format!(
        "ab_pairs: {} pairs per cell, parent {} / change {}, --seconds {}{}; pair 1 parent \
         first, then alternating.\n",
        report["pairs"],
        report["parent"].as_str().unwrap_or_default(),
        report["change"].as_str().unwrap_or_default(),
        report["seconds"],
        if report["smoke"] == true { " --smoke" } else { "" },
    );
    out.push_str(
        "simulated sections and checks: equal to the first run's in every run of every cell.\n",
    );
    out.push_str(&format!("claim rule: {}\n\n", report["claim_rule"].as_str().unwrap_or("")));
    let header = ["workload", "seed", "metric", "parent med [q1, q3]", "change med [q1, q3]"];
    let mut rows = vec![header
        .iter()
        .map(|s| s.to_string())
        .chain(["change/parent", "wins", "claim", "worse by / bound", "verdict"].map(String::from))
        .collect::<Vec<_>>()];
    for cell in report["cells"].as_array().into_iter().flatten() {
        for m in cell["metrics"].as_array().into_iter().flatten() {
            let side = |s: &Value| {
                let f = |k: &str| sig4(s[k].as_f64().unwrap_or(f64::NAN));
                format!("{} [{}, {}]", f("median"), f("q1"), f("q3"))
            };
            rows.push(vec![
                cell["workload"].as_str().unwrap_or_default().to_string(),
                cell["seed"].to_string(),
                m["name"].as_str().unwrap_or_default().to_string(),
                side(&m["parent"]),
                side(&m["change"]),
                format!("{:.3}", m["change_over_parent"].as_f64().unwrap_or(f64::NAN)),
                format!("{}/{}", m["wins"], m["pairs"]),
                if m["claim_met"] == true { "met" } else { "not met" }.to_string(),
                format!(
                    "{:+.1}% / {:.0}%",
                    100.0 * m["worse_by"].as_f64().unwrap_or(f64::NAN),
                    100.0 * m["bound"].as_f64().unwrap_or(f64::NAN)
                ),
                m["verdict"].as_str().unwrap_or_default().to_string(),
            ]);
        }
    }
    let widths: Vec<usize> =
        (0..rows[0].len()).map(|i| rows.iter().map(|r| r[i].len()).max().unwrap_or(0)).collect();
    for row in rows {
        let line: Vec<String> =
            row.iter().zip(&widths).map(|(cell, w)| format!("{cell:<w$}")).collect();
        out.push_str(line.join("  ").trim_end());
        out.push('\n');
    }
    out
}

fn compare_builds(a: &Args, work: &Path) -> Result<Value, String> {
    let bench = read_benchmark()?;
    let workloads = if a.workloads.is_empty() { &bench.workloads } else { &a.workloads };
    let mut cells = Vec::new();
    for workload in workloads {
        for &seed in &a.seeds {
            let mut flags = ["--seed", &seed.to_string(), "--seconds", &bench.seconds.to_string()]
                .map(String::from)
                .to_vec();
            if a.smoke {
                flags.push("--smoke".into());
            }
            let mut cell =
                Cell { workload: workload.clone(), seed, parent: Vec::new(), change: Vec::new() };
            for pair in 0..a.pairs {
                let parent_first = pair % 2 == 0;
                for change_side in [!parent_first, parent_first] {
                    let (exe, side) =
                        if change_side { (&a.change, "change") } else { (&a.parent, "parent") };
                    eprintln!("ab_pairs: {workload} seed {seed} pair {} {side}", pair + 1);
                    let dir = work.join(format!("{workload}-{seed}-{pair}-{side}"));
                    let doc = run(exe, workload, &flags, &dir)?;
                    if change_side { &mut cell.change } else { &mut cell.parent }.push(doc);
                }
            }
            let deviations = cell.deviations();
            if !deviations.is_empty() {
                return Err(deviations.join("\n"));
            }
            cells.push(json!({
                "workload": workload.as_str(),
                "seed": seed,
                "simulated": cell.parent[0]["simulated"].clone(),
                "metrics": bench.metrics.iter().filter_map(|m| cell.compare(m)).collect::<Vec<_>>(),
            }));
        }
    }
    Ok(json!({
        "tool": "ab_pairs",
        "parent": a.parent.display().to_string(),
        "change": a.change.display().to_string(),
        "pairs": a.pairs,
        "seconds": bench.seconds,
        "smoke": a.smoke,
        "claim_rule": format!(
            "at least {MIN_PAIRS} pairs, the change better in at least 9 of every 10, and \
             |median(change) - median(parent)| > the parent's q3 - q1, in the better direction"
        ),
        "cells": cells,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("ab_pairs: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = std::env::temp_dir().join(format!("ab_pairs-{}", std::process::id()));
    let result = compare_builds(&a, &work);
    // The runs' outputs are throwaway; a failed removal leaves only that.
    let _ = std::fs::remove_dir_all(&work);
    let report = match result {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("ab_pairs: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let text = table(&report);
    print!("{text}");
    if let Some(prefix) = &a.out {
        let json = serde_json::to_string_pretty(&report).unwrap_or_default() + "\n";
        let write = |ext: &str, body: &str| {
            let path = prefix.with_extension(ext);
            std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
        };
        if let Err(msg) = write("json", &json).and_then(|()| write("txt", &text)) {
            eprintln!("ab_pairs: {msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(sim: f64, tps: f64) -> Value {
        json!({
            "simulated": {"sim_tps": {"value": sim, "unit": "1/s"}},
            "checks": [{"name": "recover", "ok": true, "detail": "ok"}],
            "host": {"host_txn_per_s": {"value": tps, "unit": "1/s"}},
        })
    }

    fn cell(parent: &[f64], change: &[f64]) -> Cell {
        Cell {
            workload: "w".into(),
            seed: 7,
            parent: parent.iter().map(|&t| doc(1.0, t)).collect(),
            change: change.iter().map(|&t| doc(1.0, t)).collect(),
        }
    }

    fn tps() -> Metric {
        Metric { name: "host_txn_per_s".into(), higher_is_better: true, bound: 0.2 }
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [2.5, 1.75, 3.25]);
        assert_eq!(quartiles(&[5.0]), [5.0, 5.0, 5.0]);
    }

    #[test]
    fn the_claim_needs_ten_pairs_nine_wins_and_a_gap_past_the_quartiles() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let ahead = |by: f64| parent.iter().map(|p| p + by).collect::<Vec<_>>();
        let met = |c: &Cell| c.compare(&tps()).unwrap()["claim_met"] == true;
        // Ten wins, medians 20 apart against a quartile distance of 4.5.
        assert!(met(&cell(&parent, &ahead(20.0))));
        // Ten wins, but the medians are only 3 apart.
        assert!(!met(&cell(&parent, &ahead(3.0))));
        // Eight wins.
        let mut two_lost = ahead(20.0);
        two_lost[..2].iter_mut().for_each(|c| *c = 0.0);
        assert!(!met(&cell(&parent, &two_lost)));
        // Two pairs can never make a claim.
        assert!(!met(&cell(&parent[..2], &ahead(20.0)[..2])));
        // Lower is better: a gain in the wrong direction is no claim.
        let rss = Metric { name: "host_txn_per_s".into(), higher_is_better: false, bound: 0.1 };
        assert_eq!(cell(&parent, &ahead(20.0)).compare(&rss).unwrap()["wins"], 0);
    }

    #[test]
    fn the_regression_verdict_weighs_the_median_against_the_bound_unless_the_runs_spread_wider() {
        let verdict = |parent: &[f64], change: &[f64]| {
            let m = cell(parent, change).compare(&tps()).unwrap();
            (m["verdict"].as_str().unwrap().to_string(), m["worse_by"].as_f64().unwrap())
        };
        // A parent tight around 100 (quartile distance 1.5 %).
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + 0.3 * f64::from(i)).collect();
        let scaled = |by: f64| parent.iter().map(|p| p * by).collect::<Vec<_>>();
        // 10 % slower: within the 20 % bound; 30 % slower: past it; faster:
        // a negative share, within.
        let (v, worse) = verdict(&parent, &scaled(0.9));
        assert_eq!(v, "within bound");
        assert!((worse - 0.1).abs() < 1e-9, "{worse}");
        assert_eq!(verdict(&parent, &scaled(0.7)).0, "worse than bound");
        let (v, worse) = verdict(&parent, &scaled(1.5));
        assert_eq!((v.as_str(), worse < 0.0), ("within bound", true));
        // A parent whose quartiles lie 40 % of its median apart cannot
        // resolve a 20 % bound, whichever way the change's median lies...
        let wide = [60.0, 60.0, 70.0, 80.0, 100.0, 100.0, 120.0, 120.0, 140.0, 140.0];
        assert_eq!(verdict(&wide, &wide).0, "unresolved");
        assert_eq!(verdict(&wide, &[50.0; 10]).0, "unresolved");
        // ...unless every run of the change beats every run of the parent.
        assert_eq!(verdict(&wide, &[150.0; 10]).0, "within bound");
        // Lower is better: the share is taken the other way.
        let rss = Metric { name: "host_txn_per_s".into(), higher_is_better: false, bound: 0.1 };
        let m = cell(&parent, &scaled(1.2)).compare(&rss).unwrap();
        assert_eq!(m["verdict"], "worse than bound");
        assert!((m["worse_by"].as_f64().unwrap() - 0.2).abs() < 1e-9);
        // The table shows both.
        let report = json!({"cells": [{"workload": "w", "seed": 7, "metrics": [m]}]});
        let text = table(&report);
        assert!(text.contains("+20.0% / 10%") && text.contains("worse than bound"), "{text}");
    }

    #[test]
    fn a_moved_simulated_value_or_check_is_a_deviation() {
        let mut c = cell(&[1.0, 2.0], &[1.0, 2.0]);
        assert!(c.deviations().is_empty());
        c.change[1] = doc(2.0, 2.0);
        c.parent[1] = json!({
            "simulated": c.parent[0]["simulated"].clone(),
            "checks": [{"name": "recover", "ok": false, "detail": "ok"}],
        });
        assert_eq!(c.deviations().len(), 2);
    }

    #[test]
    fn no_arguments_is_usage_and_missing_builds_are_refused() {
        assert!(parse_args(&["--pairs".into(), "3".into()]).is_err());
        let a =
            parse_args(&["--parent", "a", "--change", "b", "--seeds", "7,23"].map(String::from))
                .unwrap();
        assert_eq!((a.pairs, a.seeds, a.workloads.len()), (10, vec![7, 23], 0));
    }
}
