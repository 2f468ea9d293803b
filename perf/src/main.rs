//! `ipa-perf` command line. See README.md.

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use ipa_perf::bench::{self, Invocation};
use ipa_perf::report;
use ipa_perf::spec::{self, WORKLOADS};
use serde_json::{json, Map, Value};

const USAGE: &str = "\
usage: ipa-perf [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                [--out DIR] [--smoke] [--check-against FILE]

  --workload NAME   one of tpcb_ipa, tpcb_oop, tpcb_k8, tpcc_mix; without it
                    every workload runs in a process of its own
  --seed N          seed of load and transaction streams (default 0x1DA5EED)
  --seconds S       window length the transaction count is scaled to (default 10)
  --trace [0|1]     1: also run traced and report the per-layer metrics
  --out DIR         write <workload>.json (and trace_<workload>.json) there;
                    without --workload also ipa-perf.json
  --smoke           2 000 measured transactions per workload
  --check-against FILE
                    compare with a previous output of the same seed: simulated
                    values must be equal, end-to-end host values within
                    their bounds";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    check_against: Option<PathBuf>,
    inject_imbalance: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.replace('_', "").parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
        out: None,
        smoke: false,
        check_against: None,
        inject_imbalance: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if spec::workload(&name).is_none() {
                    return Err(format!("unknown workload `{name}`"));
                }
                a.workload = Some(name);
            }
            "--seed" => {
                let v = value("--seed")?;
                a.seed = parse_u64(&v).ok_or(format!("--seed: `{v}` is not a number"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                a.seconds = parse_u64(&v)
                    .filter(|s| (1..=60).contains(s))
                    .ok_or(format!("--seconds: `{v}` is not a whole number from 1 to 60"))?;
            }
            "--trace" => {
                // `--trace 0|1` (driver) or bare `--trace`.
                a.trace = it.next_if(|v| v == "0" || v == "1").is_none_or(|v| v == "1");
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => a.smoke = true,
            "--check-against" => a.check_against = Some(PathBuf::from(value("--check-against")?)),
            // Test hook of the negative check test; not part of the interface.
            "--inject-imbalance" => a.inject_imbalance = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_json(path: &Path, doc: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare `doc` with the matching part of a previous output (a single
/// workload document, or the combined one).
fn compare(doc: &Value, previous: &Value) -> bool {
    let name = doc["workload"].as_str().unwrap_or_default();
    let old =
        if previous["workloads"].is_object() { &previous["workloads"][name] } else { previous };
    if old["workload"] != doc["workload"] {
        println!("{name} check-against: the previous output has no such workload");
        return false;
    }
    let (lines, ok) = report::check_against(doc, old);
    for line in lines {
        println!("{name} check-against {line}");
    }
    ok
}

/// Run one workload in this process.
fn run_one(a: &Args, name: &str) -> Result<bool, String> {
    let inv = Invocation {
        spec: spec::workload(name).ok_or("unknown workload")?,
        seed: a.seed,
        seconds: a.seconds,
        smoke: a.smoke,
        trace: a.trace,
        inject_imbalance: a.inject_imbalance,
    };
    let result = bench::invoke(&inv)?;
    report::print_lines(name, &result.end_to_end);
    if let Some(layers) = &result.per_layer {
        report::print_lines(name, layers);
    }
    println!("{name} failed_frac {} ratio", result.plain.failed_frac());
    for c in result.plain.checks.iter().filter(|c| !c.ok) {
        println!("{name} CHECK FAILED: {} ({})", c.name, c.detail);
    }
    if result.plain.oncpu_frac < 0.9 {
        println!("{name} NOISY: on CPU for {:.2} of the window", result.plain.oncpu_frac);
    }
    let doc = report::document(
        &result.plain,
        a.seconds,
        a.smoke,
        &result.end_to_end,
        result.per_layer.as_deref(),
    );
    let mut ok = result.plain.failed_checks() == 0 && result.plain.failed_txns == 0;
    if let Some(dir) = &a.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        write_json(&dir.join(format!("{name}.json")), &doc)?;
        if let Some(spans) = &result.spans {
            let path = dir.join(format!("trace_{name}.json"));
            let file =
                std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut w = BufWriter::new(file);
            spans
                .write_json(&mut w)
                .and_then(|()| w.flush())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    if let Some(path) = &a.check_against {
        ok &= compare(&doc, &read_json(path)?);
    }
    let shown =
        if a.trace { result.per_layer.as_deref().unwrap_or(&[]) } else { &result.end_to_end };
    println!("{}", report::contract_line(&result.plain, shown));
    Ok(ok)
}

/// Run every workload, each in a process of its own (so peak memory is per
/// workload), then print the `tpcb_ipa ÷ tpcb_oop` summary.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    let mut lines: Map<String, Value> = Map::new();
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &a.seed.to_string()]);
        cmd.args(["--seconds", &a.seconds.to_string(), "--trace", if a.trace { "1" } else { "0" }]);
        if a.smoke {
            cmd.arg("--smoke");
        }
        if let Some(dir) = &a.out {
            cmd.arg("--out").arg(dir);
        }
        if let Some(path) = &a.check_against {
            cmd.arg("--check-against").arg(path);
        }
        let out = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        ok &= out.status.success();
        if let Some(last) = text.lines().last() {
            if let Ok(v) = serde_json::from_str::<Value>(last) {
                lines.insert(w.name.to_string(), v);
            }
        }
    }
    if !a.trace {
        // Information only: the paper's Table 7 cell (10 % buffer, [2x4] vs
        // [0x0]) reports throughput +31 % and GC erases -55 % over runs of
        // equal duration, i.e. erases per transaction x0.34.
        for (metric, paper) in
            [("sim_tps", "1.31"), ("write_amp", "not reported"), ("erases_per_ktxn", "0.34")]
        {
            let v = |w: &str| lines[w]["metrics"][metric]["value"].as_f64();
            if let (Some(ipa), Some(oop)) = (v("tpcb_ipa"), v("tpcb_oop")) {
                println!(
                    "summary tpcb_ipa/tpcb_oop {metric} {:.4} (paper Table 7: {paper})",
                    ipa / oop
                );
            }
        }
    }
    if let Some(dir) = &a.out {
        let mut workloads = Map::new();
        for w in &WORKLOADS {
            workloads.insert(w.name.to_string(), read_json(&dir.join(format!("{}.json", w.name)))?);
        }
        let doc = json!({"benchmark": "ipa-perf", "seed": a.seed, "workloads": workloads});
        write_json(&dir.join("ipa-perf.json"), &doc)?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("ipa-perf: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(name) => run_one(&args, name),
        None => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("ipa-perf: {msg}");
            ExitCode::FAILURE
        }
    }
}
