//! Tests that drive the `ipa-perf` binary at smoke scale: the emitted
//! names equal the set `BENCHMARK.json` declares, one seed gives one
//! simulated section, and a broken ledger fails the run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde_json::Value;

/// Run the binary from the repository root with `args`.
fn ipa_perf(args: &[&str]) -> Output {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    Command::new(env!("CARGO_BIN_EXE_ipa-perf"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("the ipa-perf binary starts")
}

/// The last line of a run's standard output, parsed as JSON.
fn last_line(out: &Output) -> Value {
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().expect("ipa-perf printed a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

/// A fresh, empty scratch directory under the build's temporary directory.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("old scratch directory can be removed");
    }
    std::fs::create_dir_all(&dir).expect("scratch directory can be created");
    dir
}

/// Parse a JSON file.
fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn declared(list: &Value) -> BTreeMap<String, String> {
    list.as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m["name"].as_str().expect("metric name").to_string();
            (name, m["unit"].as_str().expect("metric unit").to_string())
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    let first = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    first
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn emitted_metrics_equal_the_declared_set() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bench = read_json(&manifest.join("../BENCHMARK.json"));
    let workloads: Vec<&str> = bench["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name"))
        .collect();
    let table: Vec<&str> = ipa_perf::spec::WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, table, "BENCHMARK.json and the workload table name different workloads");
    assert_eq!(bench["run_seconds"], ipa_perf::spec::DEFAULT_SECONDS);
    assert_eq!(bench["paths"], serde_json::json!(["perf"]));
    assert!(workloads.iter().all(|w| valid_name(w)));

    for m in &ipa_perf::spec::END_TO_END {
        let declared = bench["end_to_end"]
            .as_array()
            .expect("metric list")
            .iter()
            .find(|d| d["name"] == m.name)
            .unwrap_or_else(|| panic!("{} is not declared", m.name));
        assert_eq!(declared["bound"].as_f64(), m.bound, "{}: bound", m.name);
        let better = if m.higher_is_better { "higher" } else { "lower" };
        assert_eq!(declared["better"], better, "{}: direction", m.name);
    }

    let mut seen = std::collections::BTreeSet::new();
    for (key, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
        let want = declared(&bench[key]);
        for name in want.keys() {
            assert!(valid_name(name), "`{name}` is not a valid name");
            assert!(seen.insert(name.clone()), "`{name}` is declared twice");
        }
        for w in &workloads {
            let out = ipa_perf(&["--workload", w, "--smoke", "--seed", "7", "--trace", trace]);
            assert!(
                out.status.success(),
                "{w} --trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let line = last_line(&out);
            let keys: Vec<&String> = line.as_object().expect("result object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(line["correct"], true, "{w}");
            assert_eq!(line["failed"], 0u64, "{w}");
            assert!(line["attempted"].as_u64().expect("attempted") >= 1);
            let got = line["metrics"].as_object().expect("metrics object");
            let got_units: BTreeMap<String, String> = got
                .iter()
                .map(|(k, v)| (k.clone(), v["unit"].as_str().expect("unit").to_string()))
                .collect();
            let undeclared: Vec<_> =
                got_units.iter().filter(|kv| want.get(kv.0) != Some(kv.1)).collect();
            let missing: Vec<_> =
                want.iter().filter(|kv| got_units.get(kv.0) != Some(kv.1)).collect();
            assert!(
                undeclared.is_empty() && missing.is_empty(),
                "{w} --trace {trace}: emitted but not declared in BENCHMARK.json {undeclared:?}, \
                 declared but not emitted {missing:?}"
            );
            for (name, m) in got {
                let v = m["value"].as_f64().unwrap_or_else(|| panic!("{w} {name}: not a number"));
                assert!(v.is_finite(), "{w} {name} = {v}");
            }
            // Every `workload metric value unit` line names a declared metric.
            let text = String::from_utf8_lossy(&out.stdout);
            let prefix = format!("{w} ");
            for line in text.lines().filter(|l| l.starts_with(&prefix)) {
                let fields: Vec<&str> = line.split(' ').collect();
                if fields.len() != 4 {
                    continue; // a NOISY or CHECK FAILED note
                }
                let known = ["end_to_end", "per_layer"]
                    .iter()
                    .flat_map(|key| bench[*key].as_array().expect("metric list"))
                    .any(|m| m["name"] == fields[1] && m["unit"] == fields[3]);
                assert!(
                    known || fields[1] == "failed_frac",
                    "{w}: undeclared metric line `{line}`"
                );
            }
        }
    }
}

fn simulated(workload: &str, seed: &str, dir: &str) -> String {
    let out_dir = scratch(dir);
    let out = ipa_perf(&[
        "--workload",
        workload,
        "--smoke",
        "--seed",
        seed,
        "--trace",
        "1",
        "--out",
        out_dir.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let doc = read_json(&out_dir.join(format!("{workload}.json")));
    assert!(out_dir.join(format!("trace_{workload}.json")).exists(), "spans were written");
    let section = &doc["simulated"];
    for name in ["sim_tps", "write_amp", "erases_per_ktxn", "failed_frac", "flash.host_reads"] {
        assert!(section[name]["value"].is_number(), "{workload}: simulated section lacks {name}");
    }
    serde_json::to_string_pretty(section).expect("renders")
}

#[test]
fn simulated_section_repeats_per_seed_and_differs_across_seeds() {
    for w in ipa_perf::spec::WORKLOADS.iter().map(|w| w.name) {
        let a = simulated(w, "11", &format!("det-{w}-a"));
        let b = simulated(w, "11", &format!("det-{w}-b"));
        let c = simulated(w, "12", &format!("det-{w}-c"));
        assert_eq!(a, b, "{w}: same seed, different simulated section");
        assert_ne!(a, c, "{w}: different seeds, same simulated section");
    }
}

#[test]
fn unbalanced_state_fails_the_run() {
    let good = ipa_perf(&["--workload", "tpcb_ipa", "--smoke", "--trace", "0"]);
    assert!(good.status.success());
    assert_eq!(last_line(&good)["failed"], 0u64);

    let bad =
        ipa_perf(&["--workload", "tpcb_ipa", "--smoke", "--trace", "0", "--inject-imbalance"]);
    assert!(!bad.status.success(), "an unbalanced ledger must exit non-zero");
    let line = last_line(&bad);
    assert_eq!(line["correct"], false);
    assert!(line["failed"].as_u64().expect("failed") >= 1);
    let text = String::from_utf8_lossy(&bad.stdout);
    assert!(text.contains("CHECK FAILED: verify_balances before the crash"), "{text}");
    let frac: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("tpcb_ipa failed_frac "))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|v| v.parse().ok())
        .expect("failed_frac line");
    assert!(frac > 0.0);
}
