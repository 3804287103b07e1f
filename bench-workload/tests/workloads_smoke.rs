//! Every workload's code path at tiny sizes (`--smoke`): every check
//! passes, the runner emits exactly the metrics `BENCHMARK.json`
//! declares, counts repeat exactly per seed, and bad arguments are
//! refused.
//!
//! Run with `cargo test --manifest-path bench-workload/Cargo.toml`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::process::{Command, Output};

use json::Value;

const WORKLOADS: [&str; 4] = ["verify", "ring-1e6", "protocol-n128", "campaign-n16"];

fn runner(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_graybox-workload"))
        .args(args)
        .output()
        .expect("the runner starts")
}

/// Runs a smoke-sized workload and returns its parsed result line.
fn smoke(workload: &str, seed: &str, trace: &str, tag: &str) -> Value {
    let spans = format!(
        "{}/spans-{tag}-{workload}.json",
        env!("CARGO_TARGET_TMPDIR")
    );
    let args = [
        "--workload",
        workload,
        "--smoke",
        "--seed",
        seed,
        "--trace",
        trace,
        "--spans",
        &spans,
    ];
    let output = runner(&args);
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{args:?} failed ({}): {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("the result is JSON")
}

/// `(name, unit, value)` of every metric in a result, in order.
fn metrics(result: &Value) -> Vec<(String, String, f64)> {
    let Some(Value::Obj(members)) = result.get("metrics") else {
        panic!("no metrics object in {result:?}");
    };
    members
        .iter()
        .map(|(name, metric)| {
            let Some(Value::Str(unit)) = metric.get("unit") else {
                panic!("{name} has no unit");
            };
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            (name.clone(), unit.clone(), value)
        })
        .collect()
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    let config = json::parse(&text).expect("BENCHMARK.json is JSON");
    let Some(Value::Arr(entries)) = config.get(section) else {
        panic!("BENCHMARK.json has no {section} array");
    };
    entries
        .iter()
        .map(|entry| match (entry.get("name"), entry.get("unit")) {
            (Some(Value::Str(name)), Some(Value::Str(unit))) => (name.clone(), unit.clone()),
            _ => panic!("malformed {section} entry {entry:?}"),
        })
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_emits_every_declared_metric() {
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = smoke(workload, "7", trace, "declared");
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64) >= Some(1.0));
            let emitted: Vec<(String, String)> = metrics(&result)
                .into_iter()
                .map(|(name, unit, value)| {
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                    (name, unit)
                })
                .collect();
            assert_eq!(emitted, declared(section), "{workload} --trace {trace}");
        }
        let spans = format!(
            "{}/spans-declared-{workload}.json",
            env!("CARGO_TARGET_TMPDIR")
        );
        let text = std::fs::read_to_string(spans).expect("the traced run wrote its spans");
        assert!(matches!(json::parse(&text), Ok(Value::Arr(s)) if !s.is_empty()));
    }
}

#[test]
fn the_same_seed_repeats_every_count_and_another_seed_changes_them() {
    for workload in ["ring-1e6", "protocol-n128", "campaign-n16"] {
        let counts = |seed, tag| -> Vec<(String, f64)> {
            metrics(&smoke(workload, seed, "1", tag))
                .into_iter()
                .filter(|(_, unit, _)| unit == "count")
                .map(|(name, _, value)| (name, value))
                .collect()
        };
        let first = counts("7", "repeat-a");
        assert_eq!(
            first,
            counts("7", "repeat-b"),
            "{workload} is not deterministic"
        );
        assert_ne!(
            first,
            counts("8", "other-seed"),
            "{workload} ignores its seed"
        );
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let cases: [&[&str]; 7] = [
        &[],
        &["--workload"],
        &["--workload", "nope"],
        &["--workload", "verify", "--seed"],
        &["--workload", "verify", "--out"],
        &["--workload", "verify", "--trace", "2"],
        &["--workload", "verify", "--bogus"],
    ];
    for args in cases {
        let output = runner(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
