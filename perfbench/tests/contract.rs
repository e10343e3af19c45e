//! Runs the benchmark binary on each workload at the shortest length
//! (one unit of each kind, one traced pass) and checks its output
//! against `BENCHMARK.json`. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc: Value = serde_json::from_str(&doc).expect("BENCHMARK.json parses");
    let Value::Object(doc) = doc else {
        panic!("BENCHMARK.json is an object")
    };
    let Some(Value::Array(metrics)) = doc.get(section) else {
        panic!("BENCHMARK.json has a {section} list")
    };
    metrics
        .iter()
        .map(|m| {
            let Value::Object(m) = m else {
                panic!("{section} entries are objects")
            };
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run the benchmark; returns the exit code, the human-readable lines
/// and the parsed last line.
fn bench(args: &[&str]) -> (i32, Vec<String>, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let last = lines.pop().expect("some output");
    let result = serde_json::from_str(&last).expect("the last line is JSON");
    (out.status.code().unwrap_or(-1), lines, result)
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    let Value::Object(m) = v else {
        panic!("expected an object")
    };
    m.get(key).unwrap_or_else(|| panic!("missing key {key}"))
}

fn check_workload(workload: &str) {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let args = [
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            trace,
        ];
        let (code, lines, result) = bench(&args);
        assert_eq!(code, 0, "{workload} trace={trace}: exit code");
        assert_eq!(field(&result, "correct").as_bool(), Some(true));
        assert_eq!(field(&result, "failed").as_u64(), Some(0));
        assert!(field(&result, "attempted").as_u64().unwrap_or(0) >= 1);
        let metrics = field(&result, "metrics");
        let Value::Object(printed) = metrics else {
            panic!("metrics is an object")
        };
        let declared = declared(section);
        assert_eq!(
            printed.len(),
            declared.len(),
            "{workload}: no extra metrics"
        );
        for (name, unit) in &declared {
            let m = field(metrics, name);
            assert_eq!(
                field(m, "unit").as_str(),
                Some(unit.as_str()),
                "{name} unit"
            );
            let value = field(m, "value").as_f64().expect("numeric value");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
        }
        if trace == "0" {
            // Every end-to-end metric, and failed_frac, on a human line
            // with its unit and sample count.
            let mut names: Vec<(String, String)> = declared;
            names.push(("failed_frac".into(), "ratio".into()));
            for (name, unit) in names {
                let line = lines
                    .iter()
                    .find(|l| l.split_whitespace().next() == Some(name.as_str()))
                    .unwrap_or_else(|| panic!("{workload}: no line for {name}"));
                assert!(line.contains(&format!(" {unit} ")), "{line}");
                assert!(line.contains("n="), "{line}");
                if name == "failed_frac" {
                    assert_eq!(line.split_whitespace().nth(1), Some("0.000000"), "{line}");
                }
            }
        }
    }
}

#[test]
fn plan_scale8_prints_every_metric() {
    check_workload("plan-scale8");
}

#[test]
fn campaign_te_damping_prints_every_metric() {
    check_workload("campaign-te-damping");
}

#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
