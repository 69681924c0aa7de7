//! Self-tests of the benchmark binary: argument errors, a tiny-input smoke
//! run of every workload that must emit every metric `BENCHMARK.json`
//! names, and the replay-equivalence check at tiny scale.

use std::process::{Command, Output};

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
/// The file is the one at the repository root, beside this package.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| {
        let from = obj.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
        obj[from..from + obj[from..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// Runs a tiny workload and checks that its result line carries exactly
/// the metrics of `section`, each with its declared unit.
fn smoke(workload: &str, trace: &str, section: &str) {
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "0.01",
        "--trace",
        trace,
        "--scale",
        "0.02",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let line = stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, "), "{line}");
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in &metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        let rest = &line[at + key.len()..];
        let value: f64 = rest[..rest.find(',').expect("value ends")]
            .parse()
            .unwrap_or_else(|_| panic!("{workload}: {name} is not a number"));
        assert!(value.is_finite());
        assert!(
            rest.contains(&format!(", \"unit\": \"{unit}\"}}")),
            "{workload}: {name} lacks unit {unit}"
        );
    }
    assert_eq!(line.matches("\"value\": ").count(), metrics.len(), "{line}");
}

#[test]
fn missing_or_malformed_seed_exits_2_without_a_result() {
    for args in [
        &["--workload", "fleet", "--seconds", "1", "--trace", "0"][..],
        &[
            "--workload",
            "fleet",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "fleet",
            "--seed",
            "-3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "fleet",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--seed",
        ],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--seed"));
    }
}

#[test]
fn tiny_untraced_runs_emit_every_end_to_end_metric() {
    for w in ["card_clean", "cached_disk", "fleet"] {
        smoke(w, "0", "end_to_end");
    }
}

#[test]
fn tiny_traced_runs_pass_replay_equivalence_and_emit_every_layer_metric() {
    for w in ["card_clean", "cached_disk", "fleet"] {
        smoke(w, "1", "per_layer");
    }
}
