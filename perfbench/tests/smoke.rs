//! `BENCHMARK.json` against the limits of its contract, and a smoke run
//! of the whole command: every workload, untraced and traced, at tiny
//! sizes, must print exactly the names `BENCHMARK.json` lists.

use std::path::{Path, PathBuf};
use std::process::Command;

use ist_perfbench::json::Json;
use ist_perfbench::ledger::Ledger;
use ist_perfbench::report::Manifest;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap();
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    Json::parse(&text).unwrap()
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

fn keys(v: &Json) -> Vec<&str> {
    v.as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn benchmark_json_meets_its_contract() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["perfbench"]);
    let command = doc.get("command").unwrap().as_arr().unwrap();
    assert!(command.len() <= 32);
    for arg in command {
        let arg = arg.as_str().unwrap();
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "{arg}"
        );
    }
    let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let mut names = Vec::new();
    let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w.get("why").unwrap().as_str().unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        names.push(w.get("name").unwrap().as_str().unwrap());
    }
    let end_to_end = doc.get("end_to_end").unwrap().as_arr().unwrap();
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let per_layer = doc.get("per_layer").unwrap().as_arr().unwrap();
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    for m in end_to_end.iter().chain(per_layer) {
        assert!(is_unit(m.get("unit").unwrap().as_str().unwrap()));
        assert!(matches!(
            m.get("better").unwrap().as_str(),
            Some("higher" | "lower")
        ));
        names.push(m.get("name").unwrap().as_str().unwrap());
    }
    for name in &names {
        assert!(is_name(name), "{name}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");

    let setup = end_to_end
        .iter()
        .find(|m| m.get("name").unwrap().as_str() == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    assert_eq!(setup.get("better").unwrap().as_str(), Some("lower"));
    let largest = end_to_end
        .iter()
        .map(|m| m.get("bound").unwrap().as_f64().unwrap())
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").unwrap().as_f64(), Some(largest));
}

#[test]
fn smoke_run_prints_exactly_the_listed_metrics_and_compares_clean() {
    let manifest = Manifest::locate().unwrap();
    let bench = env!("CARGO_BIN_EXE_bench");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let ledger_path = dir.join("smoke-ledger.json");
    let output = Command::new(bench)
        .current_dir(root())
        .args(["--all", "--smoke", "--seed", "7", "--out"])
        .arg(&ledger_path)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );

    let ledger = Ledger::parse(&std::fs::read_to_string(&ledger_path).unwrap()).unwrap();
    assert_eq!(ledger.runs.len(), 2 * manifest.workloads.len());
    for run in &ledger.runs {
        assert!(manifest.workloads.contains(&run.workload));
        assert!(
            run.result.correct && run.result.failed == 0,
            "{}",
            run.workload
        );
        assert!(run.result.attempted >= 1);
        let listed = if run.trace {
            &manifest.per_layer
        } else {
            &manifest.end_to_end
        };
        let printed: Vec<&str> = run.result.metrics.iter().map(|m| m.0.as_str()).collect();
        let expected: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(printed, expected, "{} trace {}", run.workload, run.trace);
        for ((name, value, unit), def) in run.result.metrics.iter().zip(listed) {
            assert!(is_name(name) && value.is_finite());
            assert_eq!(unit, &def.unit);
            assert!(
                run.trace || *value > 0.0,
                "{name} on {} is {value}",
                run.workload
            );
        }
    }
    // Every per-layer metric is measured by at least one workload.
    for def in &manifest.per_layer {
        let measured = ledger
            .runs
            .iter()
            .any(|r| r.trace && r.result.value(&def.name).is_some_and(|v| v != 0.0));
        let may_be_zero = [
            "query.btree.wide_active",
            "dynamic.buffer_element_moves",
            "trace_overhead_share",
        ];
        assert!(
            measured || may_be_zero.contains(&def.name.as_str()),
            "{} is never measured",
            def.name
        );
    }
    // One span file per workload.
    for workload in &manifest.workloads {
        let trace = Path::new(bench)
            .parent()
            .unwrap()
            .join("../bench")
            .join(format!("trace-{workload}.jsonl"));
        let text = std::fs::read_to_string(&trace).unwrap();
        let first = Json::parse(text.lines().next().unwrap()).unwrap();
        assert!(first.get("name").is_some() && first.get("start_ns").is_some());
    }

    // A ledger compared with itself is within every bound.
    let compare = Command::new(bench)
        .current_dir(root())
        .arg("compare")
        .args([&ledger_path, &ledger_path])
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "{table}");
    assert_eq!(
        table.matches("within bound").count(),
        manifest.workloads.len() * manifest.end_to_end.len()
    );
}

#[test]
fn compare_exits_non_zero_on_a_regression() {
    let manifest = Manifest::locate().unwrap();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let ledger = |throughput: f64| {
        let metrics: Vec<String> = manifest
            .end_to_end
            .iter()
            .map(|m| {
                let v = if m.name == "throughput_kops_s" {
                    throughput
                } else {
                    1.0
                };
                format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"stamp\":{{}},\"runs\":[{{\"workload\":\"construct\",\"trace\":0,\"seed\":1,\
             \"result\":{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{{}}}}}}}]}}",
            metrics.join(",")
        )
    };
    let (a, b) = (dir.join("cmp-a.json"), dir.join("cmp-b.json"));
    std::fs::write(&a, ledger(100.0)).unwrap();
    std::fs::write(&b, ledger(50.0)).unwrap();
    let run = |x: &Path, y: &Path| {
        Command::new(env!("CARGO_BIN_EXE_bench"))
            .current_dir(root())
            .arg("compare")
            .args([x, y])
            .output()
            .unwrap()
    };
    let worse = run(&a, &b);
    assert_eq!(worse.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&worse.stdout).contains("WORSE"));
    let better = run(&b, &a);
    assert!(better.status.success());
    assert!(String::from_utf8_lossy(&better.stdout).contains("better"));
}
