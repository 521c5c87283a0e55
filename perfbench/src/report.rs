//! `BENCHMARK.json` as the benchmark reads it, the outcome of one
//! workload run, and the lines a run prints.
//!
//! `BENCHMARK.json` is the only list of metric names: a workload hands
//! over whatever it measured, and [`finish`] refuses a name the file does
//! not know, so the file and the code cannot drift apart.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One entry of `end_to_end` or `per_layer`.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself needs.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Directory that holds `BENCHMARK.json`: the root of the checkout.
    pub root: PathBuf,
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn metric_defs(doc: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))?;
    items
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry lacks `{f}`"))
            };
            Ok(MetricDef {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                better: match field("better")? {
                    "higher" => Better::Higher,
                    "lower" => Better::Lower,
                    other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Manifest {
    /// Parse the text of a `BENCHMARK.json` found in `root`.
    pub fn parse(text: &str, root: &Path) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: `workloads` is not a list")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        Ok(Self {
            root: root.to_path_buf(),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: `run_seconds` is not a number")?,
            workloads,
            end_to_end: metric_defs(&doc, "end_to_end")?,
            per_layer: metric_defs(&doc, "per_layer")?,
        })
    }

    /// Load `BENCHMARK.json` from the working directory (how the
    /// benchmark is run) or, failing that, from the parent of this
    /// package's source directory (how `cargo test` runs).
    pub fn locate() -> Result<Self, String> {
        let candidates = [
            PathBuf::from("."),
            Path::new(env!("CARGO_MANIFEST_DIR")).join(".."),
        ];
        for root in candidates {
            if let Ok(text) = std::fs::read_to_string(root.join("BENCHMARK.json")) {
                return Self::parse(&text, &root);
            }
        }
        Err("BENCHMARK.json not found: run from the root of the checkout".into())
    }

    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose result was checked or waited for.
    pub attempted: u64,
    /// Of those, how many errored, timed out or answered wrongly.
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Free-form lines for the reader: configurations, sample counts.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Count `attempted` checked operations of which `failed` failed.
    pub fn checks(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// The result object of one run, as the last line of output carries it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::Str(unit.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let num = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result lacks `{k}`"))
        };
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result lacks `metrics`")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                    _ => Err(format!("metric `{name}` lacks value or unit")),
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            correct: doc
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("result lacks `correct`")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Turn an [`Outcome`] into the result of a run: every end-to-end
/// metric for an untraced run, every per-layer metric for a traced one.
///
/// A per-layer metric the workload did not set reads 0: that layer did
/// no work in this workload. An end-to-end metric must be set, and be
/// positive. A name `BENCHMARK.json` does not list is an error.
pub fn finish(manifest: &Manifest, outcome: &Outcome, trace: bool) -> Result<RunResult, String> {
    for name in outcome.metrics.keys() {
        if manifest.metric(name).is_none() {
            return Err(format!(
                "metric `{name}` is measured but not in BENCHMARK.json"
            ));
        }
    }
    let defs = if trace {
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    };
    let mut metrics = Vec::with_capacity(defs.len());
    for def in defs {
        let value = match outcome.metrics.get(&def.name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric `{}` is {v}", def.name)),
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric `{}` was not measured", def.name)),
        };
        if !trace && value <= 0.0 {
            return Err(format!("end-to-end metric `{}` is {value}", def.name));
        }
        metrics.push((def.name.clone(), value, def.unit.clone()));
    }
    if outcome.attempted == 0 {
        return Err("the workload checked no operation".into());
    }
    Ok(RunResult {
        correct: outcome.failed == 0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
    })
}

/// Print a run: the stamp and notes as `#` lines, one line per measured
/// metric, and the result object (which carries every metric) as the
/// last line.
pub fn print_run(stamp: &[(String, String)], outcome: &Outcome, result: &RunResult) {
    let stamp_line: Vec<String> = stamp.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# {}", stamp_line.join(" "));
    for note in &outcome.notes {
        println!("# {note}");
    }
    let width = result
        .metrics
        .iter()
        .map(|(n, _, _)| n.len())
        .max()
        .unwrap_or(0);
    let mut idle = 0;
    for (name, value, unit) in &result.metrics {
        if outcome.metrics.contains_key(name) {
            println!("{name:<width$}  {value:>16.6} {unit}");
        } else {
            idle += 1;
        }
    }
    if idle > 0 {
        println!("# {idle} metrics of layers this workload does not exercise read 0");
    }
    println!(
        "# attempted={} failed={} correct={}",
        result.attempted, result.failed, result.correct
    );
    println!("{}", result.to_json().encode());
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "command": ["x"], "paths": ["p"], "run_seconds": 3,
        "workloads": [{"name": "a", "why": "w"}, {"name": "b", "why": "w"}],
        "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "l.x", "unit": "count", "better": "higher"}]
    }"#;

    #[test]
    fn finish_selects_by_trace_mode_and_rejects_unknown_names() {
        let m = Manifest::parse(DOC, Path::new(".")).unwrap();
        assert_eq!(m.workloads, ["a", "b"]);
        let mut o = Outcome::default();
        o.check(true);
        o.set("setup_s", 0.5);
        let untraced = finish(&m, &o, false).unwrap();
        assert_eq!(untraced.metrics, [("setup_s".into(), 0.5, "s".into())]);
        // An unset per-layer metric reads 0; an unset end-to-end one is an error.
        let traced = finish(&m, &o, true).unwrap();
        assert_eq!(traced.metrics, [("l.x".into(), 0.0, "count".into())]);
        assert!(finish(&m, &Outcome::default(), false).is_err());
        o.set("typo", 1.0);
        assert!(finish(&m, &o, false).is_err());
    }

    #[test]
    fn result_round_trips_through_its_json_line() {
        let r = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s".into(), 0.812_7, "s".into())],
        };
        let back = RunResult::from_json(&Json::parse(&r.to_json().encode()).unwrap()).unwrap();
        assert_eq!(back, r);
    }
}
