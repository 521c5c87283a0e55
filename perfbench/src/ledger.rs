//! A ledger: the results of a set of runs in one JSON file, stamped
//! with where they were measured. `bench --all --out FILE` writes one;
//! `bench compare` reads two.

use crate::json::Json;
use crate::report::RunResult;

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct LedgerRun {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub result: RunResult,
}

/// A set of runs and the stamp of the machine and build they came from.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub stamp: Vec<(String, String)>,
    pub runs: Vec<LedgerRun>,
}

impl Ledger {
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "stamp",
                Json::Obj(
                    self.stamp
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "runs",
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("workload", Json::Str(r.workload.clone())),
                                ("trace", Json::Num(f64::from(u8::from(r.trace)))),
                                ("seed", Json::Num(r.seed as f64)),
                                ("result", r.result.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let stamp = doc
            .get("stamp")
            .and_then(Json::as_obj)
            .ok_or("ledger lacks `stamp`")?
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
            .collect();
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("ledger lacks `runs`")?
            .iter()
            .map(|r| {
                Ok(LedgerRun {
                    workload: r
                        .get("workload")
                        .and_then(Json::as_str)
                        .ok_or("run lacks `workload`")?
                        .to_string(),
                    trace: r.get("trace").and_then(Json::as_f64) == Some(1.0),
                    seed: r.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                    result: RunResult::from_json(r.get("result").ok_or("run lacks `result`")?)?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self { stamp, runs })
    }

    /// Every value of `metric` on `workload`, in run order.
    pub fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.result.value(metric))
            .collect()
    }

    /// Failed operations on `workload`, over all its runs.
    pub fn failed(&self, workload: &str) -> u64 {
        self.runs
            .iter()
            .filter(|r| r.workload == workload)
            .map(|r| r.result.failed)
            .sum()
    }
}
