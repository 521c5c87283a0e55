//! `bench compare A.json B.json`: apply the bounds of `BENCHMARK.json`
//! to two ledgers, one row per (metric, workload).

use crate::ledger::Ledger;
use crate::report::{Better, Manifest, MetricDef};
use crate::stats::{median, spread};

/// What the two sides of one (metric, workload) pairing say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of B is better than every run of A (or, with a single
    /// run a side, B is better by more than the bound).
    Better,
    /// B's median is no worse than A's by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread between a side's own runs is wider than the bound, so
    /// neither of the above can be said.
    Unresolved,
    /// One side has no value.
    Missing,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    /// How much worse B's median is than A's, as a share of A's
    /// (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge `b` against `a` for a metric with direction `better` and
/// regression bound `bound`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    if a.is_empty() || b.is_empty() {
        return (0.0, Verdict::Missing);
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let is_better = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let b_dominates = b.iter().all(|&x| a.iter().all(|&y| is_better(x, y)));
    let repeated = a.len() > 1 && b.len() > 1;
    let verdict = if b_dominates && (repeated || -worse_by > bound) {
        Verdict::Better
    } else if repeated && spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    };
    (worse_by, verdict)
}

/// Per-layer metrics that are counts of a deterministic computation:
/// between two runs of one commit they must not differ at all.
pub fn is_exact_counter(name: &str) -> bool {
    name.starts_with("core.pem_ios.")
        || name.starts_with("core.gpu_transactions.")
        || name.ends_with(".nodes_per_descent")
        || name.ends_with(".lines_per_descent")
}

fn row(workload: &str, def: &MetricDef, a: &Ledger, b: &Ledger) -> Row {
    let (va, vb) = (a.values(workload, &def.name), b.values(workload, &def.name));
    let bound = def.bound.unwrap_or(0.0);
    let (worse_by, verdict) = judge(&va, &vb, def.better, bound);
    Row {
        workload: workload.to_string(),
        metric: def.name.clone(),
        unit: def.unit.clone(),
        a: median(&va),
        b: median(&vb),
        worse_by,
        bound,
        verdict,
    }
}

/// The comparison of two ledgers: the end-to-end rows, the exact
/// counters that changed, and whether anything counts as a regression.
pub struct Comparison {
    pub rows: Vec<Row>,
    /// `(workload, metric, a, b)` of exact counters that differ.
    pub changed_counters: Vec<(String, String, f64, f64)>,
    /// `(workload, failed in A, failed in B)` where B failed more.
    pub more_failures: Vec<(String, u64, u64)>,
}

impl Comparison {
    pub fn new(manifest: &Manifest, a: &Ledger, b: &Ledger) -> Self {
        let mut rows = Vec::new();
        let mut changed_counters = Vec::new();
        let mut more_failures = Vec::new();
        for workload in &manifest.workloads {
            for def in &manifest.end_to_end {
                rows.push(row(workload, def, a, b));
            }
            for def in manifest
                .per_layer
                .iter()
                .filter(|d| is_exact_counter(&d.name))
            {
                let (va, vb) = (a.values(workload, &def.name), b.values(workload, &def.name));
                if let (Some(&x), Some(&y)) = (va.first(), vb.first()) {
                    let differs = va.iter().chain(&vb).any(|&v| v != x);
                    if differs {
                        changed_counters.push((workload.clone(), def.name.clone(), x, y));
                    }
                }
            }
            let (fa, fb) = (a.failed(workload), b.failed(workload));
            if fb > fa {
                more_failures.push((workload.clone(), fa, fb));
            }
        }
        Self {
            rows,
            changed_counters,
            more_failures,
        }
    }

    /// A regression: a metric worse than its bound allows, or more
    /// failed operations than before.
    pub fn regressed(&self) -> bool {
        !self.more_failures.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Worse)
    }

    pub fn print(&self) {
        println!(
            "{:<20} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
            "workload", "metric", "A (median)", "B (median)", "worse by", "bound"
        );
        for r in &self.rows {
            println!(
                "{:<20} {:<20} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {} [{}]",
                r.workload,
                r.metric,
                r.a,
                r.b,
                r.worse_by * 100.0,
                r.bound * 100.0,
                r.verdict.label(),
                r.unit
            );
        }
        for (workload, metric, a, b) in &self.changed_counters {
            println!("exact counter changed: {workload} {metric}: {a} -> {b}");
        }
        for (workload, a, b) in &self.more_failures {
            println!("more failed operations: {workload}: {a} -> {b}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_runs_are_judged_by_the_bound_alone() {
        assert_eq!(
            judge(&[100.0], &[105.0], Better::Lower, 0.10).1,
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&[100.0], &[115.0], Better::Lower, 0.10).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&[100.0], &[80.0], Better::Lower, 0.10).1,
            Verdict::Better
        );
        assert_eq!(
            judge(&[100.0], &[85.0], Better::Higher, 0.10).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&[100.0], &[120.0], Better::Higher, 0.10).1,
            Verdict::Better
        );
        assert_eq!(judge(&[], &[1.0], Better::Lower, 0.1).1, Verdict::Missing);
    }

    #[test]
    fn repeated_runs_need_a_spread_inside_the_bound() {
        let steady = [100.0, 101.0, 99.0, 100.0, 102.0];
        let slower = [120.0, 121.0, 119.0, 122.0, 120.0];
        assert_eq!(
            judge(&steady, &slower, Better::Lower, 0.10).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&slower, &steady, Better::Lower, 0.10).1,
            Verdict::Better
        );
        let noisy = [60.0, 140.0, 100.0, 90.0, 130.0];
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.10).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&steady, &steady, Better::Lower, 0.10).1,
            Verdict::WithinBound
        );
    }

    #[test]
    fn exact_counters_are_recognised_by_name() {
        assert!(is_exact_counter("core.pem_ios.bst.involution"));
        assert!(is_exact_counter("query.veb.lines_per_descent"));
        assert!(!is_exact_counter("core.permute_ms.bst.involution.perfect"));
    }
}
