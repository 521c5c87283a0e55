//! The `bench` command.
//!
//! ```text
//! bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! bench --all [--seed N] [--seconds S] [--repeat R] [--smoke] [--out FILE]
//! bench compare A.json B.json
//! ```
//!
//! One workload run prints its stamp, every metric by name with its
//! unit, and, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics for
//! `--trace 0`, the per-layer metrics for `--trace 1`. `--all` runs
//! every workload both ways, each in a process of its own so that peak
//! memory is per workload, and writes a ledger; `compare` applies the
//! bounds of `BENCHMARK.json` to two ledgers and exits non-zero when a
//! metric got worse than its bound allows.

use std::process::{Command, ExitCode};

use ist_perfbench::compare::Comparison;
use ist_perfbench::ledger::{Ledger, LedgerRun};
use ist_perfbench::report::{finish, print_run, Manifest, RunResult};
use ist_perfbench::workloads::{self, Ctx};
use ist_perfbench::{env, json::Json, procfs};

fn usage() -> String {
    "usage: bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
     bench --all [--seed N] [--seconds S] [--repeat R] [--smoke] [--out FILE]\n       \
     bench compare A.json B.json"
        .into()
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 1,
        repeat: 1,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        let bad = |what: &str| format!("{flag}: {what}\n{}", usage());
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--all" => parsed.all = true,
            "--smoke" => parsed.smoke = true,
            "--seed" => parsed.seed = value()?.parse().map_err(|_| bad("not a number"))?,
            "--repeat" => parsed.repeat = value()?.parse().map_err(|_| bad("not a number"))?,
            "--out" => parsed.out = Some(value()?.clone()),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("out of range"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    if parsed.all == parsed.workload.is_some() {
        return Err(format!("give either --workload or --all\n{}", usage()));
    }
    Ok(parsed)
}

/// Seconds a run measures for when `--seconds` is not given.
fn default_seconds(manifest: &Manifest, smoke: bool) -> f64 {
    if smoke {
        0.4
    } else {
        manifest.run_seconds
    }
}

fn run_one(manifest: &Manifest, args: &Args, workload: &str) -> Result<RunResult, String> {
    if !manifest.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload `{workload}`; BENCHMARK.json has: {}",
            manifest.workloads.join(", ")
        ));
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or_else(|| default_seconds(manifest, args.smoke)),
        trace: args.trace,
        smoke: args.smoke,
    };
    let mut outcome = workloads::run(workload, &ctx)?;
    // The in-process workloads are their own process under test.
    if !ctx.trace && !outcome.metrics.contains_key("peak_rss_mb") {
        let rss = procfs::peak_rss_mb(std::process::id()).ok_or("cannot read VmHWM")?;
        outcome.set("peak_rss_mb", rss);
    }
    let result = finish(manifest, &outcome, ctx.trace)?;
    print_run(&env::stamp(&manifest.root, ctx.seed), &outcome, &result);
    Ok(result)
}

/// Run every workload, untraced and traced, each in its own process.
fn run_all(manifest: &Manifest, args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ledger = Ledger {
        stamp: env::stamp(&manifest.root, args.seed),
        runs: Vec::new(),
    };
    let mut all_correct = true;
    for _ in 0..args.repeat.max(1) {
        for workload in &manifest.workloads {
            for trace in [false, true] {
                let mut cmd = Command::new(&exe);
                cmd.current_dir(&manifest.root)
                    .args(["--workload", workload])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }]);
                if let Some(s) = args.seconds {
                    cmd.args(["--seconds", &s.to_string()]);
                }
                if args.smoke {
                    cmd.arg("--smoke");
                }
                let output = cmd
                    .output()
                    .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                println!("== {workload} (trace {}) ==", u8::from(trace));
                print!("{stdout}");
                if !output.status.success() {
                    eprint!("{}", String::from_utf8_lossy(&output.stderr));
                    return Err(format!("{workload} (trace {}) failed", u8::from(trace)));
                }
                let last = stdout.lines().last().unwrap_or_default();
                let result = RunResult::from_json(&Json::parse(last)?)?;
                all_correct &= result.correct;
                ledger.runs.push(LedgerRun {
                    workload: workload.clone(),
                    trace,
                    seed: args.seed,
                    result,
                });
            }
        }
    }
    if let Some(path) = &args.out {
        std::fs::write(path, ledger.to_json().encode() + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("ledger written to {path}");
    }
    Ok(all_correct)
}

fn compare(manifest: &Manifest, a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| Ledger::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let comparison = Comparison::new(manifest, &load(a)?, &load(b)?);
    comparison.print();
    Ok(!comparison.regressed())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Manifest::locate().and_then(|manifest| match args.as_slice() {
        [cmd, a, b] if cmd == "compare" => compare(&manifest, a, b),
        [cmd, ..] if cmd == "compare" => Err(usage()),
        _ => {
            let parsed = parse_args(&args)?;
            match &parsed.workload {
                Some(workload) => run_one(&manifest, &parsed, workload).map(|r| r.correct),
                None => run_all(&manifest, &parsed),
            }
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A wrong answer or a regression: the output above says which.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}
