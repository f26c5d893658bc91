//! One benchmark for the whole EGOIST stack.
//!
//! ```text
//! egoist-benchmark run --workload W --seed S --seconds X --trace 0|1
//!     one workload, in this process; the last stdout line is the result
//!     as one JSON object (the driver's contract)
//! egoist-benchmark run [--seed S] [--seconds X] [--workload W] [--reps N]
//!                      [--traced] [--smoke] --out FILE
//!     every (or one) workload, each repetition in a fresh child process;
//!     medians and checks written to FILE
//! egoist-benchmark run --list          every metric: name, unit, direction, bound
//! egoist-benchmark run --check FILE    validate a results file
//! egoist-benchmark compare A.json B.json
//! ```
//!
//! See `README.md` beside this package for what each workload and metric
//! means and why it was chosen.

mod compare;
mod json;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use json::Value;
use std::process::ExitCode;
use workloads::{Outcome, RunArgs};

/// Parsed `run` flags.
#[derive(Clone, Debug)]
pub struct RunFlags {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
    pub reps: Option<usize>,
    pub out: Option<String>,
    pub trace_out: Option<String>,
    pub list: bool,
    pub check: Option<String>,
}

/// The issue's default seed.
const DEFAULT_SEED: u64 = 11;
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 10;

fn parse_run(args: &[String]) -> Result<RunFlags, String> {
    let mut f = RunFlags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        reps: None,
        out: None,
        trace_out: None,
        list: false,
        check: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: {v:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => f.workload = Some(value()?),
            "--seed" => f.seed = number(value()?)?,
            "--seconds" => {
                f.seconds = number(value()?)?;
                if !(1..=60).contains(&f.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                f.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => f.traced = true,
            "--smoke" => f.smoke = true,
            "--reps" => {
                let n = number(value()?)? as usize;
                if !(1..=100).contains(&n) {
                    return Err("--reps must be 1..=100".into());
                }
                f.reps = Some(n);
            }
            "--out" => f.out = Some(value()?),
            "--trace-out" => f.trace_out = Some(value()?),
            "--list" => f.list = true,
            "--check" => f.check = Some(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if let Some(w) = &f.workload {
        if spec::workload(w).is_none() {
            return Err(format!("unknown workload {w:?} (see run --list)"));
        }
    }
    Ok(f)
}

fn host_json() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    json::obj([
        ("nproc", json::num(nproc as f64)),
        // The load generator is this one thread; the only program-side
        // threads are apsp_csr / widest_csr's per-core fan-out.
        ("generator_threads", json::num(1.0)),
        ("apsp_fanout_threads", json::num(nproc as f64)),
    ])
}

/// Print one finished run: every metric by name with its unit, the
/// checks, a `detail` line for the suite, and last the contract line.
/// Returns whether the run was correct.
fn print_run(flags: &RunFlags, workload: &str, out: &Outcome) -> bool {
    println!(
        "workload {workload} seed {} seconds {} traced {}{}",
        flags.seed,
        flags.seconds,
        u8::from(flags.traced),
        if flags.smoke { " smoke" } else { "" }
    );
    for (name, v) in &out.sizes {
        println!("size {name} {v}");
    }
    let mut e2e = Vec::new();
    for m in spec::E2E {
        let (value, note) = if m.applies_to(workload) {
            (out.e2e.get(m.name).copied().unwrap_or(f64::NAN), "")
        } else {
            (spec::NOT_APPLICABLE, "  (not defined on this workload)")
        };
        println!("e2e {:<24} {value:?} {}{note}", m.name, m.unit);
        e2e.push((m.name, m.unit, value));
    }
    let mut layers = Vec::new();
    if flags.traced {
        for m in spec::LAYERS {
            // A layer the workload never enters: its counts read 0, its
            // times read the measurement floor (one empty span).
            let value = out.layers.get(m.name).copied().unwrap_or_else(|| {
                let per_unit = match m.unit {
                    "ms" => 1e6,
                    "us" => 1e3,
                    "ns" => 1.0,
                    _ => return 0.0,
                };
                trace::empty_span_ns() / per_unit
            });
            println!("layer {:<42} {value:?} {}", m.name, m.unit);
            layers.push((m.name, m.unit, value));
        }
    }
    println!(
        "ops {} lost {} failed {}",
        out.ops, out.ops_lost, out.failed
    );
    println!("fingerprint {:016x}", out.fingerprint);
    for (what, ok) in &out.checks {
        println!("check {} {what}", if *ok { "ok" } else { "FAILED" });
    }

    let metrics = |list: &[(&str, &str, f64)]| {
        json::obj(list.iter().map(|&(name, unit, value)| {
            (
                name,
                json::obj([("value", json::num(value)), ("unit", json::text(unit))]),
            )
        }))
    };
    let finite = e2e.iter().chain(&layers).all(|(_, _, v)| v.is_finite());
    let correct = out.correct() && finite;
    let detail = json::obj([
        ("workload", json::text(workload)),
        ("seed", json::num(flags.seed as f64)),
        ("seconds", json::num(flags.seconds as f64)),
        ("traced", Value::Bool(flags.traced)),
        ("smoke", Value::Bool(flags.smoke)),
        ("correct", Value::Bool(correct)),
        ("ops", json::num(out.ops as f64)),
        ("ops_lost", json::num(out.ops_lost as f64)),
        ("failed", json::num(out.failed as f64)),
        (
            "fingerprint",
            json::text(&format!("{:016x}", out.fingerprint)),
        ),
        (
            "sizes",
            json::obj(out.sizes.iter().map(|&(k, v)| (k, json::num(v)))),
        ),
        ("host", host_json()),
        ("end_to_end", metrics(&e2e)),
        ("per_layer", metrics(&layers)),
    ]);
    println!("detail {}", detail.to_line());
    let line = json::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", json::num(out.ops.max(1) as f64)),
        ("failed", json::num(out.failed as f64)),
        (
            "metrics",
            metrics(if flags.traced { &layers } else { &e2e }),
        ),
    ]);
    println!("{}", line.to_line());
    correct
}

/// One workload in this process.
fn run_single(flags: &RunFlags, workload: &str) -> Result<bool, String> {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: flags.seed,
        seconds: flags.seconds,
        traced: flags.traced,
        smoke: flags.smoke,
    };
    // End-to-end runs leave obs at its default (disabled); only a
    // traced run pays for the program's own instruments.
    if flags.traced {
        egoist_obs::enable();
    }
    let mut tracer = trace::Tracer::new(flags.traced);
    let mut out = workloads::run(&args, &mut tracer)?;
    let rss = stats::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    out.e2e.insert(spec::PEAK_RSS_MB, rss);
    if let Some(path) = &flags.trace_out {
        let doc = tracer.to_json(workload, flags.seed).to_line();
        std::fs::write(path, doc + "\n").map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(print_run(flags, workload, &out))
}

fn usage() -> String {
    "usage: egoist-benchmark run [--workload W] [--seed S] [--seconds X] [--trace 0|1 | --traced]\n\
     \x20                           [--reps N] [--smoke] [--out FILE] [--trace-out FILE]\n\
     \x20      egoist-benchmark run --list | --check FILE\n\
     \x20      egoist-benchmark compare A.json B.json"
        .to_string()
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let flags = parse_run(&args[1..])?;
            if flags.list {
                spec::print_list();
                return Ok(true);
            }
            if let Some(path) = &flags.check {
                suite::check_file(path)?;
                println!("{path}: valid against results.schema.json");
                return Ok(true);
            }
            match (&flags.workload, &flags.out, flags.reps) {
                (Some(w), None, None) => run_single(&flags, w),
                _ => suite::run(&flags),
            }
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err(usage()),
        },
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("egoist-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
