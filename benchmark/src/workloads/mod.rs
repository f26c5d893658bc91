//! The five workloads. Each is one deterministic, single-threaded batch
//! run: set-up (repeated, median reported), a timed section whose size
//! is a function of `--seconds` alone, then output checks.

pub mod fleet;
pub mod probes;
pub mod stepper;
pub mod traffic;
pub mod wiring;

use crate::spec;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Time budget the sizes are derived from (reference host: the
    /// timed section takes about this long).
    pub seconds: u64,
    pub traced: bool,
    /// Shrink `n` to a few dozen nodes: only checks that the package
    /// still runs against the public API; numbers mean nothing.
    pub smoke: bool,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics this workload defines (the rest are filled
    /// with [`spec::NOT_APPLICABLE`] when printed).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs; absent names print as 0).
    pub layers: BTreeMap<&'static str, f64>,
    /// Simulated work units asked for: node samples over steady epochs,
    /// flows offered, ordered live honest pairs at the horizon.
    pub ops: u64,
    /// Of those, the ones the *simulated system* lost (a dropped flow, a
    /// pair without a route). An outcome, covered by the quality
    /// metrics' bounds.
    pub ops_lost: u64,
    /// Of those, the ones the *program* failed to produce a valid
    /// result for (non-finite where a number is required).
    pub failed: u64,
    /// FNV-1a over the run's simulated outputs.
    pub fingerprint: u64,
    /// Input sizes actually used (n, k, epochs, horizon...).
    pub sizes: Vec<(&'static str, f64)>,
    /// Hard output checks: `(what, passed)`.
    pub checks: Vec<(String, bool)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }
}

/// How many times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Run `setup` [`SETUP_REPS`] times, keep the last product, and return
/// it with the median set-up time in seconds.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one repetition"),
        crate::stats::median(&times),
    )
}

/// `round(seconds × per_second)`, at least `floor`: the one place a time
/// budget turns into an input size.
pub fn scaled(seconds: u64, per_second: f64, floor: usize) -> usize {
    ((seconds as f64 * per_second).round() as usize).max(floor)
}

/// Dispatch by workload name.
pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = match args.workload.as_str() {
        spec::WIRING_BR_DELAY => wiring::run(&wiring::br_delay(args), args, tracer),
        spec::WIRING_BW_CHURN => wiring::run(&wiring::bw_churn(args), args, tracer),
        spec::TRAFFIC_MIX => traffic::run(args, tracer),
        spec::FLEET_CHAOS => fleet::run(&fleet::chaos(args), args, tracer),
        spec::FLEET_BR => fleet::run(&fleet::best_response(args), args, tracer),
        other => return Err(format!("unknown workload {other:?} (see run --list)")),
    };
    if args.traced {
        probes::run(&mut out);
    }
    Ok(out)
}
