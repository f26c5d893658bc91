//! `perf_baseline` — the tracked performance trajectory of the epoch
//! route-state engine.
//!
//! Times best-response epoch stepping (delay metric, n ∈ {50, 200, 800,
//! 2000}; bandwidth metric under PlanetLab-like churn, n ∈ {60, 300}) and
//! the closed-loop traffic engine (`br_traffic_n200`), and fingerprints
//! each scenario's simulation output, so a timing can be held to the
//! output it produced. Results land in `BENCH_perf.json` (schema
//! `egoist-perf-baseline/v3`, insertion-ordered keys, so the document
//! layout is byte-deterministic; timings naturally vary).
//!
//! Every scenario carries `n`, `k`, `epochs`, `wall_ms`, `rewirings`,
//! `fingerprint` and `prev_wall_ms` (the previous committed run's
//! `wall_ms`). Each epoch-stepping scenario adds per-phase wall time
//! (`residual_ms` / `solver_ms` / `absorb_ms`), the engine's
//! copy-vs-sweep ratios and its `rebuilds` / `leaves` / `joins` counts
//! from `RouteStats`, the §5 shortlist's `shortlist_offered` /
//! `shortlist_kept` candidate counts, and `residual_named`, the residual
//! rows the turns asked the engine for. `--check` holds every such entry
//! to `rebuilds ≤ epochs + 1` — one snapshot build per underlay advance,
//! whatever churns — to a shortlist that cuts exactly when n − 1 exceeds
//! the default `m` (`br_delay_n200`) and is the identity otherwise
//! (`br_delay_n50`), and to `residual_named == shortlist_kept` — a turn
//! repairs the rows its solver reads, not every row: counts that are the
//! same on every runner, unlike the milliseconds.
//!
//! Per-phase timings are no longer private plumbing: the engine reports
//! into the `egoist-obs` registry (spans `core.epoch.turn.{residual,
//! solver,absorb}`) and this bench reads them back, so BENCH_perf.json
//! is a *view over the registry*. The registry is reset before each
//! timed run, making span totals absolute per scenario. One untimed
//! epoch of `br_delay_n50` runs before the first, so no timing is the
//! process's cold start.
//!
//! Usage:
//!   perf_baseline [--quick] [--out PATH]      # measure and write
//!     [--metrics-out PATH]  # also dump the obs registry (egoist-obs/v1)
//!                           # as observed by the final scenario's run
//!     [--trace]             # flight recorder on; events JSON to stderr
//!   perf_baseline --overhead-gate             # instrumented-vs-disabled
//!     wall-time gate on the n=200 scenario (<3% or exit 1)
//!   perf_baseline --check PATH                # validate schema
//!   perf_baseline --check PATH --against GOLD # + fingerprint gate:
//!     every scenario of PATH whose (name, n, k, epochs) also appears in
//!     GOLD must carry an identical fingerprint — the CI regression gate
//!     against the committed BENCH_perf.json.

use egoist_bench::report::{dump_obs, read, scenarios, Flags, PERF};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::{Metric, SimConfig, SimResult, Simulator};
use egoist_core::snapshot::RouteStats;
use egoist_netsim::churn::ChurnModel;
use egoist_obs::json::{parse, JsonObject, Layout::Compact, Value};
use egoist_traffic::engine::{TrafficConfig, TrafficEngine};
use std::time::Instant;

/// Registry spans the per-phase breakdown is sourced from.
const RESIDUAL_SPAN: &str = "core.epoch.turn.residual";
const SOLVER_SPAN: &str = "core.epoch.turn.solver";
const ABSORB_SPAN: &str = "core.epoch.turn.absorb";

/// Total milliseconds accumulated in a registry span.
fn span_ms(name: &str) -> f64 {
    let (_count, ns) = egoist_obs::registry().span_value(name);
    ns as f64 / 1e6
}

/// `wall_ms` per scenario in the previously committed BENCH_perf.json —
/// the anchor the new numbers are compared against. Host-specific by
/// nature (like every timing in BENCH_perf.json): a change that commits
/// a new run bumps these to the values it replaces, keeping the anchors
/// reviewable in-diff rather than mutated by every regeneration.
fn prev_wall_ms(name: &str) -> f64 {
    match name {
        "br_delay_n50" => 17.354225,
        "br_delay_n200" => 181.427761,
        "br_delay_n800" => 1575.923413,
        "br_delay_n2000" => 12921.231653,
        "bw_churn_n60" => 29.106721,
        "bw_churn_n300" => 594.862386,
        "br_traffic_n200" => 150.993425,
        _ => 0.0,
    }
}

/// FNV-1a over the bit patterns of a sample series — a cheap output
/// fingerprint that any change in the simulated run will flip.
fn fingerprint_sim(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for s in &r.samples {
        eat(s.epoch as u64);
        eat(s.rewirings as u64);
        eat(s.alive as u64);
        for series in [&s.individual_cost, &s.efficiency, &s.bandwidth_utility] {
            for x in series.iter() {
                eat(x.to_bits());
            }
        }
    }
    h
}

fn fingerprint_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Per-phase breakdown of the epoch engine's wall time plus its
/// incremental-work counters (epoch-stepping scenarios only).
struct PhaseBreakdown {
    residual_ms: f64,
    solver_ms: f64,
    absorb_ms: f64,
    stats: RouteStats,
    /// Candidates the turns were offered / solved over (§5 shortlist).
    shortlist_offered: u64,
    shortlist_kept: u64,
    /// Residual rows the turns named to the engine.
    residual_named: u64,
}

struct ScenarioResult {
    name: String,
    n: usize,
    k: usize,
    epochs: usize,
    wall_ms: f64,
    rewirings: usize,
    fingerprint: u64,
    phases: Option<PhaseBreakdown>,
}

fn ratio(a: usize, b: usize) -> f64 {
    if a + b == 0 {
        0.0
    } else {
        a as f64 / (a + b) as f64
    }
}

impl ScenarioResult {
    fn to_json(&self) -> String {
        let mut obj = JsonObject::new(Compact)
            .u64("n", self.n as u64)
            .u64("k", self.k as u64)
            .u64("epochs", self.epochs as u64)
            .f64("wall_ms", self.wall_ms)
            .u64("rewirings", self.rewirings as u64)
            .str("fingerprint", &format!("{:016x}", self.fingerprint))
            .f64("prev_wall_ms", prev_wall_ms(&self.name));
        if let Some(ph) = &self.phases {
            obj = obj
                .f64("residual_ms", ph.residual_ms)
                .f64("solver_ms", ph.solver_ms)
                .f64("absorb_ms", ph.absorb_ms)
                .f64(
                    "residual_borrow_ratio",
                    ratio(ph.stats.residual_borrowed, ph.stats.residual_swept),
                )
                .f64(
                    "rewire_repair_ratio",
                    ratio(ph.stats.rewire_repaired, ph.stats.rewire_swept),
                )
                .u64("rebuilds", ph.stats.rebuilds as u64)
                .u64("leaves", ph.stats.leaves as u64)
                .u64("joins", ph.stats.joins as u64)
                .u64("shortlist_offered", ph.shortlist_offered)
                .u64("shortlist_kept", ph.shortlist_kept)
                .u64("residual_named", ph.residual_named);
        }
        obj.finish()
    }
}

/// Input shape of an epoch-stepping scenario: best response on delay,
/// or on bandwidth (the widest-path semiring) under PlanetLab-like
/// churn at `churn_divisor` — the shape of the whole-stack benchmark's
/// `wiring_bw_churn_n300`.
#[derive(Clone, Copy)]
struct Stepping {
    label: &'static str,
    metric: Metric,
    n: usize,
    k: usize,
    epochs: usize,
    /// `ChurnModel::planetlab_like` with this timescale divisor.
    churn_divisor: Option<f64>,
}

impl Stepping {
    fn br_delay(n: usize, k: usize, epochs: usize) -> Self {
        Stepping {
            label: "br_delay",
            metric: Metric::DelayPing,
            n,
            k,
            epochs,
            churn_divisor: None,
        }
    }

    fn bw_churn(n: usize, k: usize, epochs: usize) -> Self {
        Stepping {
            label: "bw_churn",
            metric: Metric::Bandwidth,
            churn_divisor: Some(20.0),
            ..Self::br_delay(n, k, epochs)
        }
    }

    fn name(&self) -> String {
        format!("{}_n{}", self.label, self.n)
    }

    fn sim_cfg(&self) -> SimConfig {
        let mut c = SimConfig::baseline(self.k, PolicyKind::BestResponse, self.metric, 42);
        c.n = self.n;
        c.epochs = self.epochs;
        c.warmup_epochs = self.epochs / 3;
        if let Some(divisor) = self.churn_divisor {
            let mut model = ChurnModel::planetlab_like(self.n, 42);
            model.timescale_divisor = divisor;
            c.churn = Some(model.generate(c.epochs as f64 * c.epoch_secs));
        }
        c
    }
}

/// Time one full BR epoch-stepping run, collecting the per-phase
/// breakdown from the obs registry. The outer wall clock stays an
/// `Instant`: it must keep ticking when the `--overhead-gate` runs with
/// instrumentation disabled.
fn time_sim(shape: Stepping) -> (f64, SimResult, PhaseBreakdown) {
    let cfg = shape.sim_cfg();
    egoist_obs::registry().reset();
    let t = Instant::now();
    let mut sim = Simulator::new(cfg.clone());
    let mut samples = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let rewirings = sim.run_epoch(epoch);
        samples.push(sim.measure(epoch, rewirings));
    }
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let count = |name| egoist_obs::registry().counter_value(name);
    let phases = PhaseBreakdown {
        residual_ms: span_ms(RESIDUAL_SPAN),
        solver_ms: span_ms(SOLVER_SPAN),
        absorb_ms: span_ms(ABSORB_SPAN),
        stats: sim.route_stats(),
        shortlist_offered: count("core.shortlist.offered"),
        shortlist_kept: count("core.shortlist.kept"),
        residual_named: count("core.route.residual_named"),
    };
    let result = SimResult {
        config_label: sim.config_label(),
        samples,
    };
    (wall_ms, result, phases)
}

/// One epoch-stepping scenario.
fn epoch_stepping_scenario(shape: Stepping) -> ScenarioResult {
    let name = shape.name();
    eprintln!("# {name} ...");
    let (wall_ms, result, phases) = time_sim(shape);
    eprintln!("#   {wall_ms:.0} ms");
    ScenarioResult {
        name,
        n: shape.n,
        k: shape.k,
        epochs: shape.epochs,
        wall_ms,
        rewirings: result.samples.iter().map(|s| s.rewirings).sum(),
        fingerprint: fingerprint_sim(&result),
        phases: Some(phases),
    }
}

fn traffic_scenario(n: usize, k: usize, epochs: usize) -> ScenarioResult {
    let mut cfg = TrafficConfig::new(n, k, PolicyKind::BestResponse, Metric::DelayPing, 42);
    cfg.sim.epochs = epochs;
    cfg.sim.warmup_epochs = epochs / 3;
    cfg.flows_per_epoch = 2 * n;
    eprintln!("# br_traffic_n{n} ...");
    egoist_obs::registry().reset();
    let t = Instant::now();
    let report = TrafficEngine::run(&cfg);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!("#   {wall_ms:.0} ms");
    ScenarioResult {
        name: format!("br_traffic_n{n}"),
        n,
        k,
        epochs,
        wall_ms,
        rewirings: 0,
        fingerprint: fingerprint_str(&report.to_json()),
        phases: None,
    }
}

/// One untimed epoch of `shape`, so the first timed scenario does not
/// pay the process's cold start. Every scenario resets the obs registry
/// as it starts, so the warm-up leaves no count behind.
fn warm_up(shape: Stepping) {
    let mut sim = Simulator::new(shape.sim_cfg());
    std::hint::black_box(sim.run_epoch(0));
}

fn measure(quick: bool) -> String {
    warm_up(Stepping::br_delay(50, 5, 8));
    let scenarios: Vec<ScenarioResult> = if quick {
        // The n=50 and the churned n=60 scenarios run their *full-mode*
        // parameters so their fingerprints are comparable against the
        // committed BENCH_perf.json (the CI regression gate); they are
        // cheap enough.
        vec![
            epoch_stepping_scenario(Stepping::br_delay(50, 5, 8)),
            epoch_stepping_scenario(Stepping::br_delay(200, 8, 2)),
            epoch_stepping_scenario(Stepping::bw_churn(60, 5, 8)),
            traffic_scenario(50, 5, 4),
        ]
    } else {
        vec![
            epoch_stepping_scenario(Stepping::br_delay(50, 5, 8)),
            epoch_stepping_scenario(Stepping::br_delay(200, 8, 4)),
            epoch_stepping_scenario(Stepping::br_delay(800, 10, 2)),
            epoch_stepping_scenario(Stepping::br_delay(2000, 10, 2)),
            epoch_stepping_scenario(Stepping::bw_churn(60, 5, 8)),
            epoch_stepping_scenario(Stepping::bw_churn(300, 8, 6)),
            traffic_scenario(200, 8, 4),
        ]
    };
    let entries = scenarios
        .iter()
        .fold(JsonObject::new(Compact), |o, s| o.raw(&s.name, s.to_json()));
    JsonObject::new(Compact)
        .str("schema", PERF.tag)
        .str("mode", if quick { "quick" } else { "full" })
        .raw("scenarios", entries.finish())
        .document()
}

/// The regression gate: every scenario of `path` whose
/// `(name, n, k, epochs)` also appears in `golden` must carry an
/// identical fingerprint — a drift means the simulated *outputs*
/// changed, not just their timing.
fn check_against(path: &str, golden: &str) -> Result<usize, String> {
    let load = |p: &str| parse(&read(p)?).map_err(|e| format!("{p}: not JSON: {e}"));
    let (new, gold) = (load(path)?, load(golden)?);
    let gold = scenarios(&gold)?;
    let shape = |s: &Value| ["n", "k", "epochs"].map(|key| s.get(key).cloned());
    let mut compared = 0;
    for (name, s) in scenarios(&new)? {
        let same = |(gold_name, g): &(&str, &Value)| *gold_name == name && shape(g) == shape(s);
        let Some((_, g)) = gold.iter().find(|entry| same(entry)) else {
            continue;
        };
        let (ours, theirs) = (s.get("fingerprint"), g.get("fingerprint"));
        if ours != theirs {
            return Err(format!(
                "{name}: fingerprint drifted from {golden} ({ours:?} vs {theirs:?})"
            ));
        }
        compared += 1;
    }
    if compared == 0 {
        return Err(format!(
            "no comparable scenarios between {path} and {golden} — the gate checked nothing"
        ));
    }
    Ok(compared)
}

/// The CI overhead gate: the epoch engine's n=200 scenario, wall-timed
/// with instrumentation off and on (min of `reps` each, one warmup),
/// must agree within 3%. Guards the "zero cost when disabled" claim —
/// every instrument's fast path is one relaxed load, so the enabled run
/// is the only one paying `Instant::now()` and atomic adds.
fn overhead_gate() -> Result<String, String> {
    let reps = 3;
    let run = || {
        let cfg = Stepping::br_delay(200, 8, 2).sim_cfg();
        let t = Instant::now();
        let mut sim = Simulator::new(cfg.clone());
        for epoch in 0..cfg.epochs {
            let rewirings = sim.run_epoch(epoch);
            std::hint::black_box(sim.measure(epoch, rewirings));
        }
        t.elapsed().as_secs_f64() * 1e3
    };
    // Interleave the arms so clock-frequency drift, page-cache warmup
    // and allocator state hit both equally; min-of-reps per arm.
    egoist_obs::disable();
    run(); // warmup
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        egoist_obs::disable();
        off = off.min(run());
        egoist_obs::enable();
        egoist_obs::registry().reset();
        on = on.min(run());
    }
    egoist_obs::disable();
    let rel = (on - off) / off;
    let line = format!(
        "overhead gate: disabled {off:.1} ms, instrumented {on:.1} ms ({:+.2}%)",
        rel * 100.0
    );
    if rel > 0.03 {
        Err(format!("{line} — exceeds the 3% budget"))
    } else {
        Ok(line)
    }
}

fn main() {
    let flags = Flags::parse(
        &["--quick", "--trace", "--overhead-gate"],
        &["--out", "--metrics-out", "--check", "--against"],
    );
    if flags.on("--overhead-gate") {
        match overhead_gate() {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(path) = flags.value("--check") {
        PERF.check_file(path, None);
        if let Some(golden) = flags.value("--against") {
            match check_against(path, golden) {
                Ok(compared) => println!("{path}: {compared} fingerprint(s) match {golden}"),
                Err(e) => {
                    eprintln!("{path}: regression gate failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }
    if flags.value("--against").is_some() {
        eprintln!("--against only applies with --check NEW --against GOLD; refusing to measure");
        std::process::exit(2);
    }
    let trace = flags.on("--trace");
    egoist_obs::enable();
    if trace {
        egoist_obs::enable_trace();
    }
    let doc = measure(flags.on("--quick"));
    let out = flags.value("--out").unwrap_or("BENCH_perf.json");
    PERF.ship("perf_baseline", &doc, None, Some(out));
    print!("{doc}");
    dump_obs(flags.value("--metrics-out"), trace);
}
