//! The two epoch-simulator workloads: `Simulator::new`, then the
//! `run_epoch` / `measure` loop that `Simulator::run` is made of,
//! decomposed so that epoch 0 (cold: every node wires from nothing) is
//! set-up and the following epochs are the timed section.

use super::{scaled, timed_setup, Outcome, RunArgs, SETUP_REPS};
use crate::spec;
use crate::stats::Fnv;
use crate::trace::{Tracer, RUN_EPOCH_TREE};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::{full_mesh_reference, EpochSample, Metric, SimConfig, SimResult, Simulator};
use egoist_netsim::churn::ChurnModel;
use std::time::Instant;

/// The input shape of one wiring workload.
pub struct Shape {
    pub metric: Metric,
    pub n: usize,
    pub k: usize,
    /// `ChurnModel::planetlab_like` with this timescale divisor.
    pub churn_divisor: Option<f64>,
    /// Timed epochs (after the cold epoch 0).
    pub epochs: usize,
}

/// Best response on delay, no churn. One epoch at n=500 costs ~1.7 s on
/// the reference host.
pub fn br_delay(args: &RunArgs) -> Shape {
    Shape {
        metric: Metric::DelayPing,
        n: if args.smoke { 60 } else { 500 },
        k: 8,
        churn_divisor: None,
        epochs: scaled(args.seconds, 0.6, 2),
    }
}

/// Best response on bandwidth under churn. Divisor 20 gives ~100
/// membership events per epoch at n=300; one epoch costs ~1.1 s.
pub fn bw_churn(args: &RunArgs) -> Shape {
    Shape {
        metric: Metric::Bandwidth,
        n: if args.smoke { 40 } else { 300 },
        k: 8,
        churn_divisor: Some(20.0),
        epochs: scaled(args.seconds, 0.9, 2),
    }
}

/// The simulator configuration: model/trace generation is part of it.
pub fn sim_config(shape: &Shape, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::baseline(shape.k, PolicyKind::BestResponse, shape.metric, seed);
    cfg.n = shape.n;
    cfg.epochs = 1 + shape.epochs;
    // Steady state = the second half of the timed epochs.
    cfg.warmup_epochs = 1 + shape.epochs / 2;
    if let Some(divisor) = shape.churn_divisor {
        let mut model = ChurnModel::planetlab_like(shape.n, seed);
        model.timescale_divisor = divisor;
        cfg.churn = Some(model.generate(cfg.epochs as f64 * cfg.epoch_secs));
    }
    cfg
}

/// One epoch of the decomposed loop, each public call under its span.
fn step(sim: &mut Simulator, epoch: usize, tracer: &mut Tracer) -> EpochSample {
    let open = tracer.begin_with(
        "core.run_epoch",
        || format!("epoch={epoch}"),
        RUN_EPOCH_TREE,
    );
    let rewirings = sim.run_epoch(epoch);
    tracer.end(open);
    tracer.span(
        "core.measure",
        || format!("epoch={epoch}"),
        || sim.measure(epoch, rewirings),
    )
}

/// The whole run through the decomposed loop (what the benchmark times
/// in two parts), as one call for the equivalence check.
pub fn decomposed(cfg: &SimConfig) -> SimResult {
    let mut tracer = Tracer::new(false);
    let mut sim = Simulator::new(cfg.clone());
    let samples = (0..cfg.epochs)
        .map(|e| step(&mut sim, e, &mut tracer))
        .collect();
    SimResult {
        config_label: sim.config_label(),
        samples,
    }
}

/// FNV-1a over every sample's bit patterns (as `perf_baseline` does).
pub fn fingerprint(samples: &[EpochSample]) -> u64 {
    let mut h = Fnv::default();
    for s in samples {
        h.word(s.epoch as u64);
        h.word(s.rewirings as u64);
        h.word(s.alive as u64);
        for series in [&s.individual_cost, &s.efficiency, &s.bandwidth_utility] {
            for &x in series {
                h.f64(x);
            }
        }
    }
    h.finish()
}

/// The decomposed loop must be the library's one-call run, byte for
/// byte, or the benchmark is timing something users do not run.
pub fn decomposed_matches_library(shape: &Shape, seed: u64) -> bool {
    let small = Shape {
        metric: shape.metric,
        n: 40,
        k: shape.k.min(5),
        churn_divisor: shape.churn_divisor,
        epochs: 3,
    };
    let cfg = sim_config(&small, seed);
    let library = Simulator::new(cfg.clone()).run();
    let ours = decomposed(&cfg);
    library.config_label == ours.config_label
        && fingerprint(&library.samples) == fingerprint(&ours.samples)
}

fn ratio(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

pub fn run(shape: &Shape, args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome {
        sizes: vec![
            ("n", shape.n as f64),
            ("k", shape.k as f64),
            ("timed_epochs", shape.epochs as f64),
        ],
        ..Outcome::default()
    };
    out.check(
        "decomposed loop == Simulator::run at n=40",
        decomposed_matches_library(shape, args.seed),
    );

    // Set-up: config (churn trace), Simulator::new, cold epoch 0.
    let ((cfg, mut sim, cold), setup_s) = timed_setup(SETUP_REPS, || {
        let cfg = sim_config(shape, args.seed);
        let mut sim = tracer.span("core.sim_new", String::new, || Simulator::new(cfg.clone()));
        let cold = step(&mut sim, 0, &mut Tracer::new(false));
        (cfg, sim, cold)
    });
    let sim_new_ms = tracer.total_ms("core.sim_new") / SETUP_REPS as f64;

    // Timed section: registry deltas are read as absolutes after it.
    egoist_obs::registry().reset();
    let mut samples = Vec::with_capacity(cfg.epochs);
    samples.push(cold);
    let from_ns = tracer.mark();
    let t = Instant::now();
    for epoch in 1..cfg.epochs {
        samples.push(step(&mut sim, epoch, tracer));
    }
    let wall_s = t.elapsed().as_secs_f64();
    let traced_ms = tracer.top_level_ms_since(from_ns);
    let stats = sim.route_stats();
    let result = SimResult {
        config_label: sim.config_label(),
        samples,
    };
    drop(sim);

    out.e2e.insert(spec::WALL_S, wall_s);
    out.e2e.insert(spec::SETUP_S, setup_s);
    let warmup = cfg.warmup_epochs;
    let bandwidth = shape.metric == Metric::Bandwidth;
    for s in result.samples.iter().filter(|s| s.epoch >= warmup) {
        let series = if bandwidth {
            &s.bandwidth_utility
        } else {
            &s.individual_cost
        };
        // Dead nodes read NaN by design; count the alive ones.
        let finite = series.iter().filter(|x| x.is_finite()).count();
        out.ops += s.alive as u64;
        out.failed += (s.alive - finite.min(s.alive)) as u64;
    }
    out.ops_lost = out.failed;
    out.fingerprint = fingerprint(&result.samples);
    if bandwidth {
        let utility = result.mean_bandwidth_utility(warmup);
        out.e2e.insert(spec::BW_UTILITY, utility);
        out.check(
            "bw_utility finite and positive",
            utility.is_finite() && utility > 0.0,
        );
    } else {
        let cost_ratio = result.mean_individual_cost(warmup) / full_mesh_reference(&cfg);
        out.e2e.insert(spec::COST_RATIO, cost_ratio);
        out.check("cost_ratio >= 1", cost_ratio >= 1.0 - 1e-9);
    }

    if tracer.on() {
        let reg = egoist_obs::registry();
        let span_ms = |name: &str| reg.span_value(name).1 as f64 / 1e6;
        let count = |name: &str| reg.counter_value(name);
        let l = &mut out.layers;
        l.insert("core.sim_new.ms", sim_new_ms);
        l.insert("core.run_epoch.ms", tracer.total_ms("core.run_epoch"));
        l.insert(
            "core.run_epoch.calls",
            tracer.calls("core.run_epoch") as f64,
        );
        l.insert("core.run_epoch.self.ms", tracer.self_ms("core.run_epoch"));
        l.insert("core.measure.ms", tracer.total_ms("core.measure"));
        l.insert("core.turn.solver.ms", span_ms("core.epoch.turn.solver"));
        l.insert("core.turn.residual.ms", span_ms("core.epoch.turn.residual"));
        l.insert("core.turn.absorb.ms", span_ms("core.epoch.turn.absorb"));
        let turns = count("core.turns");
        l.insert("core.turns", turns as f64);
        l.insert("core.rewirings", count("core.rewirings") as f64);
        let scanned = count("core.solver.candidates_scanned");
        l.insert(
            "core.solver.scanned_per_turn",
            scanned as f64 / turns.max(1) as f64,
        );
        let pruned =
            count("core.solver.gain_bound_rejects") + count("core.solver.prefilter_rejects");
        l.insert(
            "core.solver.prune_ratio",
            pruned as f64 / scanned.max(1) as f64,
        );
        l.insert(
            "core.solver.exact_evals",
            count("core.solver.exact_evals") as f64,
        );
        l.insert("core.route.rebuilds", count("core.route.rebuilds") as f64);
        l.insert(
            "core.route.borrow_ratio",
            ratio(stats.residual_borrowed as u64, stats.residual_swept as u64),
        );
        l.insert(
            "core.route.repair_ratio",
            ratio(stats.rewire_repaired as u64, stats.rewire_swept as u64),
        );
        l.insert("graph.apsp.build.ms", span_ms("graph.apsp.build"));
        l.insert("graph.widest.build.ms", span_ms("graph.widest.build"));
        l.insert("graph.apsp.sources", count("graph.apsp.sources") as f64);
        l.insert(
            "graph.repair.insertion",
            count("graph.repair.insertion") as f64,
        );
        l.insert("graph.repair.removal", count("graph.repair.removal") as f64);
        let churn_events = cfg.churn.as_ref().map_or(0, |trace| {
            trace
                .events_between(cfg.epoch_secs, cfg.epochs as f64 * cfg.epoch_secs)
                .len()
        });
        l.insert("netsim.churn.events", churn_events as f64);
        l.insert("trace.coverage", traced_ms / (wall_s * 1e3));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_args() -> RunArgs {
        RunArgs {
            workload: String::new(),
            seed: 5,
            seconds: 4,
            traced: false,
            smoke: true,
        }
    }

    #[test]
    fn decomposed_loop_is_the_library_run() {
        let args = smoke_args();
        for shape in [br_delay(&args), bw_churn(&args)] {
            assert!(decomposed_matches_library(&shape, 5));
            assert!(decomposed_matches_library(&shape, 6));
        }
    }

    #[test]
    fn smoke_run_reports_its_metrics() {
        let args = smoke_args();
        let out = run(&br_delay(&args), &args, &mut Tracer::new(false));
        assert!(out.correct(), "{:?}", out.checks);
        assert!(out.e2e[spec::COST_RATIO] >= 1.0);
        assert!(out.ops > 0 && out.failed == 0);
        let again = run(&br_delay(&args), &args, &mut Tracer::new(false));
        assert_eq!(out.fingerprint, again.fingerprint);
        let out = run(&bw_churn(&args), &args, &mut Tracer::new(false));
        assert!(out.correct(), "{:?}", out.checks);
        assert!(out.e2e[spec::BW_UTILITY] > 0.0);
    }
}
