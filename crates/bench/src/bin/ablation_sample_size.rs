//! Ablation (§5): how large must the best-response sample be?
//!
//! Sweeps `SimConfig::sample_size` — the `m` of the shortlist every
//! best-response turn solves over — on the whole-stack benchmark's two
//! simulator shapes: best response on delay at n = 500, and on bandwidth
//! under PlanetLab-like churn at n = 300 (k = 8, one cold epoch, steady
//! state = the second half of the timed ones). The last row of each table
//! is `m = n − 1`, the unsampled turn. Per row: the benchmark's quality
//! metric (`cost_ratio` over the full mesh / `bw_utility`), re-wirings per
//! timed epoch, candidates the solver scanned per turn, and wall seconds
//! of the timed epochs (host-specific; the other columns repeat exactly).
//!
//! `EGOIST_SEEDS=11,21,37` reproduces the EXPERIMENTS.md table.

use egoist_bench::{fast, print_expectation, print_figure, sweep};
use egoist_core::policies::PolicyKind;
use egoist_core::sim::{full_mesh_reference, Metric, SimConfig, Simulator};
use egoist_netsim::ChurnModel;
use std::time::Instant;

fn main() {
    print_expectation(
        "BR over a sample of m << n candidates loses little (figs 5-8: m/n ~ 2% \
         keeps a newcomer near the unsampled cost), so quality is flat in m \
         once m is a few times k while solver work grows with m",
    );
    egoist_obs::enable();
    let shapes = [
        ("delay", Metric::DelayPing, 500usize, 6usize, None),
        (
            "bandwidth under churn",
            Metric::Bandwidth,
            300,
            9,
            Some(20.0),
        ),
    ];
    for (label, metric, n, timed, churn_divisor) in shapes {
        let n = if fast() { n / 4 } else { n };
        let quality_label = match metric {
            Metric::Bandwidth => "bw_utility (Mbps)",
            _ => "cost / full mesh",
        };
        let labels = [
            quality_label,
            "rewirings / epoch",
            "scanned / turn",
            "wall_s",
        ];
        let series = sweep(&labels, &[16, 32, 64, 128, 256, n - 1], |m, seed| {
            let mut cfg = SimConfig::baseline(8, PolicyKind::BestResponse, metric, seed);
            cfg.n = n;
            cfg.epochs = 1 + timed;
            cfg.warmup_epochs = 1 + timed / 2;
            cfg.sample_size = m;
            if let Some(divisor) = churn_divisor {
                let mut model = ChurnModel::planetlab_like(n, seed);
                model.timescale_divisor = divisor;
                cfg.churn = Some(model.generate(cfg.epochs as f64 * cfg.epoch_secs));
            }
            let mut sim = Simulator::new(cfg.clone());
            let mut samples = Vec::with_capacity(cfg.epochs);
            let mut t = Instant::now();
            for epoch in 0..cfg.epochs {
                if epoch == 1 {
                    // Epoch 0 is cold: count and time from here.
                    egoist_obs::registry().reset();
                    t = Instant::now();
                }
                let rewirings = sim.run_epoch(epoch);
                samples.push(sim.measure(epoch, rewirings));
            }
            let wall_s = t.elapsed().as_secs_f64();
            let count = |name: &str| egoist_obs::registry().counter_value(name) as f64;
            let result = egoist_core::sim::SimResult {
                config_label: sim.config_label(),
                samples,
            };
            let quality = match metric {
                Metric::Bandwidth => result.mean_bandwidth_utility(cfg.warmup_epochs),
                _ => result.mean_individual_cost(cfg.warmup_epochs) / full_mesh_reference(&cfg),
            };
            let row = vec![
                quality,
                count("core.rewirings") / timed as f64,
                count("core.solver.candidates_scanned") / count("core.turns"),
                wall_s,
            ];
            (m as f64, row)
        });
        print_figure(
            &format!("Ablation: best-response sample size, {label} (n={n}, k=8)"),
            "m",
            "per column",
            &series,
        );
    }
}
