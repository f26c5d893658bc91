//! Shared machinery of the bench binaries.
//!
//! Every figure binary in `src/bin/` regenerates one figure of the
//! paper: it sweeps the paper's x-axis, runs the simulator / game /
//! protocol, and prints one row per x-value with one column per series —
//! the same series the paper plots — plus the paper's qualitative
//! expectation so `EXPERIMENTS.md` can record paper-vs-measured
//! directly. What they share lives here: the env knobs, [`sim_config`],
//! the policy-vs-best-response sweep [`vs_best_response`] and the table
//! printer. The report binaries (`policy_race`, `chaos_fleet`,
//! `perf_baseline`, `metrics_check`) share the [`report`] harness.
//!
//! Environment knobs (all optional; a value that does not parse is an
//! error, not a silent default):
//!
//! * `EGOIST_SEEDS`  — comma-separated seeds (default `1,2,3`).
//! * `EGOIST_EPOCHS` — epochs per simulation (default 30).
//! * `EGOIST_FAST`   — set to `1` for a quick smoke run (one seed, few
//!   epochs); used by CI.

pub mod report;

use egoist_core::cost::{disconnection_penalty, node_cost_from_dists, Preferences};
use egoist_core::game::Game;
use egoist_core::policies::PolicyKind;
use egoist_core::sim::{run, Metric, SimConfig, SimResult};
use egoist_core::stats;
use egoist_graph::apsp::apsp;
use egoist_graph::connectivity::strongly_connected;
use egoist_graph::cycles::enforce_cycle;
use egoist_graph::{DiGraph, DistanceMatrix, NodeId};
use egoist_netsim::{ChurnModel, ChurnTrace};

/// One plotted series: label plus `(x, mean, ci)` points.
#[derive(Clone, Debug)]
pub struct Series {
    pub label: String,
    pub points: Vec<(f64, f64, f64)>,
}

impl Series {
    /// Empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point from per-seed samples (mean ± 95% CI).
    pub fn push_samples(&mut self, x: f64, samples: &[f64]) {
        let (m, ci) = stats::mean_ci(samples);
        self.points.push((x, m, ci));
    }

    /// Append an exact point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y, 0.0));
    }
}

/// Print a figure as an aligned text table.
pub fn print_figure(title: &str, xlabel: &str, ylabel: &str, series: &[Series]) {
    println!("# {title}");
    println!("# x = {xlabel}; y = {ylabel}; value ± 95% CI over seeds/nodes");
    print!("{:>10}", xlabel);
    for s in series {
        print!("  {:>22}", s.label);
    }
    println!();
    // Collect the union of x values (series should share them).
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.0))
        .collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    for x in xs {
        print!("{x:>10.5}");
        for s in series {
            match s.points.iter().find(|p| (p.0 - x).abs() < 1e-12) {
                Some(&(_, y, ci)) if ci > 0.0 => print!("  {:>14.4} ±{:>6.3}", y, ci),
                Some(&(_, y, _)) => print!("  {:>22.4}", y),
                None => print!("  {:>22}", "-"),
            }
        }
        println!();
    }
    println!();
}

/// Read env knob `name` through `parse`; a value that does not parse is
/// a one-line error and exit status 2 — a typo must not silently run a
/// different experiment.
fn env_knob<T>(name: &str, default: T, parse: fn(&str) -> Result<T, String>) -> T {
    match std::env::var(name) {
        Ok(raw) => parse(&raw).unwrap_or_else(|e| {
            eprintln!("{name}={raw:?}: {e}");
            std::process::exit(2)
        }),
        Err(_) => default,
    }
}

fn parse_seeds(raw: &str) -> Result<Vec<u64>, String> {
    let seed = |t: &str| t.trim().parse().map_err(|_| format!("{t:?} is not a seed"));
    raw.split(',').map(seed).collect()
}

fn parse_epochs(raw: &str) -> Result<usize, String> {
    let epochs = raw.trim().parse();
    epochs.map_err(|_| "not an epoch count".to_string())
}

/// Experiment seeds from `EGOIST_SEEDS` (default `1,2,3`).
pub fn seeds() -> Vec<u64> {
    if fast() {
        return vec![1];
    }
    env_knob("EGOIST_SEEDS", vec![1, 2, 3], parse_seeds)
}

/// Epochs per simulation from `EGOIST_EPOCHS` (default 30; 8 in fast
/// mode). Warmup is 1/3 of the horizon.
pub fn epochs() -> usize {
    if fast() {
        return 8;
    }
    env_knob("EGOIST_EPOCHS", 30, parse_epochs)
}

/// Warmup epochs to drop from steady-state statistics.
pub fn warmup() -> usize {
    epochs() / 3
}

/// Quick smoke mode for tests.
pub fn fast() -> bool {
    std::env::var("EGOIST_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Print the paper's qualitative expectation for the figure, so that the
/// run output is self-documenting next to EXPERIMENTS.md.
pub fn print_expectation(text: &str) {
    println!("# paper expectation: {text}");
}

/// The paper-baseline simulation every figure starts from: `n = 50`
/// on the [`epochs`] horizon with [`warmup`] epochs dropped.
pub fn sim_config(k: usize, policy: PolicyKind, metric: Metric, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::baseline(k, policy, metric, seed);
    cfg.epochs = epochs();
    cfg.warmup_epochs = warmup();
    cfg
}

/// PlanetLab-like churn for the 50-node overlay over the [`epochs`]
/// horizon, session times compressed by `timescale_divisor`.
pub fn planetlab_churn(timescale_divisor: f64, seed: u64) -> ChurnTrace {
    let mut model = ChurnModel::planetlab_like(50, seed);
    model.timescale_divisor = timescale_divisor;
    model.generate(epochs() as f64 * 60.0)
}

/// The three §3.2 heuristics every panel of Figures 1–2 plots.
pub const HEURISTICS: [(&str, PolicyKind); 3] = [
    ("k-Random", PolicyKind::Random),
    ("k-Regular", PolicyKind::Regular),
    ("k-Closest", PolicyKind::Closest),
];

/// The series labels of a policy list.
pub fn labels<'a>(policies: &[(&'a str, PolicyKind)]) -> Vec<&'a str> {
    policies.iter().map(|(label, _)| *label).collect()
}

/// Mean individual cost over a static overlay `g` on delay space `d`.
fn mean_cost(g: &DiGraph, d: &DistanceMatrix, prefs: &Preferences) -> f64 {
    let n = d.len();
    let alive = vec![true; n];
    let penalty = disconnection_penalty(d);
    let dist = apsp(g);
    let costs: Vec<f64> = (0..n)
        .map(|i| {
            let row: Vec<f64> = (0..n).map(|j| dist.at(i, j)).collect();
            node_cost_from_dists(NodeId::from_index(i), &row, prefs, &alive, penalty)
        })
        .collect();
    stats::mean(&costs)
}

/// The static-game comparison of the ablations: mean cost of `policy`'s
/// one-sweep overlay over that of best response played for `br_rounds`,
/// both with `k` links on delay space `d` under `prefs`. The heuristic
/// overlay gets the §3.2 fix-up the deployed system applies: a cycle is
/// enforced when it is not strongly connected.
pub fn static_cost_ratio(
    d: &DistanceMatrix,
    k: usize,
    policy: PolicyKind,
    prefs: &Preferences,
    br_rounds: usize,
    seed: u64,
) -> f64 {
    let members: Vec<NodeId> = (0..d.len()).map(NodeId::from_index).collect();
    let mut br = Game::new(d.clone(), k, PolicyKind::BestResponse, seed);
    br.prefs = prefs.clone();
    br.run_to_convergence(br_rounds);
    let mut other = Game::new(d.clone(), k, policy, seed);
    other.sweep();
    let mut g = other.graph();
    if !strongly_connected(&g, &members) {
        enforce_cycle(&mut g, d, &members);
    }
    mean_cost(&g, d, prefs) / mean_cost(&br.graph(), d, prefs)
}

/// The loop every figure runs: at each `x`, one run per seed.
/// `sample(x, seed)` returns where that run sits on the x-axis and one
/// value per label; each label's series gets the mean ± CI over seeds
/// at the seeds' mean x-position.
pub fn sweep<X: Copy>(
    labels: &[&str],
    xs: &[X],
    sample: impl Fn(X, u64) -> (f64, Vec<f64>),
) -> Vec<Series> {
    let mut series: Vec<Series> = labels.iter().map(|l| Series::new(*l)).collect();
    for &x in xs {
        let mut positions = Vec::new();
        let mut columns = vec![Vec::new(); labels.len()];
        for seed in seeds() {
            let (position, row) = sample(x, seed);
            assert_eq!(row.len(), labels.len(), "one value per label");
            positions.push(position);
            for (column, value) in columns.iter_mut().zip(row) {
                column.push(value);
            }
        }
        for (s, column) in series.iter_mut().zip(&columns) {
            s.push_samples(stats::mean(&positions), column);
        }
    }
    series
}

/// Run best response on `cfg` and every policy of `policies` on the same
/// configuration: BR's `stat`, and `stat(policy) / stat(BR)` per policy
/// (`NaN` where BR's `stat` is not positive).
pub fn ratios_vs_br(
    cfg: &SimConfig,
    policies: &[(&str, PolicyKind)],
    stat: impl Fn(&SimResult) -> f64,
) -> (f64, Vec<f64>) {
    let br = stat(&run(cfg.clone()));
    let ratio = |&(_, policy): &(&str, PolicyKind)| {
        let rival = stat(&run(SimConfig {
            policy,
            ..cfg.clone()
        }));
        if br > 0.0 {
            rival / br
        } else {
            f64::NAN
        }
    };
    (br, policies.iter().map(ratio).collect())
}

/// The comparison Figures 1–2 plot: [`ratios_vs_br`] swept over `xs`,
/// where `make_cfg(x, seed)` gives the plotted x-position and the
/// best-response configuration. One series per policy.
pub fn vs_best_response<X: Copy>(
    xs: &[X],
    policies: &[(&str, PolicyKind)],
    make_cfg: impl Fn(X, u64) -> (f64, SimConfig),
    stat: impl Fn(&SimResult) -> f64,
) -> Vec<Series> {
    sweep(&labels(policies), xs, |x, seed| {
        let (position, cfg) = make_cfg(x, seed);
        (position, ratios_vs_br(&cfg, policies, &stat).1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates_points() {
        let mut s = Series::new("BR");
        s.push_samples(2.0, &[1.0, 2.0, 3.0]);
        s.push(3.0, 5.0);
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[0].1, 2.0);
        assert!(s.points[0].2 > 0.0);
        assert_eq!(s.points[1], (3.0, 5.0, 0.0));
    }

    #[test]
    fn sweep_averages_each_label_over_the_seeds() {
        let series = sweep(&["seed", "twice x"], &[10.0, 20.0], |x, seed| {
            (x, vec![seed as f64, 2.0 * x])
        });
        let seeds: Vec<f64> = seeds().iter().map(|&s| s as f64).collect();
        assert_eq!(series[0].label, "seed");
        let means: Vec<(f64, f64)> = series[0].points.iter().map(|p| (p.0, p.1)).collect();
        assert_eq!(means, [10.0, 20.0].map(|x| (x, stats::mean(&seeds))));
        assert_eq!(series[1].points[1], (20.0, 40.0, 0.0));
    }

    #[test]
    fn env_knobs_parse_or_say_why() {
        assert_eq!(parse_seeds("1, 2,37"), Ok(vec![1, 2, 37]));
        assert_eq!(parse_seeds("1,x"), Err("\"x\" is not a seed".to_string()));
        assert!(parse_seeds("").is_err());
        assert!(parse_seeds("1,,2").is_err());
        assert!(parse_seeds("-1").is_err());
        assert_eq!(parse_epochs(" 12 "), Ok(12));
        assert!(parse_epochs("abc").is_err());
        assert!(parse_epochs("3.5").is_err());
    }

    #[test]
    fn print_does_not_panic_on_misaligned_series() {
        let mut a = Series::new("a");
        a.push(1.0, 2.0);
        let mut b = Series::new("b");
        b.push(2.0, 3.0);
        print_figure("test", "k", "cost", &[a, b]);
    }
}
