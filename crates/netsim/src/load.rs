//! Per-node CPU load with PlanetLab-like heterogeneity and dynamics.
//!
//! §4.1: "we allow the use of a variation of the delay metric in which all
//! outgoing links from a node are assigned the same cost, which is set to
//! be equal to the measured load of the node … an exponentially-weighted
//! moving average of that load calculated over a given interval (taken to
//! be 1 minute)."
//!
//! §4.2 attributes k-Closest's failure on this metric to "the high variance
//! in node load on PlanetLab", so the model needs (a) a heavy-tailed
//! cross-section — some nodes are persistently slammed — and (b) strong
//! temporal variance, so that last epoch's cheapest neighbor is often not
//! this epoch's. We use a mean-reverting (Ornstein–Uhlenbeck) process in
//! log space around a Pareto-distributed per-node baseline.

use crate::rng::{derive, derive_indexed};
use rand::Rng;
use rand_distr::{Distribution, Normal, Pareto};

/// Pareto scale (minimum baseline load).
const PARETO_SCALE: f64 = 0.4;
/// Pareto shape (smaller = heavier tail).
const PARETO_SHAPE: f64 = 1.2;
/// Cap on baseline load (PlanetLab loadavg rarely exceeded ~30).
const BASELINE_CAP: f64 = 25.0;
/// OU mean reversion rate (1/s) in log-load space: ~3 min correlation
/// time.
const THETA: f64 = 1.0 / 180.0;
/// OU stationary σ in log-load space.
const SIGMA: f64 = 0.7;
/// EWMA smoothing constant per sampling interval (the 1-minute sensor).
const EWMA_ALPHA: f64 = 0.3;
/// The sensor's sampling interval in seconds. [`LoadModel::advance`]
/// scales the smoothing constant to the elapsed time, so the sensor
/// responds at the same rate whether the simulator advances it in one
/// epoch-sized step or many small ones. The deployed sensor samples
/// continuously (every staggered turn ≈ 2 s at n = 32, T = 60 s); over
/// one epoch that compounds to near-complete convergence, which this
/// interval preserves for epoch-sized advances.
const EWMA_INTERVAL_SECS: f64 = 2.0;

/// Per-node load state.
#[derive(Clone, Debug)]
struct NodeLoad {
    /// log of the baseline (stationary mean of the OU process).
    log_base: f64,
    /// Current OU deviation in log space.
    x: f64,
    /// EWMA sensor state (what `loadavg` reports).
    ewma: f64,
}

/// The node-load substrate.
#[derive(Clone, Debug)]
pub struct LoadModel {
    nodes: Vec<NodeLoad>,
    /// Externally-induced load per node (e.g. overlay traffic forwarding
    /// work charged by `egoist-traffic`). Added on top of the background
    /// OU process; the EWMA sensor sees it, so announced load costs react
    /// to carried traffic — the closed loop.
    induced: Vec<f64>,
    pub now: f64,
}

impl LoadModel {
    /// Build with per-node heavy-tailed baselines.
    pub fn new(n: usize, seed: u64) -> Self {
        let pareto = Pareto::new(PARETO_SCALE, PARETO_SHAPE).expect("valid pareto parameters");
        let nodes: Vec<NodeLoad> = (0..n)
            .map(|i| {
                let mut rng = derive_indexed(seed, "load-node", i as u64);
                let base = pareto.sample(&mut rng).min(BASELINE_CAP);
                NodeLoad {
                    log_base: base.ln(),
                    x: 0.0,
                    ewma: base,
                }
            })
            .collect();
        LoadModel {
            induced: vec![0.0; nodes.len()],
            nodes,
            now: 0.0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Advance the load processes by `dt` seconds and refresh the EWMA
    /// sensors, with the smoothing constant scaled to the elapsed
    /// sampling intervals (`α_dt = 1 − (1 − α)^(dt / interval)`), so the
    /// sensor's response rate is independent of the advance step size.
    pub fn advance(&mut self, dt: f64, rng: &mut impl Rng) {
        if dt <= 0.0 {
            return;
        }
        let decay = (-THETA * dt).exp();
        let std_scale = SIGMA * (1.0 - decay * decay).sqrt();
        let normal = Normal::new(0.0, 1.0).expect("unit normal");
        let alpha = 1.0 - (1.0 - EWMA_ALPHA).powf(dt / EWMA_INTERVAL_SECS);
        for (i, nl) in self.nodes.iter_mut().enumerate() {
            nl.x = nl.x * decay + std_scale * normal.sample(rng);
            let instant = (nl.log_base + nl.x).exp() + self.induced[i];
            nl.ewma = alpha * instant + (1.0 - alpha) * nl.ewma;
        }
        self.now += dt;
    }

    /// Instantaneous (true) load of node `i`: background process plus any
    /// externally induced load.
    pub fn instantaneous(&self, i: usize) -> f64 {
        (self.nodes[i].log_base + self.nodes[i].x).exp() + self.induced[i]
    }

    /// Replace the externally-induced per-node load (length must be `n`).
    /// The EWMA sensor picks it up on subsequent [`LoadModel::advance`]
    /// calls, so announcements lag truth exactly like the real sensor.
    pub fn set_induced(&mut self, induced: &[f64]) {
        assert_eq!(induced.len(), self.nodes.len(), "induced load length");
        debug_assert!(induced.iter().all(|l| l.is_finite() && *l >= 0.0));
        self.induced.copy_from_slice(induced);
    }

    /// Externally-induced load of node `i`.
    pub fn induced(&self, i: usize) -> f64 {
        self.induced[i]
    }

    /// Drop all induced load (open-loop operation).
    pub fn clear_induced(&mut self) {
        self.induced.fill(0.0);
    }

    /// The EWMA-sensed load of node `i` (what EGOIST announces).
    pub fn sensed(&self, i: usize) -> f64 {
        self.nodes[i].ewma
    }

    /// All sensed loads.
    pub fn sensed_all(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.sensed(i)).collect()
    }

    /// Deterministic helper used by tests/benches: a fresh model advanced
    /// `steps × dt` with its own derived RNG.
    pub fn warmed(n: usize, seed: u64, steps: usize, dt: f64) -> Self {
        let mut m = Self::new(n, seed);
        let mut rng = derive(seed, "load-warm");
        for _ in 0..steps {
            m.advance(dt, &mut rng);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_are_heterogeneous() {
        let m = LoadModel::new(50, 1);
        let loads: Vec<f64> = (0..50).map(|i| m.sensed(i)).collect();
        let max = loads.iter().cloned().fold(f64::MIN, f64::max);
        let min = loads.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min > 5.0,
            "heavy tail expected: min {min:.3}, max {max:.3}"
        );
    }

    #[test]
    fn loads_stay_positive() {
        let m = LoadModel::warmed(20, 2, 100, 60.0);
        for i in 0..20 {
            assert!(m.sensed(i) > 0.0);
            assert!(m.instantaneous(i) > 0.0);
        }
    }

    #[test]
    fn temporal_variance_is_substantial() {
        let mut m = LoadModel::new(10, 3);
        let mut rng = crate::rng::derive(3, "t");
        let before = m.sensed_all();
        for _ in 0..30 {
            m.advance(60.0, &mut rng);
        }
        let after = m.sensed_all();
        let moved = before
            .iter()
            .zip(&after)
            .filter(|(a, b)| ((*a - *b).abs() / *a) > 0.10)
            .count();
        assert!(moved >= 5, "only {moved}/10 nodes moved >10%");
    }

    #[test]
    fn ewma_lags_instantaneous() {
        // After one step the sensor is a blend, not the raw value.
        let mut m = LoadModel::new(5, 4);
        let mut rng = crate::rng::derive(4, "t");
        let sensed0 = m.sensed(0);
        m.advance(60.0, &mut rng);
        let inst = m.instantaneous(0);
        let sensed1 = m.sensed(0);
        if (inst - sensed0).abs() > 1e-9 {
            assert!(
                (sensed1 - inst).abs() < (inst - sensed0).abs() + 1e-9,
                "EWMA should move toward instantaneous"
            );
        }
    }

    #[test]
    fn determinism() {
        let a = LoadModel::warmed(10, 9, 10, 60.0).sensed_all();
        let b = LoadModel::warmed(10, 9, 10, 60.0).sensed_all();
        assert_eq!(a, b);
    }

    #[test]
    fn induced_load_raises_truth_immediately_and_sensor_with_lag() {
        let mut m = LoadModel::new(4, 5);
        let mut rng = crate::rng::derive(5, "ind");
        let base = m.instantaneous(2);
        let sensed0 = m.sensed(2);
        let mut induced = vec![0.0; 4];
        induced[2] = 10.0;
        m.set_induced(&induced);
        // Truth jumps at once; the EWMA sensor has not sampled yet.
        assert!((m.instantaneous(2) - (base + 10.0)).abs() < 1e-9);
        assert_eq!(m.sensed(2), sensed0);
        // After a few sampling intervals the sensor converges upward.
        for _ in 0..12 {
            m.advance(60.0, &mut rng);
        }
        assert!(
            m.sensed(2) > sensed0 + 5.0,
            "sensor should approach induced load: {} vs {}",
            m.sensed(2),
            sensed0
        );
        let with_traffic = m.instantaneous(2);
        m.clear_induced();
        assert!((with_traffic - m.instantaneous(2) - 10.0).abs() < 1e-9);
        assert_eq!(m.induced(2), 0.0);
    }
}
