//! Available-bandwidth model and pathChirp-like estimator.
//!
//! §4.1 uses pathChirp to estimate per-link available bandwidth and routes
//! on maximum-bottleneck paths. The structural facts the experiment needs:
//!
//! * bandwidth is limited primarily by **access links** (PlanetLab sites
//!   had 10–1000 Mbps access, heavily shared), so the available bandwidth
//!   of overlay link `i → j` is ≈ `min(up_i, down_j)` scaled by transient
//!   cross-traffic;
//! * distributions are roughly **lognormal** across sites;
//! * estimates are noisy (pathChirp reports within ~10–20% of truth) and
//!   probing costs ≈ 2% of the measured bandwidth (§4.3).
//!
//! The paper's multipath application (§6.1) exploits *session-level rate
//! limits at AS peering points*: one session through one peering point gets
//! at most the peering cap, while distinct first-hop neighbors behind
//! different peering points multiply throughput. We model this with a
//! per-session cap: a *direct* transfer `i → j` gets
//! `min(session_cap_i, avail(i,j))`, while the overlay path through a
//! neighbor behind a different access uses that neighbor's own session.

use crate::rng::{derive, derive_indexed};
use egoist_graph::DistanceMatrix;
use rand::Rng;
use rand_distr::{Distribution, LogNormal, Normal};

/// Tuning knobs for the bandwidth model.
#[derive(Clone, Debug)]
pub struct BandwidthConfig {
    /// Lognormal μ of access capacity in ln(Mbps). exp(4.0) ≈ 55 Mbps.
    pub capacity_mu: f64,
    /// Lognormal σ of access capacity.
    pub capacity_sigma: f64,
    /// Cap on access capacity (Mbps).
    pub capacity_cap: f64,
    /// OU mean-reversion rate (1/s) of the cross-traffic utilization.
    pub theta: f64,
    /// OU stationary σ of utilization (in logit-ish space, see below).
    pub sigma: f64,
    /// Mean fraction of capacity available (1 − average utilization).
    pub mean_avail_fraction: f64,
    /// Relative std-dev of a single pathChirp estimate.
    pub probe_noise: f64,
    /// Fraction of session caps relative to access capacity: models the
    /// per-session rate limit at peering points (§6.1).
    pub session_cap_fraction: f64,
}

impl Default for BandwidthConfig {
    fn default() -> Self {
        BandwidthConfig {
            capacity_mu: 4.0,
            capacity_sigma: 1.0,
            capacity_cap: 1000.0,
            theta: 1.0 / 150.0,
            sigma: 0.35,
            mean_avail_fraction: 0.6,
            probe_noise: 0.10,
            session_cap_fraction: 0.35,
        }
    }
}

/// The bandwidth substrate.
#[derive(Clone, Debug)]
pub struct BandwidthModel {
    /// Uplink capacity per node (Mbps).
    up: Vec<f64>,
    /// Downlink capacity per node (Mbps).
    down: Vec<f64>,
    /// Per-directed-pair OU state for the availability fraction.
    util_x: Vec<f64>,
    /// Overlay traffic currently carried on each directed pair (Mbps),
    /// charged by `egoist-traffic`; reduces what probes and routing see —
    /// the closed loop's bandwidth side.
    consumed: Vec<f64>,
    cfg: BandwidthConfig,
    n: usize,
    pub now: f64,
}

impl BandwidthModel {
    /// Build with lognormal access capacities.
    pub fn new(n: usize, cfg: &BandwidthConfig, seed: u64) -> Self {
        let dist = LogNormal::new(cfg.capacity_mu, cfg.capacity_sigma).expect("valid lognormal");
        let mut rng = derive(seed, "bw-caps");
        let up: Vec<f64> = (0..n)
            .map(|_| dist.sample(&mut rng).min(cfg.capacity_cap))
            .collect();
        let down: Vec<f64> = (0..n)
            .map(|_| dist.sample(&mut rng).min(cfg.capacity_cap))
            .collect();
        BandwidthModel {
            up,
            down,
            util_x: vec![0.0; n * n],
            consumed: vec![0.0; n * n],
            cfg: cfg.clone(),
            n,
            now: 0.0,
        }
    }

    /// Default-config model.
    pub fn with_defaults(n: usize, seed: u64) -> Self {
        Self::new(n, &BandwidthConfig::default(), seed)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Advance the cross-traffic processes by `dt` seconds.
    pub fn advance(&mut self, dt: f64, rng: &mut impl Rng) {
        if dt <= 0.0 {
            return;
        }
        let decay = (-self.cfg.theta * dt).exp();
        let std_scale = self.cfg.sigma * (1.0 - decay * decay).sqrt();
        let normal = Normal::new(0.0, 1.0).expect("unit normal");
        for x in &mut self.util_x {
            *x = *x * decay + std_scale * normal.sample(rng);
        }
        self.now += dt;
    }

    /// Fraction of the pair's capacity currently available, in (0, 1).
    fn avail_fraction(&self, i: usize, j: usize) -> f64 {
        // Squash mean + OU deviation through a logistic to stay in (0,1).
        let m = self.cfg.mean_avail_fraction;
        let bias = (m / (1.0 - m)).ln();
        let z = bias + self.util_x[i * self.n + j];
        1.0 / (1.0 + (-z).exp())
    }

    /// True available bandwidth (Mbps) of the direct path `i → j`:
    /// cross-traffic-scaled capacity minus carried overlay traffic.
    pub fn available(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return f64::INFINITY;
        }
        let raw = self.up[i].min(self.down[j]) * self.avail_fraction(i, j);
        (raw - self.consumed[i * self.n + j]).max(0.0)
    }

    /// Available bandwidth ignoring carried overlay traffic (the raw
    /// capacity the traffic engine allocates from).
    pub fn unloaded_available(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return f64::INFINITY;
        }
        self.up[i].min(self.down[j]) * self.avail_fraction(i, j)
    }

    /// Replace the carried-traffic matrix (row-major `n × n`, Mbps).
    pub fn set_consumed(&mut self, consumed: &[f64]) {
        assert_eq!(consumed.len(), self.n * self.n, "consumed matrix size");
        debug_assert!(consumed.iter().all(|c| c.is_finite() && *c >= 0.0));
        self.consumed.copy_from_slice(consumed);
    }

    /// Carried overlay traffic on the directed pair (Mbps).
    pub fn consumed(&self, i: usize, j: usize) -> f64 {
        self.consumed[i * self.n + j]
    }

    /// Drop all carried traffic (open-loop operation).
    pub fn clear_consumed(&mut self) {
        self.consumed.fill(0.0);
    }

    /// Snapshot matrix of true available bandwidths (0 on the diagonal so
    /// it can double as an edge-capacity matrix).
    pub fn available_matrix(&self) -> DistanceMatrix {
        DistanceMatrix::from_fn(self.n, |i, j| self.available(i, j))
    }

    /// One pathChirp estimate: truth times multiplicative noise. `seq`
    /// decorrelates successive probes deterministically.
    pub fn probe(&self, i: usize, j: usize, seed: u64, seq: u64) -> f64 {
        let truth = self.available(i, j);
        let mut rng = derive_indexed(seed, "bw-probe", seq ^ ((i * self.n + j) as u64) << 20);
        let noise = Normal::new(0.0, self.cfg.probe_noise).expect("noise sigma");
        (truth * (1.0 + noise.sample(&mut rng))).max(0.0)
    }

    /// Per-session rate cap of source `i` (peering-point shaping, §6.1).
    pub fn session_cap(&self, i: usize) -> f64 {
        self.up[i] * self.cfg.session_cap_fraction
    }

    /// Bandwidth a *single session* from `i` to `j` over the direct IP path
    /// achieves: limited by both the path and the per-session cap.
    pub fn direct_session_bandwidth(&self, i: usize, j: usize) -> f64 {
        self.available(i, j).min(self.session_cap(i))
    }

    /// Uplink capacity accessor.
    pub fn up_capacity(&self, i: usize) -> f64 {
        self.up[i]
    }

    /// Downlink capacity accessor.
    pub fn down_capacity(&self, i: usize) -> f64 {
        self.down[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_are_heterogeneous_and_bounded() {
        let m = BandwidthModel::with_defaults(50, 1);
        let max = (0..50).map(|i| m.up_capacity(i)).fold(f64::MIN, f64::max);
        let min = (0..50).map(|i| m.up_capacity(i)).fold(f64::MAX, f64::min);
        assert!(max <= 1000.0);
        assert!(max / min > 5.0, "expected spread, got {min}..{max}");
    }

    #[test]
    fn available_below_capacity() {
        let m = BandwidthModel::with_defaults(20, 2);
        for i in 0..20 {
            for j in 0..20 {
                if i != j {
                    assert!(m.available(i, j) <= m.up_capacity(i).min(m.down_capacity(j)));
                    assert!(m.available(i, j) > 0.0);
                }
            }
        }
    }

    #[test]
    fn probe_is_noisy_but_unbiased_ish() {
        let m = BandwidthModel::with_defaults(5, 3);
        let truth = m.available(0, 1);
        let est: Vec<f64> = (0..200).map(|s| m.probe(0, 1, 3, s)).collect();
        let mean = est.iter().sum::<f64>() / est.len() as f64;
        assert!(
            (mean - truth).abs() / truth < 0.05,
            "mean {mean} vs {truth}"
        );
        assert!(est.iter().any(|&e| (e - truth).abs() / truth > 0.02));
    }

    #[test]
    fn session_cap_below_uplink() {
        let m = BandwidthModel::with_defaults(10, 4);
        for i in 0..10 {
            assert!(m.session_cap(i) < m.up_capacity(i));
            for j in 0..10 {
                if i != j {
                    assert!(m.direct_session_bandwidth(i, j) <= m.session_cap(i));
                }
            }
        }
    }

    #[test]
    fn dynamics_move_availability() {
        let mut m = BandwidthModel::with_defaults(10, 5);
        let before = m.available(0, 1);
        let mut rng = derive(5, "adv");
        for _ in 0..20 {
            m.advance(60.0, &mut rng);
        }
        assert_ne!(before, m.available(0, 1));
    }

    #[test]
    fn determinism() {
        let a = BandwidthModel::with_defaults(10, 7).available_matrix();
        let b = BandwidthModel::with_defaults(10, 7).available_matrix();
        assert_eq!(a, b);
    }

    #[test]
    fn consumed_traffic_reduces_availability_and_probes() {
        let mut m = BandwidthModel::with_defaults(6, 8);
        let before = m.available(0, 1);
        let mut consumed = vec![0.0; 36];
        consumed[1] = before * 0.5;
        m.set_consumed(&consumed);
        assert!((m.available(0, 1) - before * 0.5).abs() < 1e-9);
        assert_eq!(m.unloaded_available(0, 1), before);
        assert_eq!(m.consumed(0, 1), before * 0.5);
        // Saturating the pair floors availability at zero.
        consumed[1] = before * 10.0;
        m.set_consumed(&consumed);
        assert_eq!(m.available(0, 1), 0.0);
        assert!(m.probe(0, 1, 8, 0) <= 1e-9, "probe of a saturated link");
        m.clear_consumed();
        assert_eq!(m.available(0, 1), before);
    }
}
