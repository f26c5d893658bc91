//! Synthetic one-way link delays with realistic structure and dynamics.
//!
//! Construction (all seeded):
//!
//! 1. **Propagation**: sites are placed on a plane calibrated in
//!    "milliseconds" ([`crate::planetlab`]); the propagation component of
//!    `d_ij` is the Euclidean distance.
//! 2. **Access penalty**: each node draws a lognormal access-link penalty
//!    added to *all* its adjacent links; a configurable fraction of nodes
//!    is "congested" with a large penalty. This produces the
//!    triangle-inequality violations that make overlay routing (and BR
//!    neighbor selection) profitable — without them a full mesh of direct
//!    paths would always win and every policy would look alike.
//! 3. **Asymmetry**: each directed pair gets an independent multiplicative
//!    factor, honoring §2.1's `d_ij ≠ d_ji`.
//! 4. **Dynamics**: each directed pair carries an Ornstein–Uhlenbeck jitter
//!    process; [`DelayModel::advance`] evolves it, so consecutive epochs see
//!    correlated but drifting delays (the reason BR keeps re-wiring in
//!    Fig. 3).

use crate::planetlab::PlanetLabSpec;
use crate::rng::{derive, derive_indexed};
use egoist_graph::DistanceMatrix;
use rand::Rng;
use rand_distr::{Distribution, LogNormal, Normal};

/// Tuning knobs for the delay generator.
#[derive(Clone, Debug)]
pub struct DelayConfig {
    /// Fraction of nodes with a congested access link.
    pub congested_fraction: f64,
    /// Penalty (ms, one-way) added per congested endpoint.
    pub congested_penalty: f64,
    /// Lognormal μ/σ of the regular access penalty (ms).
    pub access_mu: f64,
    pub access_sigma: f64,
    /// Max relative asymmetry between `d_ij` and `d_ji` (e.g. 0.15 → ±15%).
    pub asymmetry: f64,
    /// OU mean-reversion rate (1/s) of per-pair jitter.
    pub jitter_theta: f64,
    /// OU stationary standard deviation as a fraction of the base delay.
    pub jitter_rel_sigma: f64,
    /// Hard floor for any one-way delay (ms).
    pub min_delay: f64,
    /// Multiplier on inter-region distances (region centers move apart,
    /// intra-region spreads stay put). Raises the intercontinental /
    /// intracontinental contrast that makes random long links expensive.
    pub geo_scale: f64,
}

impl Default for DelayConfig {
    fn default() -> Self {
        DelayConfig {
            congested_fraction: 0.15,
            congested_penalty: 100.0,
            access_mu: 1.2, // exp(1.2) ≈ 3.3 ms median access penalty
            access_sigma: 1.0,
            asymmetry: 0.15,
            jitter_theta: 1.0 / 120.0, // ~2 min correlation time
            jitter_rel_sigma: 0.10,
            min_delay: 0.2,
            geo_scale: 1.0,
        }
    }
}

/// One Ornstein–Uhlenbeck state per directed pair.
#[derive(Clone, Debug)]
struct OuJitter {
    /// Current deviation (ms) around the base delay.
    x: f64,
    /// Stationary σ (ms).
    sigma: f64,
}

/// The delay substrate: a base matrix plus evolving jitter.
#[derive(Clone, Debug)]
pub struct DelayModel {
    base: DistanceMatrix,
    jitter: Vec<OuJitter>,
    cfg: DelayConfig,
    n: usize,
    /// Simulation time (s) the jitter has been advanced to.
    pub now: f64,
}

impl DelayModel {
    /// Build the paper's 50-node PlanetLab-like delay space.
    pub fn planetlab_50(seed: u64) -> Self {
        Self::from_spec(&PlanetLabSpec::paper_50(), &DelayConfig::default(), seed)
    }

    /// Build from an arbitrary roster and config.
    pub fn from_spec(spec: &PlanetLabSpec, cfg: &DelayConfig, seed: u64) -> Self {
        let n = spec.n();
        let mut rng = derive(seed, "delay-base");
        let mut pts = spec.place(&mut rng);
        // Pull region centers apart without widening the regions
        // themselves: p = center·scale + (p − center).
        for (p, region) in pts.iter_mut().zip(spec.regions()) {
            let (cx, cy) = region.center();
            p.0 += cx * (cfg.geo_scale - 1.0);
            p.1 += cy * (cfg.geo_scale - 1.0);
        }

        // Per-node access penalties.
        let access_dist =
            LogNormal::new(cfg.access_mu, cfg.access_sigma).expect("valid lognormal parameters");
        let mut access: Vec<f64> = (0..n).map(|_| access_dist.sample(&mut rng)).collect();
        let n_congested = ((n as f64) * cfg.congested_fraction).round() as usize;
        // Deterministically congest the nodes with the highest draw order:
        // pick indices via the rng to avoid biasing particular regions.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            idx.swap(i, j);
        }
        for &i in idx.iter().take(n_congested) {
            access[i] += cfg.congested_penalty;
        }

        let base = DistanceMatrix::from_fn(n, |i, j| {
            let (xi, yi) = pts[i];
            let (xj, yj) = pts[j];
            let prop = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt();
            let mut pair_rng = derive_indexed(seed, "delay-pair", (i * n + j) as u64);
            let asym = 1.0 + pair_rng.random_range(-cfg.asymmetry..cfg.asymmetry);
            ((prop + access[i] + access[j]) * asym).max(cfg.min_delay)
        });

        let jitter = (0..n * n)
            .map(|p| {
                let b = base.at(p / n, p % n);
                OuJitter {
                    x: 0.0,
                    sigma: b * cfg.jitter_rel_sigma,
                }
            })
            .collect();

        DelayModel {
            base,
            jitter,
            cfg: cfg.clone(),
            n,
            now: 0.0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the model is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The static base matrix (no jitter).
    pub fn base(&self) -> &DistanceMatrix {
        &self.base
    }

    /// Advance the jitter processes by `dt` seconds (exact OU transition).
    pub fn advance(&mut self, dt: f64, rng: &mut impl Rng) {
        if dt <= 0.0 {
            return;
        }
        let theta = self.cfg.jitter_theta;
        let decay = (-theta * dt).exp();
        let std_scale = (1.0 - decay * decay).sqrt();
        let normal = Normal::new(0.0, 1.0).expect("unit normal");
        for j in &mut self.jitter {
            j.x = j.x * decay + j.sigma * std_scale * normal.sample(rng);
        }
        self.now += dt;
    }

    /// The current one-way delay of the directed pair `(i, j)` in ms.
    pub fn delay(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        (self.base.at(i, j) + self.jitter[i * self.n + j].x).max(self.cfg.min_delay)
    }

    /// Snapshot of the full current delay matrix.
    pub fn current(&self) -> DistanceMatrix {
        DistanceMatrix::from_fn(self.n, |i, j| self.delay(i, j))
    }

    /// RTT between `i` and `j` (sum of the two one-way delays) — what a
    /// ping measurement sees before halving.
    pub fn rtt(&self, i: usize, j: usize) -> f64 {
        self.delay(i, j) + self.delay(j, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive;

    #[test]
    fn deterministic_construction() {
        let a = DelayModel::planetlab_50(3).current();
        let b = DelayModel::planetlab_50(3).current();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = DelayModel::planetlab_50(3).current();
        let b = DelayModel::planetlab_50(4).current();
        assert_ne!(a, b);
    }

    #[test]
    fn delays_positive_and_asymmetric() {
        let m = DelayModel::planetlab_50(7);
        let d = m.current();
        let mut asym = 0usize;
        for i in 0..50 {
            for j in 0..50 {
                if i == j {
                    assert_eq!(d.at(i, j), 0.0);
                } else {
                    assert!(d.at(i, j) > 0.0);
                    if (d.at(i, j) - d.at(j, i)).abs() > 1e-9 {
                        asym += 1;
                    }
                }
            }
        }
        assert!(asym > 1000, "delays should be broadly asymmetric ({asym})");
    }

    #[test]
    fn intercontinental_exceeds_intracontinental_on_average() {
        let m = DelayModel::planetlab_50(11);
        let d = m.base();
        // Nodes 0..30 NA, 30..41 EU per roster order.
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for i in 0..30 {
            for j in 0..30 {
                if i != j {
                    intra.push(d.at(i, j));
                }
            }
            for j in 30..41 {
                inter.push(d.at(i, j));
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&inter) > 1.5 * avg(&intra),
            "NA–EU {} vs NA–NA {}",
            avg(&inter),
            avg(&intra)
        );
    }

    #[test]
    fn jitter_moves_but_stays_near_base() {
        let mut m = DelayModel::planetlab_50(5);
        let before = m.delay(0, 1);
        let mut rng = derive(5, "advance");
        for _ in 0..50 {
            m.advance(60.0, &mut rng);
        }
        let after = m.delay(0, 1);
        assert_ne!(before, after);
        let base = m.base().at(0, 1);
        assert!(
            (after - base).abs() < base,
            "jitter exploded: base {base}, now {after}"
        );
    }

    #[test]
    fn advance_zero_dt_is_noop() {
        let mut m = DelayModel::planetlab_50(5);
        let before = m.current();
        m.advance(0.0, &mut derive(5, "a"));
        assert_eq!(before, m.current());
    }

    #[test]
    fn triangle_violations_exist() {
        // Congested access links must create pairs where a detour beats
        // the direct path — the raison d'être of overlay routing.
        let m = DelayModel::planetlab_50(2);
        let d = m.base();
        let n = d.len();
        let mut violations = 0usize;
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                for k in 0..n {
                    if k != i && k != j && d.at(i, k) + d.at(k, j) < d.at(i, j) - 1e-9 {
                        violations += 1;
                        break;
                    }
                }
            }
        }
        assert!(
            violations > n,
            "expected widespread TIVs, found {violations}"
        );
    }

    #[test]
    fn rtt_is_sum_of_oneways() {
        let m = DelayModel::planetlab_50(2);
        assert!((m.rtt(1, 2) - (m.delay(1, 2) + m.delay(2, 1))).abs() < 1e-12);
    }
}
