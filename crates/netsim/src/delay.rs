//! Synthetic one-way link delays with realistic structure and dynamics.
//!
//! Construction (all seeded):
//!
//! 1. **Propagation**: sites are placed on a plane calibrated in
//!    "milliseconds" ([`crate::planetlab`]); the propagation component of
//!    `d_ij` is the Euclidean distance.
//! 2. **Access penalty**: each node draws a lognormal access-link penalty
//!    added to *all* its adjacent links; a fixed fraction of nodes
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

/// Fraction of nodes with a congested access link.
const CONGESTED_FRACTION: f64 = 0.15;
/// Penalty (ms, one-way) added per congested endpoint.
const CONGESTED_PENALTY: f64 = 100.0;
/// Lognormal μ of the regular access penalty (ms): exp(1.2) ≈ 3.3 ms
/// median.
const ACCESS_MU: f64 = 1.2;
/// Lognormal σ of the regular access penalty.
const ACCESS_SIGMA: f64 = 1.0;
/// Max relative asymmetry between `d_ij` and `d_ji` (0.15 → ±15%).
const ASYMMETRY: f64 = 0.15;
/// OU mean-reversion rate (1/s) of per-pair jitter: ~2 min correlation
/// time.
const JITTER_THETA: f64 = 1.0 / 120.0;
/// OU stationary standard deviation as a fraction of the base delay.
const JITTER_REL_SIGMA: f64 = 0.10;
/// Hard floor for any one-way delay (ms).
const MIN_DELAY: f64 = 0.2;

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
    n: usize,
    /// Simulation time (s) the jitter has been advanced to.
    pub now: f64,
}

impl DelayModel {
    /// Build the paper's 50-node PlanetLab-like delay space.
    pub fn planetlab_50(seed: u64) -> Self {
        Self::from_spec(&PlanetLabSpec::paper_50(), seed)
    }

    /// Build from an arbitrary roster.
    pub fn from_spec(spec: &PlanetLabSpec, seed: u64) -> Self {
        let n = spec.n();
        let mut rng = derive(seed, "delay-base");
        let pts = spec.place(&mut rng);

        // Per-node access penalties.
        let access_dist =
            LogNormal::new(ACCESS_MU, ACCESS_SIGMA).expect("valid lognormal parameters");
        let mut access: Vec<f64> = (0..n).map(|_| access_dist.sample(&mut rng)).collect();
        let n_congested = ((n as f64) * CONGESTED_FRACTION).round() as usize;
        // Deterministically congest the nodes with the highest draw order:
        // pick indices via the rng to avoid biasing particular regions.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            idx.swap(i, j);
        }
        for &i in idx.iter().take(n_congested) {
            access[i] += CONGESTED_PENALTY;
        }

        let base = DistanceMatrix::from_fn(n, |i, j| {
            let (xi, yi) = pts[i];
            let (xj, yj) = pts[j];
            let prop = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt();
            let mut pair_rng = derive_indexed(seed, "delay-pair", (i * n + j) as u64);
            let asym = 1.0 + pair_rng.random_range(-ASYMMETRY..ASYMMETRY);
            ((prop + access[i] + access[j]) * asym).max(MIN_DELAY)
        });

        let jitter = (0..n * n)
            .map(|p| {
                let b = base.at(p / n, p % n);
                OuJitter {
                    x: 0.0,
                    sigma: b * JITTER_REL_SIGMA,
                }
            })
            .collect();

        DelayModel {
            base,
            jitter,
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
        let decay = (-JITTER_THETA * dt).exp();
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
        (self.base.at(i, j) + self.jitter[i * self.n + j].x).max(MIN_DELAY)
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
