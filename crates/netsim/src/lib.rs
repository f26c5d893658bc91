//! PlanetLab-like underlay simulator for the EGOIST reproduction.
//!
//! The paper evaluates EGOIST on 50 live PlanetLab nodes (and a 295-site
//! all-pairs ping trace for the sampling study). Neither the testbed nor
//! the original traces are available, so this crate synthesizes the
//! *relevant structure* of that environment — see `DESIGN.md` §2 for the
//! substitution argument. Everything is seeded and deterministic.
//!
//! Components:
//!
//! * [`delay`] — geo-clustered one-way link delays with access-link
//!   penalties (triangle-inequality violations) and per-pair
//!   Ornstein–Uhlenbeck jitter; this replaces live `ping` / all-pairs
//!   traces.
//! * [`planetlab`] — node rosters matching the paper's site distribution
//!   (30 NA, 11 EU, 7 Asia, 1 SA, 1 Oceania for `n = 50`; 295 sites for
//!   the sampling study).
//! * [`bandwidth`] — per-node access capacities plus cross-traffic dynamics;
//!   the pathChirp estimator is modeled as a noisy probe with ~2% overhead.
//! * [`load`] — heavy-tailed, mean-reverting per-node CPU load with an
//!   EWMA sensor (the paper's 1-minute `loadavg` average).
//! * [`churn`] — ON/OFF renewal processes, trace generation/replay and the
//!   paper's churn-rate statistic (§4.4).
//! * [`fault`] — message-level fault injection (drop, corrupt, rate-limit,
//!   duplicate, reorder, delay jitter) plus the time-windowed
//!   [`fault::FaultPlan`] schedule of partitions, churn storms and
//!   loss/jitter bursts that drives the adversarial fleet harness.
//! * [`rng`] — seed-derivation helpers so every subsystem gets an
//!   independent deterministic stream.
//! * [`topo`] — BRITE-style Waxman and Barabási–Albert synthetic
//!   topologies (the §5 alternative underlays).

pub mod bandwidth;
pub mod churn;
pub mod delay;
pub mod fault;
pub mod load;
pub mod planetlab;
pub mod rng;
pub mod topo;

pub use bandwidth::BandwidthModel;
pub use churn::{ChurnModel, ChurnTrace};
pub use delay::DelayModel;
pub use fault::{FaultConfig, FaultInjector, FaultPlan, FaultWindow, WindowFault};
pub use load::LoadModel;
pub use planetlab::{PlanetLabSpec, Region};

#[cfg(test)]
mod proptests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive;

    /// FNV-1a over the bit patterns of `values`.
    fn fnv(values: impl IntoIterator<Item = f64>) -> u64 {
        values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// Every tuning value of the three substrates, pinned by the bits
    /// they produce: a mistyped constant moves one of these hashes
    /// directly, where the engine goldens would show only a different
    /// fingerprint.
    #[test]
    fn substrate_bits_are_pinned() {
        let mut rng = derive(7, "golden");
        let mut delay = DelayModel::planetlab_50(7);
        let base = fnv(delay.base().as_slice().iter().copied());
        delay.advance(90.0, &mut rng);
        let current = fnv(delay.current().as_slice().iter().copied());
        let spec = PlanetLabSpec::uniform(Region::NorthAmerica, 200);
        let roster = fnv(DelayModel::from_spec(&spec, 7)
            .base()
            .as_slice()
            .iter()
            .copied());

        let mut load = LoadModel::new(30, 7);
        for _ in 0..4 {
            load.advance(60.0, &mut rng);
        }
        let sensed = fnv(load.sensed_all());

        let mut bw = BandwidthModel::new(30, 7);
        bw.advance(60.0, &mut rng);
        let available = fnv(bw.available_matrix().as_slice().iter().copied());
        let probe = fnv([bw.probe(3, 5, 7, 1)]);
        let caps = fnv((0..30).map(|i| bw.session_cap(i)));

        assert_eq!(
            [base, current, roster, sensed, available, probe, caps],
            [
                0x84be_aa6a_07a4_fb7f,
                0xa19b_18a6_a804_f8d4,
                0xdd44_2762_b338_602b,
                0x8dec_01ab_ab4d_a267,
                0xc392_b5a4_a8a6_d0d0,
                0xd0fe_9d1e_d35c_cafd,
                0x838c_2a9a_2f23_1ef6,
            ]
        );
    }
}
