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
