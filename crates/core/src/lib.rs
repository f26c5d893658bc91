//! # egoist-core — Selfish Neighbor Selection for overlay routing
//!
//! The primary contribution of the EGOIST paper, as a library:
//!
//! * [`cost`] — the SNS cost model: preference-weighted sums of
//!   shortest-path distances (Definition 1 / `C_i(S)`), the `M ≫ n`
//!   disconnection penalty, and routing-cost evaluation that separates
//!   *announced* costs (what the link-state protocol disseminates and
//!   routing/wiring decisions use) from *true* costs (what traffic
//!   actually experiences) — the distinction that makes the free-rider
//!   study (§4.5) expressible.
//! * [`wiring`] — wirings `s_i`, global wirings `S`, residual graphs
//!   `G_{−i}`.
//! * [`residual`] — the one [`ResidualView`] over `G_{−i}` pairwise
//!   state: a slot table that borrows base rows (the epoch snapshot's,
//!   or a dense matrix's), reads the pool rows a [`ResidualArena`] fill
//!   computed (removal repairs, or the protocol node's batched sweep),
//!   and panics on a row nobody named.
//! * [`policies`] — every neighbor-selection policy of §3.2/§3.3: exact
//!   Best-Response, local-search BR, BR(ε), k-Random, k-Closest,
//!   k-Regular, HybridBR, and the bandwidth-objective BR of §4.1.
//! * [`sampling`] — §5's scalability mechanisms: unbiased random sampling
//!   and topology-based biased sampling with the `b_ij` ranking function.
//! * [`game`] — the one wiring turn ([`game::choose`]) the dynamics
//!   engines and the protocol node play, and
//!   iterated best-response dynamics on static costs over the route-state
//!   engine: round-robin re-wiring, convergence detection, re-wiring
//!   counts, social cost.
//! * [`sim`] — the epoch simulator that stands in for the PlanetLab
//!   deployment; regenerates every figure of §4 (see `crates/bench`).
//! * [`cheat`] — free riders (cost inflation) and the audit countermeasure
//!   sketched in §3.4.
//! * [`multipath`] — the §6 applications: multipath transfer gain and
//!   disjoint-path counting.
//! * [`stats`] — means, 95% confidence intervals, percentiles for
//!   reporting (the paper reports mean ± 95% CI across nodes).

pub mod cheat;
pub mod cost;
pub mod game;
pub mod multipath;
pub mod policies;
pub mod residual;
pub mod sampling;
pub mod sim;
pub mod snapshot;
pub mod stats;
pub mod wiring;

pub use cost::Preferences;
pub use game::Game;
pub use policies::{Policy, PolicyKind, WiringContext};
pub use residual::{ResidualArena, ResidualView};
pub use wiring::Wiring;

#[cfg(test)]
mod proptests;
