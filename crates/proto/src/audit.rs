//! Second-hand link claims (§3.4): ranking what a node is told about
//! links it cannot measure.
//!
//! The paper's countermeasure to cost inflation is to audit declared link
//! costs against independent estimates. That audit lives in two places:
//! a node audits the announced links that end at itself first-hand, with
//! its own ping measurements (`EgoistNode::audit_lsa`), and the
//! coordinate audit of the simulator's free riders is
//! [`egoist_core::cheat::audit`]. This module holds only [`ClaimRanker`],
//! which covers the claims neither of those can check: links between
//! third parties.

/// Verdict on one second-hand (third-party) link claim.
///
/// A per-node audit (§3.4) only checks links that terminate at the
/// auditor, so a lure that forges links *between third parties* slides
/// straight past it. [`ClaimRanker`] closes that hole with the triangle
/// inequality: for a claimed link `o → x`, any node holding delay
/// estimates to both endpoints knows `|est(me,o) − est(me,x)|` is a hard
/// lower bound on the true delay `d(o,x)`. A claim far below that bound
/// is provably false — no embedding error excuse applies, because the
/// bound uses the node's *own measured* delays, not coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClaimVerdict {
    /// Claim is consistent with the triangle lower bound.
    Corroborated,
    /// Claim violates the lower bound beyond slack — provably false.
    Contradicted,
    /// No usable estimates to either endpoint; cannot rank.
    Unknown,
}

/// Ranks second-hand link claims against the triangle lower bound.
#[derive(Clone, Copy, Debug)]
pub struct ClaimRanker {
    /// Multiplicative slack on the claimed cost absorbing genuine delay
    /// variation (claims may honestly sit below a noisy bound by this
    /// relative margin).
    pub slack: f64,
    /// Additive margin (metric units) shielding near-zero claims from
    /// measurement noise.
    pub margin: f64,
    /// Triangle-inequality-violation allowance, as a fraction of the
    /// larger endpoint estimate. Measured delay spaces are not exact
    /// metrics — routing-policy asymmetry means `d(me,o) − d(me,x)` can
    /// exceed `d(o,x)` by a slice of the *long* paths even between two
    /// nearby remote nodes — so the bound only fires past this
    /// allowance. Deployments on a symmetric substrate (the simulated
    /// fleet's planar matrix) can set it to 0 for the exact bound.
    pub tiv: f64,
}

impl Default for ClaimRanker {
    fn default() -> Self {
        ClaimRanker {
            slack: 0.5,
            margin: 2.0,
            tiv: 0.4,
        }
    }
}

impl ClaimRanker {
    /// Rank the claim `origin → neighbor` at `claimed` cost, given this
    /// node's own delay estimates to both endpoints (`NaN`/non-positive
    /// values mean "no estimate").
    pub fn rank(&self, est_to_origin: f64, est_to_neighbor: f64, claimed: f64) -> ClaimVerdict {
        let usable = |e: f64| e.is_finite() && e > 0.0;
        if !usable(est_to_origin) || !usable(est_to_neighbor) {
            return ClaimVerdict::Unknown;
        }
        // Triangle inequality: d(o,x) ≥ |d(me,o) − d(me,x)|, up to the
        // substrate's asymmetry allowance on the long legs.
        let lower_bound =
            (est_to_origin - est_to_neighbor).abs() - self.tiv * est_to_origin.max(est_to_neighbor);
        if claimed * (1.0 + self.slack) + self.margin < lower_bound {
            ClaimVerdict::Contradicted
        } else {
            ClaimVerdict::Corroborated
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egoist_netsim::DelayModel;

    #[test]
    fn claim_ranker_contradicts_impossibly_cheap_third_party_links() {
        let r = ClaimRanker::default();
        // I measure 5 ms to the origin and 80 ms to the claimed
        // neighbor; the link between them cannot be under 75 ms, so a
        // 1 ms claim is provably forged even with 50% slack + 2 ms.
        assert_eq!(r.rank(5.0, 80.0, 1.0), ClaimVerdict::Contradicted);
        // An honest 90 ms claim clears the bound easily.
        assert_eq!(r.rank(5.0, 80.0, 90.0), ClaimVerdict::Corroborated);
        // Claims above the bound are never contradicted (inflation is
        // the per-node audit's job, not the triangle bound's).
        assert_eq!(r.rank(5.0, 80.0, 500.0), ClaimVerdict::Corroborated);
    }

    #[test]
    fn claim_ranker_tolerates_noise_near_the_bound() {
        let r = ClaimRanker::default();
        // Lower bound 20; a 15 claim is within 50% slack (15·1.5 = 22.5).
        assert_eq!(r.rank(30.0, 50.0, 15.0), ClaimVerdict::Corroborated);
        // Near-zero endpoints: additive margin shields tiny claims.
        assert_eq!(r.rank(1.0, 2.5, 0.1), ClaimVerdict::Corroborated);
    }

    #[test]
    fn claim_ranker_unknown_without_estimates() {
        let r = ClaimRanker::default();
        assert_eq!(r.rank(f64::NAN, 10.0, 1.0), ClaimVerdict::Unknown);
        assert_eq!(r.rank(10.0, 0.0, 1.0), ClaimVerdict::Unknown);
        assert_eq!(r.rank(-1.0, 10.0, 1.0), ClaimVerdict::Unknown);
    }

    #[test]
    fn claim_ranker_never_contradicts_true_distances() {
        // On a real metric every true d(o,x) satisfies the triangle
        // inequality, so honest claims are never contradicted from any
        // vantage point.
        let d = DelayModel::planetlab_50(13).base().clone();
        let r = ClaimRanker::default();
        let n = d.len();
        for me in 0..n {
            for o in 0..n {
                for x in 0..n {
                    if me == o || me == x || o == x {
                        continue;
                    }
                    let v = r.rank(d.at(me, o), d.at(me, x), d.at(o, x));
                    assert_ne!(
                        v,
                        ClaimVerdict::Contradicted,
                        "honest claim contradicted: me={me} o={o} x={x}"
                    );
                }
            }
        }
    }
}
