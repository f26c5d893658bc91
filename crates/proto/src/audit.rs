//! Link-state audits (§3.4): catching free riders on the wire.
//!
//! "Nodes could periodically select a random subset of remote nodes and
//! 'audit them' by asking the coordinate system for the delays of the
//! outgoing links of the audited nodes and comparing them to the actual
//! values that the audited nodes declare on the link-state routing
//! protocol."
//!
//! [`Auditor`] implements exactly that: it reads declared link costs out
//! of an [`Lsdb`] snapshot, obtains independent estimates from a Vivaldi
//! [`CoordinateSystem`] (or any estimator), and flags origins whose
//! declarations deviate beyond a tolerance on more than a configurable
//! fraction of audited links. Tolerances must absorb both coordinate
//! embedding error and genuine delay variation, so the defaults are
//! deliberately loose — a ×2 inflation still towers over them.

use crate::lsdb::Lsdb;
use egoist_coord::CoordinateSystem;
use egoist_graph::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Audit configuration.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Nodes audited per round.
    pub nodes_per_round: usize,
    /// Links checked per audited node.
    pub links_per_node: usize,
    /// Relative deviation beyond which a link is suspicious.
    pub link_tolerance: f64,
    /// Fraction of suspicious links that flags the node.
    pub flag_fraction: f64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            nodes_per_round: 5,
            links_per_node: 4,
            link_tolerance: 0.6,
            flag_fraction: 0.5,
        }
    }
}

/// Outcome of auditing one origin.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditVerdict {
    pub origin: NodeId,
    pub links_checked: usize,
    pub links_suspicious: usize,
    pub flagged: bool,
}

/// The §3.4 auditor.
pub struct Auditor {
    pub cfg: AuditConfig,
}

impl Auditor {
    /// Auditor with the given configuration.
    pub fn new(cfg: AuditConfig) -> Self {
        Auditor { cfg }
    }

    /// Audit one round: sample origins from the LSDB and compare their
    /// declared out-link costs against `estimate(from, to)`.
    pub fn audit_round(
        &self,
        lsdb: &Lsdb,
        mut estimate: impl FnMut(NodeId, NodeId) -> f64,
        rng: &mut StdRng,
    ) -> Vec<AuditVerdict> {
        let mut origins = lsdb.origins();
        origins.shuffle(rng);
        origins.truncate(self.cfg.nodes_per_round);
        origins
            .into_iter()
            .map(|origin| self.audit_origin(lsdb, origin, &mut estimate))
            .collect()
    }

    /// Audit a single origin's announced links.
    pub fn audit_origin(
        &self,
        lsdb: &Lsdb,
        origin: NodeId,
        estimate: &mut impl FnMut(NodeId, NodeId) -> f64,
    ) -> AuditVerdict {
        let mut checked = 0usize;
        let mut suspicious = 0usize;
        if let Some(lsa) = lsdb.get(origin) {
            for link in lsa.links.iter().take(self.cfg.links_per_node) {
                let est = estimate(origin, link.neighbor);
                if !est.is_finite() || est <= 0.0 {
                    continue;
                }
                checked += 1;
                let declared = link.cost as f64;
                if (declared - est).abs() / est > self.cfg.link_tolerance {
                    suspicious += 1;
                }
            }
        }
        let flagged = checked > 0 && (suspicious as f64) >= self.cfg.flag_fraction * checked as f64;
        AuditVerdict {
            origin,
            links_checked: checked,
            links_suspicious: suspicious,
            flagged,
        }
    }

    /// Convenience: audit every LSDB origin against a coordinate system's
    /// predictions (symmetric estimates, as pyxida provides).
    pub fn audit_all_with_coords(
        &self,
        lsdb: &Lsdb,
        coords: &CoordinateSystem,
    ) -> Vec<AuditVerdict> {
        lsdb.origin_ids()
            .map(|origin| {
                self.audit_origin(lsdb, origin, &mut |a: NodeId, b: NodeId| {
                    if a.index() < coords.len() && b.index() < coords.len() {
                        coords.coord(a.index()).distance(&coords.coord(b.index()))
                    } else {
                        f64::NAN
                    }
                })
            })
            .collect()
    }
}

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
    use crate::message::{LinkEntry, LinkStateAnnouncement};
    use egoist_netsim::DelayModel;
    use rand::SeedableRng;

    /// Build an LSDB where every node announces its 3 ring links with
    /// true costs, except the liars who inflate by `factor`.
    fn lsdb_with_liars(d: &egoist_graph::DistanceMatrix, liars: &[u32], factor: f32) -> Lsdb {
        let n = d.len();
        let mut db = Lsdb::new(1e9);
        for i in 0..n {
            let links = (1..=3usize)
                .map(|o| {
                    let j = (i + o) % n;
                    let mut cost = d.at(i, j) as f32;
                    if liars.contains(&(i as u32)) {
                        cost *= factor;
                    }
                    LinkEntry {
                        neighbor: NodeId::from_index(j),
                        cost,
                    }
                })
                .collect();
            db.apply(
                LinkStateAnnouncement {
                    origin: NodeId::from_index(i),
                    seq: 1,
                    links,
                },
                0.0,
            );
        }
        db
    }

    #[test]
    fn perfect_estimator_catches_inflators_exactly() {
        let d = DelayModel::planetlab_50(3).base().clone();
        let db = lsdb_with_liars(&d, &[7, 21], 2.0);
        let auditor = Auditor::new(AuditConfig::default());
        for origin in db.origins() {
            let v = auditor.audit_origin(&db, origin, &mut |a: NodeId, b: NodeId| d.get(a, b));
            assert_eq!(
                v.flagged,
                origin == NodeId(7) || origin == NodeId(21),
                "verdict for {origin}: {v:?}"
            );
        }
    }

    #[test]
    fn coordinate_estimates_catch_big_liars() {
        let model = DelayModel::planetlab_50(5);
        let d = model.base().clone();
        let mut coords = egoist_coord::CoordinateSystem::new(50, 5);
        coords.converge(&d, 60);
        // Liars inflate 4x: far beyond Vivaldi's embedding error.
        let db = lsdb_with_liars(&d, &[11], 4.0);
        let auditor = Auditor::new(AuditConfig {
            link_tolerance: 1.2,
            ..Default::default()
        });
        let verdicts = auditor.audit_all_with_coords(&db, &coords);
        let flagged: Vec<NodeId> = verdicts
            .iter()
            .filter(|v| v.flagged)
            .map(|v| v.origin)
            .collect();
        assert!(
            flagged.contains(&NodeId(11)),
            "the 4x liar must be flagged; flagged = {flagged:?}"
        );
        // False positives stay rare (coordinate error can cause a few).
        assert!(flagged.len() <= 5, "too many false positives: {flagged:?}");
    }

    #[test]
    fn audit_round_samples_bounded_subset() {
        let d = DelayModel::planetlab_50(7).base().clone();
        let db = lsdb_with_liars(&d, &[], 1.0);
        let auditor = Auditor::new(AuditConfig {
            nodes_per_round: 3,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let verdicts = auditor.audit_round(&db, |a: NodeId, b: NodeId| d.get(a, b), &mut rng);
        assert_eq!(verdicts.len(), 3);
        assert!(verdicts.iter().all(|v| !v.flagged));
    }

    #[test]
    fn deflation_is_flagged_too() {
        let d = DelayModel::planetlab_50(9).base().clone();
        let db = lsdb_with_liars(&d, &[0], 0.3);
        let auditor = Auditor::new(AuditConfig::default());
        let v = auditor.audit_origin(&db, NodeId(0), &mut |a: NodeId, b: NodeId| d.get(a, b));
        assert!(v.flagged, "0.3x deflation must be flagged: {v:?}");
    }

    #[test]
    fn unknown_estimates_are_skipped() {
        let d = DelayModel::planetlab_50(11).base().clone();
        let db = lsdb_with_liars(&d, &[4], 2.0);
        let auditor = Auditor::new(AuditConfig::default());
        let v = auditor.audit_origin(&db, NodeId(4), &mut |_, _| f64::NAN);
        assert_eq!(v.links_checked, 0);
        assert!(!v.flagged, "no evidence, no flag");
    }

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
