//! Deterministic adversarial fleet harness.
//!
//! Runs a whole overlay — bootstrap service, honest [`crate::node`]
//! agents, optional [`crate::adversary`] swarm — on one simulated
//! network under a [`FaultPlan`] schedule, inside the vendored
//! virtual-time runtime. Everything observable lands in a
//! [`RobustnessReport`] whose JSON encoding is byte-identical for the
//! same seed and config: the report is derived *only* from per-run
//! state (node views, `SimNet` counters), never from the global obs
//! registry, and every iteration that could leak map order is sorted.
//!
//! **Scheduling.** The honest nodes run on one [`Wheel`] stepped in
//! [`FleetConfig::wheel_step`] quanta over virtual time (see
//! [`crate::wheel`] for its order and the nodes' phases); the harness
//! samples reachability between steps. The wheel's total order over
//! ticks is the determinism argument: two same-seed runs execute the
//! identical sequence of (drain, tick) steps at the identical virtual
//! instants.
//!
//! This is the §4.4 churn/resilience experiment generalized: instead of
//! replaying a PlanetLab churn trace, the plan scripts partitions,
//! storms, loss/jitter bursts and Sybil/eclipse swarms, and the report
//! records how routing reachability degrades and reconverges.

use crate::adversary::{spawn_swarm, AdversaryConfig, AdversaryStats};
use crate::audit::ClaimRanker;
use crate::bootstrap::{BootstrapServer, Registry};
use crate::message::MessageClass;
use crate::node::{EgoistNode, NodeConfig, NodeView, Tallies};
use crate::overhead::OverheadCounters;
use crate::transport::{FaultStats, SimNet, SimTransport};
use crate::wheel::Wheel;
use egoist_core::policies::PolicyKind;
use egoist_graph::{DistanceMatrix, NodeId};
use egoist_netsim::{FaultConfig, FaultPlan};
use egoist_obs::json::{array, num, JsonObject, Layout::Spaced};
use parking_lot::RwLock;
use std::ops::Deref;
use std::sync::Arc;
use std::time::Duration;

/// Reachability fraction that counts as "reconverged" after a fault
/// window heals.
const RECOVERED_THRESHOLD: f64 = 0.95;

/// One fleet scenario.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Scenario name (lands in the report).
    pub scenario: String,
    /// Honest nodes (ids `0..n`).
    pub n: usize,
    /// Links per node.
    pub k: usize,
    /// Sybil identities (ids `n..n+sybils`).
    pub sybils: usize,
    pub seed: u64,
    /// Virtual run length.
    pub horizon: Duration,
    /// Reachability sampling period.
    pub sample_every: Duration,
    /// Always-on fault floor (plan windows boost it).
    pub fault: FaultConfig,
    pub plan: FaultPlan,
    /// Swarm script; `None` = no adversary.
    pub adversary: Option<AdversaryConfig>,
    /// Wiring policy every honest node runs.
    pub policy: PolicyKind,
    pub epoch: Duration,
    pub announce_interval: Duration,
    pub ping_interval: Duration,
    pub liveness_timeout: Duration,
    /// Timer-wheel quantum: inbound queues drain and due ticks fire on
    /// these boundaries. Smaller = finer RTT resolution, more steps.
    pub wheel_step: Duration,
    /// Virtual spacing between consecutive node spawns.
    pub spawn_spacing: Duration,
    /// Gossip fan-out per fresh LSA (`usize::MAX` = classic full flood).
    pub gossip_fanout: usize,
    /// Gossip TTL on originated LSAs.
    pub gossip_ttl: u8,
    /// Anti-entropy digest period.
    pub sync_interval: Duration,
    /// Unwired-candidate measurement pings per ping tick.
    pub ping_sample: usize,
    /// Announce suppression: seq-bump at most every this many announce
    /// ticks unless the wiring changed materially.
    pub announce_refresh: u32,
    /// LSDB record max age override (must exceed the effective announce
    /// refresh period or healthy origins expire between refreshes).
    pub lsdb_max_age: Option<Duration>,
    /// Second-hand claim ranking thresholds.
    pub claims: ClaimRanker,
    /// Publish routing-graph edge lists in node views (forged-link
    /// acceptance metric; O(edges) per publish, off unless needed).
    pub expose_route_edges: bool,
}

impl FleetConfig {
    /// Test-scale defaults: short timers, clean network, no plan.
    pub fn new(scenario: &str, n: usize, k: usize, seed: u64) -> Self {
        FleetConfig {
            scenario: scenario.to_string(),
            n,
            k,
            sybils: 0,
            seed,
            horizon: Duration::from_secs(300),
            sample_every: Duration::from_secs(10),
            fault: FaultConfig::default(),
            plan: FaultPlan::new(),
            adversary: None,
            policy: PolicyKind::BestResponse,
            epoch: Duration::from_secs(10),
            announce_interval: Duration::from_secs(3),
            ping_interval: Duration::from_secs(5),
            liveness_timeout: Duration::from_secs(12),
            wheel_step: Duration::from_millis(1),
            spawn_spacing: Duration::from_millis(100),
            gossip_fanout: usize::MAX,
            gossip_ttl: 8,
            sync_interval: Duration::from_secs(15),
            ping_sample: usize::MAX,
            announce_refresh: 1,
            lsdb_max_age: None,
            claims: ClaimRanker::default(),
            expose_route_edges: false,
        }
    }

    fn total_ids(&self) -> usize {
        self.n + self.sybils
    }

    fn node_config(&self, i: usize, boot: NodeId) -> NodeConfig {
        let mut nc = NodeConfig::new(NodeId::from_index(i), self.total_ids(), self.k);
        nc.policy = self.policy;
        nc.epoch = self.epoch;
        nc.announce_interval = self.announce_interval;
        nc.ping_interval = self.ping_interval;
        nc.liveness_timeout = self.liveness_timeout;
        nc.bootstrap = Some(boot);
        nc.seed = self.seed.wrapping_mul(1031).wrapping_add(i as u64);
        nc.gossip_fanout = self.gossip_fanout;
        nc.gossip_ttl = self.gossip_ttl;
        nc.sync_interval = self.sync_interval;
        nc.ping_sample = self.ping_sample;
        nc.announce_refresh = self.announce_refresh;
        nc.lsdb_max_age = self.lsdb_max_age;
        nc.claims = self.claims;
        nc.expose_route_edges = self.expose_route_edges;
        nc
    }
}

/// The acceptance scenario: 30% frame loss throughout, a churn storm
/// flapping a third of the fleet, then a two-way partition that heals.
/// The fleet must reconverge to ≥95% route reachability before the
/// horizon.
pub fn storm_partition_profile(quick: bool) -> FleetConfig {
    let (n, horizon) = if quick { (10, 360) } else { (18, 480) };
    let mut cfg = FleetConfig::new("storm_partition", n, 3, 808);
    cfg.horizon = Duration::from_secs(horizon);
    cfg.fault = FaultConfig {
        drop_chance: 0.3,
        ..FaultConfig::default()
    };
    let storm: Vec<NodeId> = (0..n / 3).map(NodeId::from_index).collect();
    let minority: Vec<NodeId> = (n - n / 4..n).map(NodeId::from_index).collect();
    let h = horizon as f64;
    cfg.plan = FaultPlan::new()
        .churn_storm(0.25 * h, 0.5 * h, storm, 30.0, 0.4)
        .partition(0.55 * h, 0.7 * h, vec![vec![], minority]);
    cfg
}

/// The adversarial scenario: a Sybil swarm on one endpoint budget runs
/// an eclipse lure against every honest node. Peer scoring must leave
/// no attacker identity in any honest active view by the horizon.
pub fn sybil_eclipse_profile(quick: bool) -> FleetConfig {
    let (n, sybils, horizon) = if quick { (10, 5, 240) } else { (14, 7, 300) };
    let mut cfg = FleetConfig::new("sybil_eclipse", n, 3, 4242);
    cfg.sybils = sybils;
    cfg.horizon = Duration::from_secs(horizon);
    cfg.fault = FaultConfig {
        drop_chance: 0.05,
        ..FaultConfig::default()
    };
    cfg.adversary = Some(AdversaryConfig::swarm(
        n,
        sybils,
        (0..n).map(NodeId::from_index).collect(),
    ));
    cfg
}

/// The scale scenario: ≥1000 live protocol nodes under a churn storm
/// and a healed partition. Gossip is fan-out limited (the full-flood
/// extrapolation would be ~n² frames per announce wave) and coverage
/// beyond the TTL horizon is anti-entropy's job; the fleet must end at
/// ≥95% route reachability anyway.
pub fn chaos_n1000_profile(quick: bool) -> FleetConfig {
    let (horizon, spacing_ms) = if quick { (260, 20) } else { (400, 50) };
    let n = 1000;
    let mut cfg = FleetConfig::new("chaos_n1000", n, 4, 1000);
    cfg.horizon = Duration::from_secs(horizon);
    cfg.sample_every = Duration::from_secs(20);
    cfg.fault = FaultConfig {
        drop_chance: 0.1,
        ..FaultConfig::default()
    };
    // k-Random keeps the union routing graph strongly connected with
    // high probability at k=4 (a k-out digraph). It stays the policy
    // here because the committed chaos verdicts and both judge fleets
    // (`chaos_n1000` and the benchmark's `fleet_chaos_n600`) are built
    // on it; a best-response fleet at n = 1000 is its own scenario
    // (ROADMAP item 13).
    cfg.policy = PolicyKind::Random;
    cfg.epoch = Duration::from_secs(30);
    cfg.announce_interval = Duration::from_secs(10);
    cfg.ping_interval = Duration::from_secs(10);
    cfg.liveness_timeout = Duration::from_secs(25);
    cfg.wheel_step = Duration::from_millis(10);
    cfg.spawn_spacing = Duration::from_millis(spacing_ms);
    cfg.gossip_fanout = 3;
    cfg.gossip_ttl = 2;
    cfg.sync_interval = Duration::from_secs(15);
    cfg.ping_sample = 8;
    cfg.announce_refresh = 3;
    // Refresh period is announce_refresh × announce_interval = 30 s;
    // records must survive a 30 s partition plus one missed refresh.
    cfg.lsdb_max_age = Some(Duration::from_secs(105));
    // The 10 ms wheel quantum inflates RTT estimates by up to ~2 steps
    // (~20 ms of noise per estimate); the triangle check cannot separate
    // that from forgery here, so give it a margin that keeps it silent
    // (the lure scenario runs at a 1 ms quantum and a tight margin).
    cfg.claims = ClaimRanker {
        margin: 30.0,
        ..ClaimRanker::default()
    };
    let h = horizon as f64;
    let storm: Vec<NodeId> = (0..n / 4).map(NodeId::from_index).collect();
    let minority: Vec<NodeId> = (n - n / 8..n).map(NodeId::from_index).collect();
    cfg.plan = FaultPlan::new()
        .churn_storm(0.25 * h, 0.48 * h, storm, 30.0, 0.3)
        .partition(0.54 * h, 0.66 * h, vec![vec![], minority]);
    cfg
}

/// The defense scenario for the §3.4 hole: a swarm that forges only
/// *third-party* links (per-victim LSA variants omitting the link to
/// the recipient), so the first-hand cost audit never fires and only
/// second-hand claim ranking can catch it. Acceptance: zero forged
/// links in any honest routing graph at the end, and every lure origin
/// banned by ≥90% of honest nodes.
pub fn third_party_lure_profile(quick: bool) -> FleetConfig {
    let (n, sybils, horizon) = if quick { (10, 3, 240) } else { (14, 4, 300) };
    let mut cfg = FleetConfig::new("third_party_lure", n, 3, 3333);
    cfg.sybils = sybils;
    cfg.horizon = Duration::from_secs(horizon);
    cfg.fault = FaultConfig {
        drop_chance: 0.05,
        ..FaultConfig::default()
    };
    cfg.adversary = Some(AdversaryConfig::third_party_swarm(
        n,
        sybils,
        (0..n).map(NodeId::from_index).collect(),
    ));
    // The fleet substrate is an exact metric (planar embedding + base),
    // so the asymmetry allowance can be zero: any forged near-zero
    // third-party cost between two measured nodes is a clean triangle
    // violation. The margin only absorbs wheel quantization (~2 ms).
    cfg.claims = ClaimRanker {
        margin: 2.5,
        tiv: 0.0,
    };
    cfg.expose_route_edges = true;
    cfg
}

/// Recovery record for one scheduled fault window.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowRecovery {
    pub kind: String,
    pub from: f64,
    pub to: f64,
    /// First sample time ≥ heal with reachability over the threshold.
    pub reconverged_at: Option<f64>,
    /// `reconverged_at - to`.
    pub recovery_secs: Option<f64>,
}

/// Misbehavior-score histogram with data-driven bucket edges.
///
/// The fixed `0,1,2,3,≥4` buckets went degenerate the moment scores
/// were read after decay (everything collapsed into bucket 0), so the
/// histogram now runs over *lifetime* points and rescales its edges to
/// the observed range: bucket 0 is exactly zero, and the remaining four
/// buckets split `1..=max` into equal-width ranges whose lower bounds
/// are returned alongside the counts. With `max ≤ 4` the edges are the
/// classic `[1, 2, 3, 4]`. Two passes over `scores` (the max, then the
/// buckets), so a caller streams the points from where they live.
pub fn score_histogram(scores: impl Iterator<Item = u64> + Clone) -> ([u64; 5], [u64; 4]) {
    let max = scores.clone().max().unwrap_or(0);
    let width = max.div_ceil(4).max(1);
    let edges = [1, 1 + width, 1 + 2 * width, 1 + 3 * width];
    let mut hist = [0u64; 5];
    for s in scores {
        let bucket = if s == 0 {
            0
        } else {
            1 + (((s - 1) / width).min(3) as usize)
        };
        hist[bucket] += 1;
    }
    (hist, edges)
}

/// [`score_histogram`] over the misbehavior ledgers of `views`: the
/// points each lists, plus a zero for every other id it spans.
pub(crate) fn ledger_histogram(views: &[impl Deref<Target = NodeView>]) -> ([u64; 5], [u64; 4]) {
    let listed = views.iter().flat_map(|v| v.misbehavior_total.iter());
    let (mut hist, edges) = score_histogram(listed.map(|&(_, points)| points));
    let zeros = views
        .iter()
        .map(|v| v.ledger_ids - v.misbehavior_total.len());
    hist[0] += zeros.sum::<usize>() as u64;
    (hist, edges)
}

/// Delivered reachability: the route walk's shares of the ordered live
/// honest pairs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Delivery {
    /// Delivered share at the last sample.
    pub final_delivered: f64,
    /// Worst delivered share over the samples.
    pub min_delivered: f64,
    /// Looped share at the last sample.
    pub final_looped: f64,
}

/// Everything a chaos run measures. Same seed + config ⇒ identical
/// report, byte-for-byte through [`RobustnessReport::to_json`].
#[derive(Clone, Debug, PartialEq)]
pub struct RobustnessReport {
    pub schema: String,
    pub scenario: String,
    pub seed: u64,
    pub n: usize,
    pub sybils: usize,
    pub k: usize,
    pub horizon_secs: f64,
    /// Reachable fraction of ordered honest pairs at the last sample.
    pub final_reachability: f64,
    /// Worst sample (shows the fault actually bit).
    pub min_reachability: f64,
    /// What following the next hops delivers ([`walk_routes`]), for a
    /// k-Random fleet; `None` otherwise, so best-response reports keep
    /// the bytes their goldens pin.
    pub delivery: Option<Delivery>,
    /// `(virtual_secs, reachability)` samples.
    pub timeline: Vec<(f64, f64)>,
    pub windows: Vec<WindowRecovery>,
    pub fault: FaultStats,
    /// Every honest node's tallies, summed.
    pub tallies: Tallies,
    /// Lifetime misbehavior-point histogram over every honest ledger
    /// entry at the end (buckets per [`score_histogram`]).
    pub score_hist: [u64; 5],
    /// Lower bounds of `score_hist` buckets 1..=4.
    pub score_hist_edges: [u64; 4],
    /// Sybil identities present in honest active views at the end
    /// (the eclipse defense requires 0).
    pub attacker_in_active_views: u64,
    /// `(honest, sybil)` ban pairs.
    pub attacker_ban_pairs: u64,
    pub adversary: Option<AdversaryStats>,
    /// Per message class: total honest frames/bytes sent.
    pub overhead: Vec<(String, u64, u64)>,
    /// The scenario's gossip fan-out (`None` = unbounded, classic full
    /// flooding) and TTL, echoed.
    pub gossip_fanout: Option<u64>,
    pub gossip_ttl: u8,
    /// Min over sybil identities of the fraction of honest nodes that
    /// banned it (`None` when the scenario has no sybils).
    pub lure_ban_frac: Option<f64>,
    /// Sybil-originated edges inside honest routing graphs at the end
    /// (only populated when `expose_route_edges`; the defense needs 0).
    pub forged_links_in_routes: u64,
}

impl RobustnessReport {
    /// Deterministic JSON: fixed field order, `{:?}` float formatting
    /// (shortest round-trip), no map iteration anywhere. One top-level
    /// field per line, nested values inline ([`Spaced`]).
    pub fn to_json(&self) -> String {
        let obj = || JsonObject::new(Spaced);
        let ints = |v: &[u64]| array(Spaced, v.iter().map(u64::to_string));
        // The writer spells a non-finite float `null`, which is how an
        // absent measurement is reported.
        let opt = |v: Option<f64>| v.unwrap_or(f64::NAN);
        let timeline = self
            .timeline
            .iter()
            .map(|&(t, r)| array(Spaced, [num(t), num(r)]));
        let windows = self.windows.iter().map(|w| {
            obj()
                .str("kind", &w.kind)
                .f64("from", w.from)
                .f64("to", w.to)
                .f64("reconverged_at", opt(w.reconverged_at))
                .f64("recovery_secs", opt(w.recovery_secs))
                .finish()
        });
        let fault = obj()
            .u64("passed", self.fault.passed)
            .u64("dropped", self.fault.dropped)
            .u64("corrupted", self.fault.corrupted)
            .u64("rate_limited", self.fault.rate_limited)
            .u64("cut", self.fault.cut)
            .u64("duplicated", self.fault.duplicated)
            .u64("reordered", self.fault.reordered)
            .u64("jittered", self.fault.jittered);
        let t = &self.tallies;
        let peers = obj()
            .u64("join_retries", t.join_retries)
            .u64("demotions", t.demotions)
            .u64("evictions", t.evictions)
            .u64("promotions", t.promotions)
            .raw("score_hist", ints(&self.score_hist))
            .raw("score_hist_edges", ints(&self.score_hist_edges));
        let fanout = self.gossip_fanout.map(|f| f.to_string());
        // Full-flood extrapolation: every announce reaching every other
        // node directly.
        let link_state = MessageClass::LinkState.label();
        let link_state_frames = self
            .overhead
            .iter()
            .find(|(class, ..)| class == link_state)
            .map_or(0, |&(_, frames, _)| frames);
        let full_flood_frames = t.announces * self.n.saturating_sub(1) as u64;
        let flood_ratio =
            (full_flood_frames > 0).then(|| link_state_frames as f64 / full_flood_frames as f64);
        let gossip = obj()
            .raw("fanout", fanout.as_deref().unwrap_or("null"))
            .u64("ttl", self.gossip_ttl as u64)
            .u64("announces", t.announces)
            .u64("unmeasured_links", t.unmeasured_links)
            .u64("forwards", t.gossip_forwards)
            .u64("link_state_frames", link_state_frames)
            .u64("full_flood_frames", full_flood_frames)
            .f64("flood_ratio", opt(flood_ratio));
        let anti_entropy = obj()
            .u64("digests", t.ae_digests)
            .u64("pulls", t.ae_pulls)
            .u64("pushed", t.ae_pushed)
            .u64("refreshed", t.ae_refreshed)
            .u64("refresh_pulls", t.ae_refresh_pulls);
        let quarantine = obj()
            .u64("claims_corroborated", t.claims_corroborated)
            .u64("claims_contradicted", t.claims_contradicted)
            .u64("links_quarantined", t.links_quarantined)
            .f64("lure_ban_frac", opt(self.lure_ban_frac))
            .u64("forged_links_in_routes", self.forged_links_in_routes);
        let adversary = self.adversary.as_ref().map(|a| {
            obj()
                .u64("in_active_views", self.attacker_in_active_views)
                .u64("ban_pairs", self.attacker_ban_pairs)
                .u64("sent", a.sent)
                .u64("throttled", a.throttled)
                .u64("pongs", a.pongs)
                .finish()
        });
        let overhead = self
            .overhead
            .iter()
            .fold(obj(), |o, (class, frames, bytes)| {
                o.raw(
                    class,
                    obj().u64("frames", *frames).u64("bytes", *bytes).finish(),
                )
            });
        let head = obj()
            .str("schema", "egoist-robustness/v1")
            .str("scenario", &self.scenario)
            .u64("seed", self.seed)
            .u64("n", self.n as u64)
            .u64("sybils", self.sybils as u64)
            .u64("k", self.k as u64)
            .f64("horizon_secs", self.horizon_secs)
            .f64("final_reachability", self.final_reachability)
            .f64("min_reachability", self.min_reachability);
        let head = match &self.delivery {
            Some(d) => head
                .f64("final_delivered", d.final_delivered)
                .f64("min_delivered", d.min_delivered)
                .f64("final_looped", d.final_looped),
            None => head,
        };
        head.raw("timeline", array(Spaced, timeline))
            .raw("windows", array(Spaced, windows))
            .raw("fault", fault.finish())
            .raw("peers", peers.finish())
            .raw("gossip", gossip.finish())
            .raw("anti_entropy", anti_entropy.finish())
            .raw("quarantine", quarantine.finish())
            .raw("adversary", adversary.as_deref().unwrap_or("null"))
            .raw("overhead", overhead.finish())
            .u64("decode_errors", t.decode_errors)
            .document()
    }
}

/// Obs handles for fleet-level reconvergence tracking.
struct FleetObs {
    reachability: egoist_obs::Histogram,
    delivered: egoist_obs::Histogram,
    reconvergence_secs: egoist_obs::Histogram,
    routes_reachable: egoist_obs::Counter,
    routes_missing: egoist_obs::Counter,
    routes_delivered: egoist_obs::Counter,
    routes_looped: egoist_obs::Counter,
    routes_black_holed: egoist_obs::Counter,
}

fn fleet_obs() -> &'static FleetObs {
    static OBS: std::sync::OnceLock<FleetObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let r = egoist_obs::registry();
        FleetObs {
            reachability: r.histogram("fleet.reachability"),
            delivered: r.histogram("fleet.delivered"),
            reconvergence_secs: r.histogram("fleet.reconvergence_secs"),
            routes_reachable: r.counter("fleet.routes.reachable"),
            routes_missing: r.counter("fleet.routes.missing"),
            routes_delivered: r.counter("fleet.routes.delivered"),
            routes_looped: r.counter("fleet.routes.looped"),
            routes_black_holed: r.counter("fleet.routes.black_holed"),
        }
    })
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic *metric* per-pair delay: nodes get seeded positions in
/// a plane and `d(i,j) = 4 + |pᵢ − pⱼ|` ms, landing in `[4, ~32]`. The
/// planar embedding matters: second-hand claim ranking compares link
/// claims against the triangle inequality, so the substrate must
/// satisfy it exactly or honest claims read as forgeries.
fn delay_matrix(total: usize, seed: u64) -> DistanceMatrix {
    let coord = |i: usize, axis: u64| {
        let z = mix64(
            seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ axis.wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        // 53-bit mantissa fraction in [0, 1), scaled so the square's
        // diagonal is ~28 ms. The spread matters for claim ranking:
        // triangle-bound gaps must clear the ranker's margin from
        // *every* vantage point, including nodes near the centroid.
        (z >> 11) as f64 / (1u64 << 53) as f64 * 20.0
    };
    let pos: Vec<(f64, f64)> = (0..total).map(|i| (coord(i, 1), coord(i, 2))).collect();
    DistanceMatrix::from_fn(total, |i, j| {
        if i == j {
            0.0
        } else {
            let (dx, dy) = (pos[i].0 - pos[j].0, pos[i].1 - pos[j].1);
            4.0 + (dx * dx + dy * dy).sqrt()
        }
    })
}

/// One sample of the ordered honest pairs whose both ends are not
/// churned off by the plan at `now`, read from each spawned node's
/// published next hops under its view's read lock: how many have a
/// source that holds a next hop, and where following the next hops ends
/// ([`walk_routes`]).
fn sample_routes(views: &[Option<Arc<RwLock<NodeView>>>], plan: &FaultPlan, now: f64) -> RouteWalk {
    let on: Vec<bool> = (0..views.len())
        .map(|i| !plan.node_off(now, NodeId::from_index(i)))
        .collect();
    let guards: Vec<_> = views.iter().map(|v| v.as_ref().map(|v| v.read())).collect();
    let next_hops: Vec<Option<&[Option<NodeId>]>> = guards
        .iter()
        .map(|g| g.as_ref().map(|v| &v.next_hops[..]))
        .collect();
    let walk = walk_routes(&next_hops, &on);
    let obs = fleet_obs();
    obs.routes_reachable.add(walk.reachable);
    obs.routes_missing.add(walk.pairs - walk.reachable);
    obs.routes_delivered.add(walk.delivered);
    obs.routes_looped.add(walk.looped);
    obs.routes_black_holed.add(walk.black_holed);
    walk
}

/// Where following the published next hops from each source ends, over
/// the ordered honest pairs whose both ends are on at one sample.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteWalk {
    pub pairs: u64,
    /// The source holds a next hop for the destination.
    pub reachable: u64,
    /// The walk reached the destination.
    pub delivered: u64,
    /// The walk came back to a node it had passed.
    pub looped: u64,
    /// The walk reached a node with no next hop for the destination, or
    /// a hop to a node that is off or is not an honest node.
    pub black_holed: u64,
}

impl RouteWalk {
    /// Reachable share of the pairs (1 with no pairs).
    pub fn reachable_share(&self) -> f64 {
        share(self.reachable, self.pairs, 1.0)
    }

    /// Delivered share of the pairs (1 with no pairs).
    pub fn delivered_share(&self) -> f64 {
        share(self.delivered, self.pairs, 1.0)
    }

    /// Looped share of the pairs (0 with no pairs).
    pub fn looped_share(&self) -> f64 {
        share(self.looped, self.pairs, 0.0)
    }
}

fn share(part: u64, pairs: u64, empty: f64) -> f64 {
    if pairs == 0 {
        empty
    } else {
        part as f64 / pairs as f64
    }
}

/// Walk every ordered pair of on nodes along the next hops of `next_hops`
/// (`None` for a node that has not spawned), one destination at a time.
/// Each node's fate for the destination is settled once and shared by
/// every walk that reaches it, so a sample costs O(n²).
pub fn walk_routes(next_hops: &[Option<&[Option<NodeId>]>], on: &[bool]) -> RouteWalk {
    #[derive(Clone, Copy, PartialEq)]
    enum Fate {
        Unknown,
        /// On the walk being followed.
        Visiting,
        Delivered,
        Looped,
        BlackHoled,
    }
    let n = next_hops.len();
    let hop =
        |at: usize, dst: usize| next_hops[at].and_then(|hops| hops.get(dst).copied().flatten());
    let mut walk = RouteWalk::default();
    let mut fate = vec![Fate::Unknown; n];
    let mut path = Vec::new();
    for dst in (0..n).filter(|&d| on[d]) {
        fate.fill(Fate::Unknown);
        fate[dst] = Fate::Delivered;
        for src in (0..n).filter(|&s| on[s] && s != dst) {
            walk.pairs += 1;
            walk.reachable += u64::from(hop(src, dst).is_some());
            let mut at = src;
            let end = loop {
                match fate[at] {
                    Fate::Unknown => {}
                    Fate::Visiting => break Fate::Looped,
                    settled => break settled,
                }
                fate[at] = Fate::Visiting;
                path.push(at);
                match hop(at, dst).map(NodeId::index) {
                    Some(next) if next < n && on[next] => at = next,
                    _ => break Fate::BlackHoled,
                }
            };
            for at in path.drain(..) {
                fate[at] = end;
            }
            match end {
                Fate::Delivered => walk.delivered += 1,
                Fate::Looped => walk.looped += 1,
                _ => walk.black_holed += 1,
            }
        }
    }
    walk
}

/// Run one scenario to completion inside the paused-clock runtime and
/// return its report.
pub fn run_fleet(cfg: &FleetConfig) -> RobustnessReport {
    tokio::runtime::block_on_paused(run_fleet_inner(cfg.clone())).0
}

/// [`run_fleet`], also handing back each node's view as published at
/// shutdown (`None` for a node that never spawned): the final wiring
/// and next hops.
pub fn run_fleet_with_views(cfg: &FleetConfig) -> (RobustnessReport, Vec<Option<NodeView>>) {
    let (report, views) = tokio::runtime::block_on_paused(run_fleet_inner(cfg.clone()));
    let views = views
        .iter()
        .map(|v| v.as_ref().map(|v| v.read().clone()))
        .collect();
    (report, views)
}

/// [`run_fleet`]'s body. It also hands back each spawned node's view,
/// as published at shutdown.
async fn run_fleet_inner(
    cfg: FleetConfig,
) -> (RobustnessReport, Vec<Option<Arc<RwLock<NodeView>>>>) {
    let total = cfg.total_ids();
    let boot = NodeId::from_index(total);
    let delays = delay_matrix(total + 1, cfg.seed);
    let net = SimNet::with_plan(delays, cfg.fault, Some(cfg.plan.clone()), cfg.seed);
    tokio::spawn(BootstrapServer::new(net.endpoint(boot), Registry::default()).run());
    let adversary_stats = cfg
        .adversary
        .as_ref()
        .map(|a| spawn_swarm(a, |id| net.endpoint(id)));

    let horizon_us = cfg.horizon.as_micros() as u64;
    let sample_us = cfg.sample_every.as_micros() as u64;
    let samples = (cfg.horizon.as_secs_f64() / cfg.sample_every.as_secs_f64()).floor() as usize;

    let mut wheel = Wheel::new(cfg.wheel_step, cfg.n, cfg.spawn_spacing, |i| {
        let nc = cfg.node_config(i, boot);
        let endpoint = net.endpoint(nc.id);
        EgoistNode::new(nc, endpoint)
    });
    let views = |wheel: &Wheel<SimTransport>| -> Vec<Option<Arc<RwLock<NodeView>>>> {
        let nodes = wheel.nodes().iter();
        nodes
            .map(|n| n.as_ref().map(EgoistNode::view_handle))
            .collect()
    };

    let mut timeline = Vec::with_capacity(samples);
    // The last sample's route walk, and the worst delivered share.
    let mut last_walk = RouteWalk::default();
    let mut min_delivered = f64::INFINITY;
    let mut next_sample_us = sample_us;
    let mut now_us = 0u64;
    while now_us < horizon_us {
        wheel.step().await;
        now_us = wheel.now().as_micros() as u64;
        if timeline.len() < samples && now_us >= next_sample_us {
            let nominal = (timeline.len() + 1) as f64 * cfg.sample_every.as_secs_f64();
            let walk = sample_routes(&views(&wheel), &cfg.plan, nominal);
            let r = walk.reachable_share();
            fleet_obs().reachability.observe(r);
            fleet_obs().delivered.observe(walk.delivered_share());
            timeline.push((nominal, r));
            min_delivered = min_delivered.min(walk.delivered_share());
            last_walk = walk;
            next_sample_us += sample_us;
        }
    }

    // Final state, before any Leave floods from shutdown: every tally is
    // folded here, reading the views in place under read guards that are
    // released before the nodes shut down (shutdown re-publishes them).
    let sybil_ids: Vec<NodeId> = (cfg.n..total).map(NodeId::from_index).collect();
    let mut attacker_in_active = 0u64;
    let mut tallies = Tallies::default();
    let mut sent = OverheadCounters::default();
    let mut forged_links_in_routes = 0u64;
    let mut sybil_bans = vec![0u64; sybil_ids.len()];
    let view_handles = views(&wheel);
    let (score_hist, score_hist_edges) = {
        let views: Vec<_> = view_handles.iter().flatten().map(|h| h.read()).collect();
        for v in &views {
            tallies += v.tallies;
            sent += v.overhead;
            attacker_in_active += v.wiring.iter().filter(|w| sybil_ids.contains(w)).count() as u64;
            // `banned` lists each id once, so these sum to the ban pairs.
            for (bans, s) in sybil_bans.iter_mut().zip(&sybil_ids) {
                *bans += u64::from(v.banned.contains(s));
            }
            forged_links_in_routes += v
                .route_edges
                .iter()
                .filter(|(from, _)| sybil_ids.contains(from))
                .count() as u64;
        }
        ledger_histogram(&views)
    };
    let fault = net.fault_stats();
    wheel.shutdown().await;
    // Swarm tasks die with the runtime; their stats cell outlives them.

    // Per-window reconvergence from the sampled timeline.
    let windows: Vec<WindowRecovery> = cfg
        .plan
        .windows
        .iter()
        .map(|w| {
            let reconverged_at = timeline
                .iter()
                .find(|&&(t, r)| t >= w.to && r >= RECOVERED_THRESHOLD)
                .map(|&(t, _)| t);
            let recovery_secs = reconverged_at.map(|t| t - w.to);
            if let Some(secs) = recovery_secs {
                fleet_obs().reconvergence_secs.observe(secs);
            }
            WindowRecovery {
                kind: w.fault.label().to_string(),
                from: w.from,
                to: w.to,
                reconverged_at,
                recovery_secs,
            }
        })
        .collect();

    let ban_pairs: u64 = sybil_bans.iter().sum();
    let lure_ban_frac = (!sybil_ids.is_empty()).then(|| {
        sybil_bans
            .iter()
            .map(|&bans| bans as f64 / cfg.n as f64)
            .fold(f64::INFINITY, f64::min)
    });
    let overhead: Vec<(String, u64, u64)> = MessageClass::ALL
        .iter()
        .map(|&c| (c.label().to_string(), sent.frames(c), sent.bytes(c)))
        .collect();

    let final_reachability = timeline.last().map(|&(_, r)| r).unwrap_or(1.0);
    let min_reachability = timeline
        .iter()
        .map(|&(_, r)| r)
        .fold(f64::INFINITY, f64::min)
        .min(final_reachability);
    let report = RobustnessReport {
        schema: "egoist-robustness/v1".to_string(),
        scenario: cfg.scenario.clone(),
        seed: cfg.seed,
        n: cfg.n,
        sybils: cfg.sybils,
        k: cfg.k,
        horizon_secs: cfg.horizon.as_secs_f64(),
        final_reachability,
        min_reachability,
        delivery: (cfg.policy == PolicyKind::Random).then(|| Delivery {
            final_delivered: last_walk.delivered_share(),
            min_delivered: min_delivered.min(last_walk.delivered_share()),
            final_looped: last_walk.looped_share(),
        }),
        timeline,
        windows,
        fault,
        tallies,
        score_hist,
        score_hist_edges,
        attacker_in_active_views: attacker_in_active,
        attacker_ban_pairs: ban_pairs,
        adversary: adversary_stats.map(|s| *s.lock()),
        overhead,
        gossip_fanout: if cfg.gossip_fanout == usize::MAX {
            None
        } else {
            Some(cfg.gossip_fanout as u64)
        },
        gossip_ttl: cfg.gossip_ttl,
        lure_ban_frac,
        forged_links_in_routes,
    };
    (report, view_handles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_fleet_converges_and_reports() {
        // The caller-supplied name must survive serialization verbatim.
        let name = "a\"b\\c";
        let mut cfg = FleetConfig::new(name, 6, 2, 7);
        cfg.horizon = Duration::from_secs(120);
        let report = run_fleet(&cfg);
        assert_eq!(report.schema, "egoist-robustness/v1");
        assert_eq!(report.timeline.len(), 12);
        assert!(
            report.final_reachability >= 0.99,
            "clean fleet should fully converge: {}",
            report.final_reachability
        );
        assert_eq!(report.attacker_in_active_views, 0);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"egoist-robustness/v1\""));
        assert!(json.contains("\"gossip\": {"));
        assert!(json.contains("\"anti_entropy\": {"));
        assert!(json.contains("\"quarantine\": {"));
        assert!(json.ends_with("}\n"));
        let doc = egoist_obs::json::parse(&json).expect("report is valid JSON");
        assert_eq!(doc.get("scenario").and_then(|v| v.as_str()), Some(name));
    }

    #[test]
    fn same_seed_fleet_reports_are_byte_identical() {
        let mut cfg = FleetConfig::new("repeat", 5, 2, 99);
        cfg.horizon = Duration::from_secs(90);
        cfg.fault = FaultConfig {
            drop_chance: 0.2,
            corrupt_chance: 0.02,
            ..FaultConfig::default()
        };
        cfg.plan = FaultPlan::new().partition(30.0, 50.0, vec![vec![], vec![NodeId(4)]]);
        let a = run_fleet(&cfg);
        let b = run_fleet(&cfg);
        assert_eq!(a.to_json(), b.to_json());
    }

    /// How far a loss-free static fleet's delay estimates sit from the
    /// substrate's true one-way delays, at the judge fleets' 10 ms wheel
    /// and at 1 ms: max and mean |`direct_est` − delay| over wired pairs
    /// and over the other measured (sampled) pairs, printed, not
    /// asserted. `cargo test --release -p egoist-proto
    /// estimate_error -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn estimate_error_against_the_substrate() {
        for step_ms in [10, 1] {
            let mut cfg = chaos_n1000_profile(true);
            cfg.n = 60;
            cfg.seed = 11;
            cfg.horizon = Duration::from_secs(200);
            cfg.fault = FaultConfig::default();
            cfg.plan = FaultPlan::new();
            cfg.wheel_step = Duration::from_millis(step_ms);
            let (_, views) = run_fleet_with_views(&cfg);
            let delays = delay_matrix(cfg.total_ids() + 1, cfg.seed);
            // (max, sum, pairs), wired then sampled.
            let mut err = [(0.0f64, 0.0f64, 0u64); 2];
            for (i, view) in views.iter().enumerate() {
                let v = view.as_ref().expect("every node spawned");
                for (j, &est) in v.direct_est.iter().enumerate() {
                    if j == i || est.is_nan() {
                        continue;
                    }
                    let e = (est - delays.at(i, j)).abs();
                    let sampled = !v.wiring.contains(&NodeId::from_index(j));
                    let (max, sum, pairs) = &mut err[usize::from(sampled)];
                    *max = max.max(e);
                    *sum += e;
                    *pairs += 1;
                }
            }
            for ((max, sum, pairs), class) in err.into_iter().zip(["wired", "sampled"]) {
                println!(
                    "wheel {step_ms:>2} ms {class:>7}: {pairs:>4} pairs, |est - delay| max {max:.2} ms mean {:.2} ms",
                    sum / pairs.max(1) as f64
                );
            }
        }
    }

    /// The one-byte cost word the anti-entropy and gossip bytes rest on
    /// (pushes and, since codec v6, `LinkState` frames write a link's
    /// cost as the same cost word), in the judge fleets' regime:
    /// `chaos_n1000_profile`'s k-Random wiring, fan-out, timers and
    /// 10 ms wheel at n = 24, loss-free, as
    /// `a_loss_free_random_fleet_announces_only_measured_links` runs it.
    /// An estimate is half of a round trip in whole wheel steps, so every
    /// cost any node holds at the horizon is a half step below 32 ms.
    /// The fleet is set up as [`run_fleet_inner`] sets it up, and read
    /// before it shuts down.
    #[test]
    fn every_held_link_cost_takes_a_one_byte_cost_word() {
        let mut cfg = chaos_n1000_profile(true);
        cfg.n = 24;
        cfg.seed = 11;
        cfg.horizon = Duration::from_secs(120);
        cfg.fault = FaultConfig::default();
        cfg.plan = FaultPlan::new();
        let boot = NodeId::from_index(cfg.total_ids());
        let delays = delay_matrix(cfg.total_ids() + 1, cfg.seed);
        let net = SimNet::with_plan(delays, cfg.fault, Some(cfg.plan.clone()), cfg.seed);
        let held = tokio::runtime::block_on_paused(async {
            tokio::spawn(BootstrapServer::new(net.endpoint(boot), Registry::default()).run());
            let mut wheel = Wheel::new(cfg.wheel_step, cfg.n, cfg.spawn_spacing, |i| {
                let nc = cfg.node_config(i, boot);
                let endpoint = net.endpoint(nc.id);
                EgoistNode::new(nc, endpoint)
            });
            while wheel.now() < cfg.horizon {
                wheel.step().await;
            }
            let nodes = wheel.nodes().iter().flatten();
            let held: Vec<(usize, Vec<f32>)> = nodes
                .map(|n| {
                    let lsas = n.lsdb().all();
                    let costs = lsas.flat_map(|l| l.links.iter().map(|l| l.cost));
                    (n.lsdb().len(), costs.collect())
                })
                .collect();
            wheel.shutdown().await;
            held
        });
        assert_eq!(held.len(), cfg.n);
        for (records, costs) in held {
            assert_eq!(records, cfg.n, "an LSDB short of the fleet");
            for c in costs {
                assert!(
                    crate::codec::cost_word(c) < 0x80,
                    "a held cost of {c} ms takes more than the one-byte cost word. \
                     Exact RTT estimates (ROADMAP item 15) are arbitrary floats: they \
                     take the 5-byte escape and give the anti-entropy and gossip \
                     (LinkState) bytes back, unless costs are announced at a stated \
                     resolution"
                );
            }
        }
    }

    /// Each pair's walk against a hop-by-hop walk that gives up after n
    /// hops, on a hand-built table: a chain, a two-node loop feeding a
    /// third node, a missing hop, a hop to an off node, a hop to an id
    /// past the fleet and a node that never spawned.
    #[test]
    fn route_walk_settles_every_pair_as_a_hop_by_hop_walk_does() {
        let n = 7;
        let id = |i: usize| Some(NodeId::from_index(i));
        // hops[u][d]: node u's next hop toward d.
        // hops[u][d]: node u's next hop toward d.
        let row = |hop: &dyn Fn(usize) -> Option<NodeId>| (0..n).map(hop).collect::<Vec<_>>();
        let hops = [
            row(&|_| id(1)), // 0 → 1 for everything
            row(&|d| if d == 1 { None } else { id(2) }),
            row(&|d| match d {
                0 | 1 => id(3),
                4 => id(5), // 5 is off
                _ => id(d),
            }),
            row(&|d| match d {
                0 => id(0),
                1 => id(2), // 2 ↔ 3 toward 1
                _ => id(9), // past the fleet
            }),
            Vec::new(), // never spawned: no table at all
            row(&id),
            Vec::new(), // spawned before any route was published
        ];
        let tables: Vec<Option<&[Option<NodeId>]>> =
            (0..n).map(|u| (u != 4).then_some(&hops[u][..])).collect();
        let on = [true, true, true, true, true, false, true];
        let mut expect = RouteWalk::default();
        for dst in (0..n).filter(|&d| on[d]) {
            for src in (0..n).filter(|&s| on[s] && s != dst) {
                if tables[src].is_some_and(|t| t.get(dst).is_some_and(Option::is_some)) {
                    expect.reachable += 1;
                }
                let (mut at, mut hops_taken) = (src, 0);
                let fate = loop {
                    if at == dst {
                        break &mut expect.delivered;
                    }
                    if hops_taken > n {
                        break &mut expect.looped;
                    }
                    let next = tables[at].and_then(|t| t.get(dst).copied().flatten());
                    match next.map(NodeId::index) {
                        Some(v) if v < n && on[v] => at = v,
                        _ => break &mut expect.black_holed,
                    }
                    hops_taken += 1;
                };
                *fate += 1;
                expect.pairs += 1;
            }
        }
        let walk = walk_routes(&tables, &on);
        assert_eq!(walk, expect);
        assert!(walk.delivered > 0 && walk.looped > 0 && walk.black_holed > 0);
        assert!(walk.reachable > walk.delivered && walk.reachable < walk.pairs);
        assert_eq!(walk.pairs, 6 * 5);
        assert_eq!(RouteWalk::default().delivered_share(), 1.0);
        assert_eq!(RouteWalk::default().looped_share(), 0.0);
    }

    #[test]
    fn fleet_delay_matrix_is_a_metric() {
        let d = delay_matrix(40, 1234);
        for i in 0..40 {
            assert_eq!(d.at(i, i), 0.0);
            for j in 0..40 {
                if i == j {
                    continue;
                }
                assert_eq!(d.at(i, j), d.at(j, i), "symmetric");
                assert!((4.0..=33.0).contains(&d.at(i, j)), "range: {}", d.at(i, j));
                for k in 0..40 {
                    if k == i || k == j {
                        continue;
                    }
                    assert!(
                        d.at(i, j) <= d.at(i, k) + d.at(k, j) + 1e-9,
                        "triangle violated at ({i},{j},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn score_histogram_rescales_to_the_observed_range() {
        // The old fixed buckets collapsed everything into bucket 0 once
        // decayed scores were read; rescaled edges spread the mass.
        let scores = [0, 0, 1, 3, 9, 14, 20];
        let (hist, edges) = score_histogram(scores.into_iter());
        assert_eq!(edges, [1, 6, 11, 16]);
        assert_eq!(hist, [2, 2, 1, 1, 1]);
        assert!(
            hist.iter().filter(|&&c| c > 0).count() >= 3,
            "degenerate spread: {hist:?}"
        );
        let (hist, edges) = score_histogram([0, 1, 2, 3, 4, 7].into_iter());
        assert_eq!(edges, [1, 3, 5, 7]);
        assert_eq!(hist, [1, 2, 2, 0, 1]);
        // Small ranges keep the classic unit-width buckets.
        let (hist, edges) = score_histogram([0, 0, 2, 4].into_iter());
        assert_eq!(edges, [1, 2, 3, 4]);
        assert_eq!(hist, [2, 0, 1, 0, 1]);
    }
}
