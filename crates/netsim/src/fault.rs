//! Message-level fault injection for protocol testing.
//!
//! Modeled on the fault injectors that ship with smoltcp's examples:
//! probabilistic drop, single-octet corruption, and a token-bucket rate
//! limiter — extended with duplication, reordering, delay jitter, and a
//! time-windowed [`FaultPlan`] schedule (named-group partitions that cut
//! and later heal, bursty correlated churn storms, per-window loss/jitter
//! boosts). The protocol crate's `SimTransport` runs every frame through
//! a [`FaultInjector`], and reports its [`FaultStats`], which is how the
//! test suite exercises loss of link-state announcements, heartbeat
//! timeouts, corrupt-frame rejection and partition/heal cycles.
//!
//! # Determinism
//!
//! Verdicts are a pure function of `(seed, config, plan, call sequence)`:
//! the RNG is consumed in a fixed order (drop, corrupt, duplicate,
//! reorder, jitter) and each draw is gated on its chance being non-zero,
//! so enabling a new fault class never perturbs the stream of an
//! existing one. Partition/churn-storm cuts are closed-form in `now` and
//! consume no randomness at all. `netsim::proptests` pins the property.

use crate::churn::{ChurnEvent, ChurnTrace};
use crate::rng::derive;
use egoist_graph::NodeId;
use rand::rngs::StdRng;
use rand::Rng;

/// What happened to a frame passed through the injector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver untouched.
    Pass,
    /// Drop silently.
    Drop,
    /// Deliver with bit `bit` of octet `byte` flipped.
    Corrupted { byte: usize, bit: u8 },
    /// Drop because an active fault window cuts the sender/receiver pair
    /// (partition, or one endpoint is churned OFF).
    Cut,
    /// Deliver twice: the original on time, an echo `extra_us` later.
    Duplicate { extra_us: u32 },
    /// Deliver with `extra_us` of additional one-way latency.
    Delayed { extra_us: u32 },
    /// Deliver held back `extra_us` — long enough to arrive behind
    /// frames sent after it (reordering).
    Reordered { extra_us: u32 },
}

impl Verdict {
    /// Apply the verdict's payload damage to `frame`: a `Corrupted`
    /// verdict flips its bit, every other verdict leaves the bytes alone.
    pub fn damage(self, frame: &mut [u8]) {
        if let Verdict::Corrupted { byte, bit } = self {
            frame[byte] ^= 1 << bit;
        }
    }
}

/// Configuration for a [`FaultInjector`].
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Probability a frame is dropped.
    pub drop_chance: f64,
    /// Probability a frame has one octet corrupted.
    pub corrupt_chance: f64,
    /// Probability a frame is delivered twice.
    pub duplicate_chance: f64,
    /// Probability a frame is held back long enough to reorder.
    pub reorder_chance: f64,
    /// Probability a frame picks up extra latency.
    pub jitter_chance: f64,
    /// Maximum extra latency (ms) for jittered frames and duplicate
    /// echoes.
    pub jitter_ms: f64,
    /// Maximum hold-back (ms) for reordered frames.
    pub reorder_hold_ms: f64,
    /// Token bucket capacity (frames); `None` disables rate limiting.
    pub bucket_capacity: Option<u32>,
    /// Token refill per second.
    pub refill_per_sec: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            duplicate_chance: 0.0,
            reorder_chance: 0.0,
            jitter_chance: 0.0,
            jitter_ms: 5.0,
            reorder_hold_ms: 50.0,
            bucket_capacity: None,
            refill_per_sec: 0.0,
        }
    }
}

impl FaultConfig {
    /// A lossy link (the smoltcp docs' suggested starting point is 15%).
    pub fn lossy(drop_chance: f64) -> Self {
        FaultConfig {
            drop_chance,
            ..Default::default()
        }
    }
}

/// One scheduled fault class, active on `[from, to)`.
#[derive(Clone, Debug)]
pub enum WindowFault {
    /// Named node groups that can only talk within their own group while
    /// the window is open. Nodes listed in no group implicitly belong to
    /// group 0 (the "main" side — infrastructure like a bootstrap
    /// service stays reachable from it).
    Partition { groups: Vec<Vec<NodeId>> },
    /// Bursty correlated ON/OFF churn: the listed nodes flap in four
    /// staggered waves; each node is OFF for `off_fraction` of every
    /// `period` seconds. Frames to or from an OFF node are cut.
    ChurnStorm {
        nodes: Vec<NodeId>,
        period: f64,
        off_fraction: f64,
    },
    /// Extra drop probability while the window is open (combined with
    /// the base config by `max`).
    Loss { chance: f64 },
    /// Extra latency jitter while the window is open.
    Jitter { chance: f64, max_ms: f64 },
    /// Frame duplication while the window is open.
    Duplicate { chance: f64 },
    /// Frame reordering while the window is open.
    Reorder { chance: f64, hold_ms: f64 },
}

impl WindowFault {
    /// Stable label for events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            WindowFault::Partition { .. } => "partition",
            WindowFault::ChurnStorm { .. } => "churn_storm",
            WindowFault::Loss { .. } => "loss",
            WindowFault::Jitter { .. } => "jitter",
            WindowFault::Duplicate { .. } => "duplicate",
            WindowFault::Reorder { .. } => "reorder",
        }
    }
}

/// A fault class scheduled on a time window.
#[derive(Clone, Debug)]
pub struct FaultWindow {
    /// Window opens (inclusive, seconds).
    pub from: f64,
    /// Window closes / heals (exclusive, seconds).
    pub to: f64,
    pub fault: WindowFault,
}

impl FaultWindow {
    fn active(&self, now: f64) -> bool {
        now >= self.from && now < self.to
    }
}

/// Number of staggered churn-storm waves.
const STORM_WAVES: usize = 4;

fn storm_phase(slot: usize, period: f64) -> f64 {
    period * (slot % STORM_WAVES) as f64 / STORM_WAVES as f64
}

fn storm_off(window: &FaultWindow, slot: usize, period: f64, off_fraction: f64, now: f64) -> bool {
    if !window.active(now) || off_fraction <= 0.0 || period <= 0.0 {
        return false;
    }
    let local = now - window.from + storm_phase(slot, period);
    local.rem_euclid(period) < off_fraction * period
}

/// A deterministic schedule of fault windows.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    pub windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan (no scheduled faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    fn push(mut self, from: f64, to: f64, fault: WindowFault) -> Self {
        assert!(to > from, "fault window must have positive length");
        self.windows.push(FaultWindow { from, to, fault });
        self
    }

    /// Schedule a partition of the named groups on `[from, to)`.
    pub fn partition(self, from: f64, to: f64, groups: Vec<Vec<NodeId>>) -> Self {
        self.push(from, to, WindowFault::Partition { groups })
    }

    /// Schedule a churn storm over `nodes` on `[from, to)`.
    pub fn churn_storm(
        self,
        from: f64,
        to: f64,
        nodes: Vec<NodeId>,
        period: f64,
        off_fraction: f64,
    ) -> Self {
        self.push(
            from,
            to,
            WindowFault::ChurnStorm {
                nodes,
                period,
                off_fraction,
            },
        )
    }

    /// Schedule an extra-loss window.
    pub fn loss(self, from: f64, to: f64, chance: f64) -> Self {
        self.push(from, to, WindowFault::Loss { chance })
    }

    /// Schedule a latency-jitter window.
    pub fn jitter(self, from: f64, to: f64, chance: f64, max_ms: f64) -> Self {
        self.push(from, to, WindowFault::Jitter { chance, max_ms })
    }

    /// Schedule a duplication window.
    pub fn duplicate(self, from: f64, to: f64, chance: f64) -> Self {
        self.push(from, to, WindowFault::Duplicate { chance })
    }

    /// Schedule a reordering window.
    pub fn reorder(self, from: f64, to: f64, chance: f64, hold_ms: f64) -> Self {
        self.push(from, to, WindowFault::Reorder { chance, hold_ms })
    }

    /// Is the node churned OFF by an active storm window at `now`?
    pub fn node_off(&self, now: f64, node: NodeId) -> bool {
        self.windows.iter().any(|w| match &w.fault {
            WindowFault::ChurnStorm {
                nodes,
                period,
                off_fraction,
            } => nodes
                .iter()
                .position(|&x| x == node)
                .is_some_and(|slot| storm_off(w, slot, *period, *off_fraction, now)),
            _ => false,
        })
    }

    /// Does an active window cut the directed pair `(from, to)` at `now`?
    pub fn cuts(&self, now: f64, from: NodeId, to: NodeId) -> bool {
        self.windows.iter().any(|w| {
            if !w.active(now) {
                return false;
            }
            match &w.fault {
                WindowFault::Partition { groups } => {
                    let side =
                        |id: NodeId| groups.iter().position(|g| g.contains(&id)).unwrap_or(0);
                    side(from) != side(to)
                }
                WindowFault::ChurnStorm {
                    nodes,
                    period,
                    off_fraction,
                } => [from, to].iter().any(|id| {
                    nodes
                        .iter()
                        .position(|x| x == id)
                        .is_some_and(|slot| storm_off(w, slot, *period, *off_fraction, now))
                }),
                _ => false,
            }
        })
    }

    /// Effective (plan-boosted) chances at `now`, combined with a base
    /// config by `max`.
    fn effective(&self, now: f64, base: &FaultConfig) -> FaultConfig {
        let mut eff = *base;
        for w in self.windows.iter().filter(|w| w.active(now)) {
            match &w.fault {
                WindowFault::Loss { chance } => eff.drop_chance = eff.drop_chance.max(*chance),
                WindowFault::Jitter { chance, max_ms } => {
                    eff.jitter_chance = eff.jitter_chance.max(*chance);
                    eff.jitter_ms = eff.jitter_ms.max(*max_ms);
                }
                WindowFault::Duplicate { chance } => {
                    eff.duplicate_chance = eff.duplicate_chance.max(*chance)
                }
                WindowFault::Reorder { chance, hold_ms } => {
                    eff.reorder_chance = eff.reorder_chance.max(*chance);
                    eff.reorder_hold_ms = eff.reorder_hold_ms.max(*hold_ms);
                }
                WindowFault::Partition { .. } | WindowFault::ChurnStorm { .. } => {}
            }
        }
        eff
    }

    /// Project the plan's membership effects into a core-layer
    /// [`ChurnTrace`] over ids `0..n`: partitioned minority groups are
    /// OFF for their window (as seen from group 0, the main component),
    /// and churn-storm flaps become explicit ON/OFF events. This is what
    /// lets the pure `Simulator` replay the same scenario the live fleet
    /// ran, engine-equivalence gate included.
    pub fn churn_trace(&self, n: usize, horizon: f64) -> ChurnTrace {
        let mut events = Vec::new();
        let mut push = |at: f64, node: NodeId, up: bool| {
            if at > 0.0 && at < horizon && node.index() < n {
                events.push(ChurnEvent { at, node, up });
            }
        };
        for w in &self.windows {
            match &w.fault {
                WindowFault::Partition { groups } => {
                    for g in groups.iter().skip(1) {
                        for &node in g {
                            push(w.from, node, false);
                            push(w.to, node, true);
                        }
                    }
                }
                WindowFault::ChurnStorm {
                    nodes,
                    period,
                    off_fraction,
                } => {
                    if *period <= 0.0 || *off_fraction <= 0.0 {
                        continue;
                    }
                    let off_len = off_fraction * period;
                    for (slot, &node) in nodes.iter().enumerate() {
                        let phase = storm_phase(slot, *period);
                        let len = w.to - w.from;
                        let mut m = 0.0f64;
                        loop {
                            // OFF interval in window-local time:
                            // [m·period − phase, same + off_len).
                            let start = m * period - phase;
                            if start >= len {
                                break;
                            }
                            let end = (start + off_len).min(len);
                            if end > 0.0 {
                                push(w.from + start.max(0.0), node, false);
                                push(w.from + end, node, true);
                            }
                            m += 1.0;
                        }
                    }
                }
                _ => {}
            }
        }
        events.sort_by(|a, b| {
            a.at.total_cmp(&b.at)
                .then(a.node.cmp(&b.node))
                .then(a.up.cmp(&b.up))
        });
        ChurnTrace { n, horizon, events }
    }
}

/// Obs handles for the injector (no-ops unless `egoist_obs::enable`).
struct FaultObs {
    window_open: egoist_obs::Counter,
    window_heal: egoist_obs::Counter,
    cut: egoist_obs::Counter,
    dropped: egoist_obs::Counter,
    duplicated: egoist_obs::Counter,
    reordered: egoist_obs::Counter,
    jittered: egoist_obs::Counter,
}

fn fault_obs() -> &'static FaultObs {
    use std::sync::OnceLock;
    static OBS: OnceLock<FaultObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = egoist_obs::registry();
        FaultObs {
            window_open: r.counter("netsim.fault.window_open"),
            window_heal: r.counter("netsim.fault.window_heal"),
            cut: r.counter("netsim.fault.cut"),
            dropped: r.counter("netsim.fault.dropped"),
            duplicated: r.counter("netsim.fault.duplicated"),
            reordered: r.counter("netsim.fault.reordered"),
            jittered: r.counter("netsim.fault.jittered"),
        }
    })
}

/// The verdicts counted both in [`FaultStats`] and in a `netsim.fault.*`
/// counter; [`FaultInjector::bump`] adds to the two together.
#[derive(Clone, Copy)]
enum Counted {
    Cut,
    Dropped,
    Duplicated,
    Reordered,
    Jittered,
}

/// A [`FaultInjector`]'s verdicts, drops split by cause (chance, token
/// bucket, plan cut).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub passed: u64,
    pub dropped: u64,
    pub corrupted: u64,
    pub rate_limited: u64,
    pub cut: u64,
    pub duplicated: u64,
    pub reordered: u64,
    pub jittered: u64,
}

/// Deterministic fault injector.
#[derive(Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    plan: Option<FaultPlan>,
    /// Last observed open/closed state per plan window, for edge events.
    window_open: Vec<bool>,
    rng: StdRng,
    tokens: f64,
    last_refill: f64,
    pub stats: FaultStats,
}

impl FaultInjector {
    /// Build with a derived RNG stream.
    pub fn new(cfg: FaultConfig, seed: u64) -> Self {
        Self::with_plan(cfg, None, seed)
    }

    /// Build with a scheduled fault plan on top of the base config.
    pub fn with_plan(cfg: FaultConfig, plan: Option<FaultPlan>, seed: u64) -> Self {
        let tokens = cfg.bucket_capacity.map(|c| c as f64).unwrap_or(0.0);
        let window_open = vec![false; plan.as_ref().map_or(0, |p| p.windows.len())];
        FaultInjector {
            cfg,
            plan,
            window_open,
            rng: derive(seed, "fault"),
            tokens,
            last_refill: 0.0,
            stats: FaultStats::default(),
        }
    }

    /// Count one verdict in `stats` and in its `netsim.fault.*` counter,
    /// the one place either is added to.
    fn bump(&mut self, verdict: Counted) {
        let obs = fault_obs();
        let (stat, counter) = match verdict {
            Counted::Cut => (&mut self.stats.cut, &obs.cut),
            Counted::Dropped => (&mut self.stats.dropped, &obs.dropped),
            Counted::Duplicated => (&mut self.stats.duplicated, &obs.duplicated),
            Counted::Reordered => (&mut self.stats.reordered, &obs.reordered),
            Counted::Jittered => (&mut self.stats.jittered, &obs.jittered),
        };
        *stat += 1;
        counter.inc();
    }

    /// Flight-recorder edges for windows opening/healing at `now`.
    fn note_window_edges(&mut self, now: f64) {
        let Some(plan) = &self.plan else { return };
        for (i, w) in plan.windows.iter().enumerate() {
            let open = w.active(now);
            if open == self.window_open[i] {
                continue;
            }
            self.window_open[i] = open;
            let obs = fault_obs();
            if open {
                obs.window_open.inc();
            } else {
                obs.window_heal.inc();
            }
            egoist_obs::event_at(
                (now.max(0.0) * 1e9) as u64,
                if open {
                    "netsim.fault.open"
                } else {
                    "netsim.fault.heal"
                },
                &[
                    ("window", (i as u64).into()),
                    ("kind", w.fault.label().into()),
                ],
            );
        }
    }

    /// The verdict on one addressed frame of `len` octets at simulation
    /// time `now`, without touching its bytes: a caller that shares one
    /// frame among several sends copies it only when the verdict is
    /// `Corrupted`, and applies the flip with [`Verdict::damage`].
    pub fn verdict(&mut self, now: f64, from: NodeId, to: NodeId, len: usize) -> Verdict {
        self.note_window_edges(now);
        if let Some(plan) = &self.plan {
            if plan.cuts(now, from, to) {
                self.bump(Counted::Cut);
                return Verdict::Cut;
            }
        }
        if let Some(cap) = self.cfg.bucket_capacity {
            // Refill.
            let dt = (now - self.last_refill).max(0.0);
            self.tokens = (self.tokens + dt * self.cfg.refill_per_sec).min(cap as f64);
            self.last_refill = now;
            if self.tokens < 1.0 {
                self.stats.rate_limited += 1;
                return Verdict::Drop;
            }
            self.tokens -= 1.0;
        }
        let eff = match &self.plan {
            Some(plan) => plan.effective(now, &self.cfg),
            None => self.cfg,
        };
        if eff.drop_chance > 0.0 && self.rng.random_range(0.0..1.0) < eff.drop_chance {
            self.bump(Counted::Dropped);
            return Verdict::Drop;
        }
        if eff.corrupt_chance > 0.0
            && len > 0
            && self.rng.random_range(0.0..1.0) < eff.corrupt_chance
        {
            let byte = self.rng.random_range(0..len);
            let bit = self.rng.random_range(0..8u32) as u8;
            self.stats.corrupted += 1;
            return Verdict::Corrupted { byte, bit };
        }
        if eff.duplicate_chance > 0.0 && self.rng.random_range(0.0..1.0) < eff.duplicate_chance {
            let extra_us = (self.rng.random_range(0.0..eff.jitter_ms.max(1.0)) * 1000.0) as u32;
            self.bump(Counted::Duplicated);
            return Verdict::Duplicate { extra_us };
        }
        if eff.reorder_chance > 0.0 && self.rng.random_range(0.0..1.0) < eff.reorder_chance {
            let hold = eff.reorder_hold_ms.max(1.0);
            let extra_us = (self.rng.random_range(hold * 0.5..hold) * 1000.0) as u32;
            self.bump(Counted::Reordered);
            return Verdict::Reordered { extra_us };
        }
        if eff.jitter_chance > 0.0 && self.rng.random_range(0.0..1.0) < eff.jitter_chance {
            let extra_us = (self.rng.random_range(0.0..eff.jitter_ms.max(0.001)) * 1000.0) as u32;
            self.bump(Counted::Jittered);
            return Verdict::Delayed { extra_us };
        }
        self.stats.passed += 1;
        Verdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An endpoint no plan names: only window-free faults apply.
    const NOBODY: NodeId = NodeId(u32::MAX);

    #[test]
    fn clean_injector_passes_everything() {
        let mut f = FaultInjector::new(FaultConfig::default(), 1);
        for t in 0..100 {
            assert_eq!(f.verdict(t as f64, NOBODY, NOBODY, 32), Verdict::Pass);
        }
        assert_eq!(f.stats.passed, 100);
    }

    #[test]
    fn drop_rate_is_roughly_honored() {
        let mut f = FaultInjector::new(FaultConfig::lossy(0.3), 2);
        let mut drops = 0;
        for t in 0..2000 {
            if f.verdict(t as f64, NOBODY, NOBODY, 8) == Verdict::Drop {
                drops += 1;
            }
        }
        let rate = drops as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.05, "observed drop rate {rate}");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let cfg = FaultConfig {
            corrupt_chance: 1.0,
            ..Default::default()
        };
        let mut f = FaultInjector::new(cfg, 3);
        let orig = vec![0xAAu8; 16];
        let mut frame = orig.clone();
        let verdict = f.verdict(0.0, NOBODY, NOBODY, frame.len());
        assert!(matches!(verdict, Verdict::Corrupted { .. }));
        verdict.damage(&mut frame);
        let flipped: u32 = orig
            .iter()
            .zip(&frame)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn token_bucket_limits_burst() {
        let cfg = FaultConfig {
            bucket_capacity: Some(4),
            refill_per_sec: 1.0,
            ..Default::default()
        };
        let mut f = FaultInjector::new(cfg, 4);
        // Burst of 10 at t=0: only 4 pass.
        let passed = (0..10)
            .filter(|_| f.verdict(0.0, NOBODY, NOBODY, 4) == Verdict::Pass)
            .count();
        assert_eq!(passed, 4);
        // After 3 seconds, 3 tokens refilled.
        let passed2 = (0..10)
            .filter(|_| f.verdict(3.0, NOBODY, NOBODY, 4) == Verdict::Pass)
            .count();
        assert_eq!(passed2, 3);
        assert_eq!(f.stats.rate_limited, 13);
    }

    #[test]
    fn determinism() {
        let run = |seed| {
            let mut f = FaultInjector::new(FaultConfig::lossy(0.5), seed);
            (0..64)
                .map(|t| f.verdict(t as f64, NOBODY, NOBODY, 4) == Verdict::Drop)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn partition_cuts_cross_group_frames_then_heals() {
        let plan = FaultPlan::new().partition(
            10.0,
            20.0,
            vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
        );
        let mut f = FaultInjector::with_plan(FaultConfig::default(), Some(plan), 5);
        // Before the window: everything passes.
        assert_eq!(f.verdict(5.0, NodeId(0), NodeId(2), 4), Verdict::Pass);
        // During: cross-group cut, intra-group pass. Unlisted ids side
        // with group 0.
        assert_eq!(f.verdict(15.0, NodeId(0), NodeId(2), 4), Verdict::Cut);
        assert_eq!(f.verdict(15.0, NodeId(2), NodeId(3), 4), Verdict::Pass);
        assert_eq!(f.verdict(15.0, NodeId(0), NodeId(1000), 4), Verdict::Pass);
        assert_eq!(f.verdict(15.0, NodeId(2), NodeId(1000), 4), Verdict::Cut);
        // After the heal: everything passes again.
        assert_eq!(f.verdict(25.0, NodeId(0), NodeId(2), 4), Verdict::Pass);
        assert_eq!(f.stats.cut, 2);
    }

    #[test]
    fn churn_storm_flaps_nodes_deterministically() {
        let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
        let plan = FaultPlan::new().churn_storm(0.0, 100.0, nodes, 20.0, 0.25);
        // Node 0 (wave 0): OFF on [0,5), [20,25), ...
        assert!(plan.node_off(1.0, NodeId(0)));
        assert!(!plan.node_off(6.0, NodeId(0)));
        assert!(plan.node_off(21.0, NodeId(0)));
        // Node 1 (wave 1, phase 5): OFF on [15,20), [35,40), ...
        assert!(!plan.node_off(1.0, NodeId(1)));
        assert!(plan.node_off(16.0, NodeId(1)));
        // Outside the window nobody is off.
        assert!(!plan.node_off(150.0, NodeId(0)));
        // cuts() mirrors node_off on either endpoint: nodes 0 and 4 are
        // both wave 0 (OFF on [0,5)), node 1 is wave 1.
        assert!(plan.cuts(1.0, NodeId(1), NodeId(0)));
        assert!(plan.cuts(1.0, NodeId(0), NodeId(1)));
        assert!(!plan.cuts(6.0, NodeId(0), NodeId(4)));
    }

    #[test]
    fn churn_trace_matches_node_off_closed_form() {
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let plan = FaultPlan::new()
            .churn_storm(30.0, 90.0, nodes, 20.0, 0.3)
            .partition(
                100.0,
                130.0,
                vec![vec![NodeId(0)], vec![NodeId(4), NodeId(5)]],
            );
        let trace = plan.churn_trace(6, 200.0);
        // The trace's membership at sample times must agree with the
        // plan's closed-form OFF predicate (partition: groups beyond 0
        // count as OFF).
        for t in [0.0, 31.0, 40.0, 55.0, 89.0, 95.0, 101.0, 129.0, 140.0] {
            let alive = trace.alive_at(t);
            for i in 0..6 {
                let id = NodeId::from_index(i);
                let partitioned = (100.0..130.0).contains(&t) && (i == 4 || i == 5);
                let expect_off = plan.node_off(t, id) || partitioned;
                assert_eq!(
                    !alive.contains(&id),
                    expect_off,
                    "node {i} at t={t}: alive set {alive:?}"
                );
            }
        }
    }

    #[test]
    fn window_loss_applies_only_inside_window() {
        let plan = FaultPlan::new().loss(10.0, 20.0, 1.0);
        let mut f = FaultInjector::with_plan(FaultConfig::default(), Some(plan), 6);
        assert_eq!(f.verdict(5.0, NOBODY, NOBODY, 4), Verdict::Pass);
        assert_eq!(f.verdict(15.0, NOBODY, NOBODY, 4), Verdict::Drop);
        assert_eq!(f.verdict(25.0, NOBODY, NOBODY, 4), Verdict::Pass);
    }

    #[test]
    fn duplicate_reorder_jitter_verdicts_fire() {
        let cfg = FaultConfig {
            duplicate_chance: 1.0,
            ..Default::default()
        };
        let mut f = FaultInjector::new(cfg, 7);
        assert!(matches!(
            f.verdict(0.0, NOBODY, NOBODY, 4),
            Verdict::Duplicate { .. }
        ));
        let cfg = FaultConfig {
            reorder_chance: 1.0,
            reorder_hold_ms: 40.0,
            ..Default::default()
        };
        let mut f = FaultInjector::new(cfg, 8);
        match f.verdict(0.0, NOBODY, NOBODY, 4) {
            Verdict::Reordered { extra_us } => {
                assert!((20_000..=40_000).contains(&extra_us), "hold {extra_us}us")
            }
            v => panic!("expected reorder, got {v:?}"),
        }
        let cfg = FaultConfig {
            jitter_chance: 1.0,
            jitter_ms: 10.0,
            ..Default::default()
        };
        let mut f = FaultInjector::new(cfg, 9);
        match f.verdict(0.0, NOBODY, NOBODY, 4) {
            Verdict::Delayed { extra_us } => assert!(extra_us < 10_000),
            v => panic!("expected jitter, got {v:?}"),
        }
        assert_eq!(f.stats.jittered, 1);
    }
}
