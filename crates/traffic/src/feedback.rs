//! The closed loop: charge carried traffic back into the underlay.
//!
//! The paper's load metric gestures at traffic-induced congestion but
//! the control-plane simulator never exercises it. With feedback
//! enabled, each epoch's routed traffic becomes (a) induced CPU load on
//! every transmitting node — which the EWMA load sensor picks up over
//! the following epochs, steering Load-metric best responses away from
//! hot relays — and (b) consumed link bandwidth — which probe-based
//! bandwidth wiring sees as shrunken availability.

use crate::demand::Flow;
use crate::router::RouteOutcome;
use egoist_core::sim::Simulator;
use std::collections::HashMap;

/// Feedback scaling.
#[derive(Clone, Copy, Debug)]
pub struct FeedbackConfig {
    /// Whether carried traffic is charged into the underlay at all.
    pub enabled: bool,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig { enabled: true }
    }
}

/// CPU load units per forwarded Mbps (loadavg-like: 0.02 means a node
/// forwarding 500 Mbps adds 10 to its load).
const LOAD_PER_MBPS: f64 = 0.02;

/// Apply one epoch's traffic into the simulator's underlay models.
/// With feedback disabled this *clears* any previous charge, so an
/// open-loop engine on the same `Simulator` type stays truly open.
pub fn apply(sim: &mut Simulator, outcome: &RouteOutcome, cfg: &FeedbackConfig) {
    if !cfg.enabled {
        sim.loads_mut().clear_induced();
        sim.bandwidths_mut().clear_consumed();
        return;
    }
    let induced: Vec<f64> = outcome
        .forwarded
        .iter()
        .map(|mbps| mbps * LOAD_PER_MBPS)
        .collect();
    sim.loads_mut().set_induced(&induced);
    sim.bandwidths_mut().set_consumed(&outcome.consumed);
}

/// Additive increase per fully-delivered epoch (Mbps).
const INCREASE_MBPS: f64 = 2.0;
/// Multiplicative decrease factor on shortfall (0 < β < 1).
const DECREASE_FACTOR: f64 = 0.5;
/// Relative shortfall tolerated before cutting (delivered ≥ requested ·
/// (1 − tolerance) counts as success).
const LOSS_TOLERANCE: f64 = 0.02;

/// AIMD congestion-control tuning.
///
/// With AIMD on, each `(src, dst)` pair keeps a sending-rate limit that
/// replaces one-shot admission: requested rates are shaped to the limit
/// before routing, the limit grows additively while the ledger delivers
/// everything, and it is cut multiplicatively when delivery falls short
/// — TCP-friendly probing of whatever capacity the ledger actually has.
/// Disabled by default so the pinned report bytes are untouched.
#[derive(Clone, Copy, Debug)]
pub struct AimdConfig {
    pub enabled: bool,
    /// Rate floor — a pair never drops below this (Mbps).
    pub floor_mbps: f64,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            enabled: false,
            floor_mbps: 1.0,
        }
    }
}

/// The per-pair AIMD state machine.
#[derive(Debug)]
pub struct AimdController {
    cfg: AimdConfig,
    /// Current rate limit per (src, dst) pair.
    limits: HashMap<(u32, u32), f64>,
    pub increases: u64,
    pub decreases: u64,
}

impl AimdController {
    pub fn new(cfg: AimdConfig) -> Self {
        AimdController {
            cfg,
            limits: HashMap::new(),
            increases: 0,
            decreases: 0,
        }
    }

    /// Shape this epoch's flows to the current limits. A pair's first
    /// sighting seeds its limit at the requested rate (no slow start —
    /// epochs are coarse), so the first epoch is unshaped. When disabled
    /// the rates are left alone, but the result is still a full copy of
    /// `flows` (16 B a flow: 6.4 MB for a 400 k-flow epoch).
    pub fn shape(&mut self, flows: &[Flow]) -> Vec<Flow> {
        if !self.cfg.enabled {
            return flows.to_vec();
        }
        flows
            .iter()
            .map(|f| {
                let limit = *self.limits.entry((f.src.0, f.dst.0)).or_insert(f.rate_mbps);
                Flow {
                    rate_mbps: f.rate_mbps.min(limit),
                    ..*f
                }
            })
            .collect()
    }

    /// Fold one epoch's delivery results back into the limits.
    pub fn update(&mut self, outcome: &RouteOutcome) {
        if !self.cfg.enabled {
            return;
        }
        let obs = crate::router::traffic_obs();
        for rf in &outcome.flows {
            let key = (rf.flow.src.0, rf.flow.dst.0);
            let Some(limit) = self.limits.get_mut(&key) else {
                continue;
            };
            let requested = rf.flow.rate_mbps;
            if rf.delivered_mbps + 1e-9 < requested * (1.0 - LOSS_TOLERANCE) {
                *limit = (*limit * DECREASE_FACTOR).max(self.cfg.floor_mbps);
                self.decreases += 1;
                obs.rate_decrease.add(1);
            } else {
                *limit += INCREASE_MBPS;
                self.increases += 1;
                obs.rate_increase.add(1);
            }
        }
    }

    /// Current limit for a pair (None until first sighting).
    pub fn limit(&self, src: u32, dst: u32) -> Option<f64> {
        self.limits.get(&(src, dst)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RoutedFlow;
    use egoist_core::policies::PolicyKind;
    use egoist_core::sim::{Metric, SimConfig, Simulator};
    use egoist_graph::NodeId;

    fn outcome(n: usize) -> RouteOutcome {
        let mut consumed = vec![0.0; n * n];
        consumed[1] = 50.0; // 0→1 carries 50 Mbps
        let mut forwarded = vec![0.0; n];
        forwarded[0] = 50.0;
        RouteOutcome {
            flows: vec![RoutedFlow {
                flow: Flow {
                    src: NodeId(0),
                    dst: NodeId(1),
                    rate_mbps: 50.0,
                },
                delivered_mbps: 50.0,
                latency_ms: 5.0,
                stretch: 1.0,
                paths_used: 1,
            }],
            offered_mbps: 50.0,
            delivered_mbps: 50.0,
            consumed,
            forwarded,
            route_changes: 0,
        }
    }

    fn one_flow_outcome(requested: f64, delivered: f64) -> RouteOutcome {
        RouteOutcome {
            flows: vec![RoutedFlow {
                flow: Flow {
                    src: NodeId(0),
                    dst: NodeId(1),
                    rate_mbps: requested,
                },
                delivered_mbps: delivered,
                latency_ms: 5.0,
                stretch: 1.0,
                paths_used: 1,
            }],
            offered_mbps: requested,
            delivered_mbps: delivered,
            consumed: vec![0.0; 4],
            forwarded: vec![0.0; 2],
            route_changes: 0,
        }
    }

    fn sim(n: usize) -> Simulator {
        let mut cfg = SimConfig::baseline(2, PolicyKind::Random, Metric::Load, 3);
        cfg.n = n;
        cfg.epochs = 2;
        cfg.warmup_epochs = 0;
        Simulator::new(cfg)
    }

    #[test]
    fn enabled_feedback_charges_load_and_bandwidth() {
        let mut s = sim(6);
        let base_load = s.loads().instantaneous(0);
        let base_bw = s.bandwidths().available(0, 1);
        apply(&mut s, &outcome(6), &FeedbackConfig::default());
        assert!((s.loads().instantaneous(0) - (base_load + 1.0)).abs() < 1e-9);
        assert!(s.bandwidths().available(0, 1) <= (base_bw - 50.0).max(0.0) + 1e-9);
    }

    #[test]
    fn disabled_feedback_clears_previous_charge() {
        let mut s = sim(6);
        apply(&mut s, &outcome(6), &FeedbackConfig::default());
        apply(&mut s, &outcome(6), &FeedbackConfig { enabled: false });
        assert_eq!(s.loads().induced(0), 0.0);
        assert_eq!(s.bandwidths().consumed(0, 1), 0.0);
    }

    #[test]
    fn aimd_disabled_is_identity() {
        let mut c = AimdController::new(AimdConfig::default());
        let flows = vec![Flow {
            src: NodeId(0),
            dst: NodeId(1),
            rate_mbps: 40.0,
        }];
        let shaped = c.shape(&flows);
        assert_eq!(shaped[0].rate_mbps, 40.0);
        c.update(&one_flow_outcome(40.0, 1.0));
        assert_eq!(c.limit(0, 1), None);
        assert_eq!((c.increases, c.decreases), (0, 0));
    }

    #[test]
    fn aimd_cuts_on_shortfall_and_probes_back_up() {
        let cfg = AimdConfig {
            enabled: true,
            ..Default::default()
        };
        let mut c = AimdController::new(cfg);
        let flows = vec![Flow {
            src: NodeId(0),
            dst: NodeId(1),
            rate_mbps: 40.0,
        }];
        // First epoch: unshaped, but only 10 of 40 Mbps got through.
        let shaped = c.shape(&flows);
        assert_eq!(shaped[0].rate_mbps, 40.0);
        c.update(&one_flow_outcome(shaped[0].rate_mbps, 10.0));
        assert_eq!(c.limit(0, 1), Some(20.0));
        // Second epoch: shaped to 20, still short → 10.
        let shaped = c.shape(&flows);
        assert_eq!(shaped[0].rate_mbps, 20.0);
        c.update(&one_flow_outcome(shaped[0].rate_mbps, 10.0));
        assert_eq!(c.limit(0, 1), Some(10.0));
        // Third epoch: 10 fits → additive increase.
        let shaped = c.shape(&flows);
        assert_eq!(shaped[0].rate_mbps, 10.0);
        c.update(&one_flow_outcome(shaped[0].rate_mbps, 10.0));
        assert_eq!(c.limit(0, 1), Some(12.0));
        assert_eq!((c.increases, c.decreases), (1, 2));
    }

    #[test]
    fn aimd_respects_floor() {
        let cfg = AimdConfig {
            enabled: true,
            floor_mbps: 4.0,
        };
        let mut c = AimdController::new(cfg);
        let flows = vec![Flow {
            src: NodeId(0),
            dst: NodeId(1),
            rate_mbps: 5.0,
        }];
        for _ in 0..6 {
            let shaped = c.shape(&flows);
            c.update(&one_flow_outcome(shaped[0].rate_mbps, 0.0));
        }
        assert_eq!(c.limit(0, 1), Some(4.0));
    }
}
