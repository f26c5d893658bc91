//! The traffic metrics sink.
//!
//! Collects per-epoch data-plane outcomes alongside the control plane's
//! epoch samples and summarizes the steady state: throughput, delivery
//! ratio, p50/p99 flow latency, mean path stretch. Exported as JSON so
//! experiment binaries can emit machine-readable comparisons.

use crate::json::{array, JsonObject, Layout::Compact};
use crate::router::RouteOutcome;
use egoist_core::sim::EpochSample;
use egoist_core::stats;

/// One epoch's traffic measurements.
#[derive(Clone, Debug)]
pub struct EpochTraffic {
    pub epoch: usize,
    pub offered_mbps: f64,
    pub delivered_mbps: f64,
    pub delivery_ratio: f64,
    /// Flow-latency percentiles within this epoch (ms; NaN if nothing
    /// was delivered).
    pub p50_latency_ms: f64,
    pub p99_latency_ms: f64,
    pub mean_stretch: f64,
    pub rewirings: usize,
    pub alive: usize,
    /// Committed-path switches this epoch (delay-aware data policy;
    /// always 0 otherwise).
    pub route_changes: usize,
}

/// Steady-state summary (warmup epochs dropped).
#[derive(Clone, Debug, Default)]
pub struct TrafficSummary {
    pub offered_mbps: f64,
    pub delivered_mbps: f64,
    pub delivery_ratio: f64,
    pub p50_latency_ms: f64,
    pub p99_latency_ms: f64,
    pub mean_stretch: f64,
    pub mean_rewirings: f64,
    pub flows_measured: usize,
    /// Total route changes over steady epochs (flapping observable).
    pub route_changes: usize,
}

/// The full report for one (policy, workload, seed) run.
#[derive(Clone, Debug)]
pub struct TrafficReport {
    /// Control-plane configuration label (policy, k, metric, n).
    pub config_label: String,
    pub workload: String,
    pub seed: u64,
    pub closed_loop: bool,
    pub warmup_epochs: usize,
    /// Data-plane policy label when a non-default policy ran; `None`
    /// keeps the serialized document byte-identical to the pre-policy
    /// format (the perf fingerprints hash these bytes).
    pub data_policy: Option<String>,
    pub epochs: Vec<EpochTraffic>,
    pub summary: TrafficSummary,
    /// Latencies of every flow delivered in a steady epoch, pooled (the
    /// summary takes percentiles over flows, not over epoch aggregates;
    /// selection reorders the pool, which order statistics don't mind).
    steady_latencies_ms: Vec<f64>,
    /// Sum and count of the steady epochs' finite stretches, folded flow
    /// by flow in record order.
    steady_stretch: (f64, usize),
}

/// `sum / count`, NaN over nothing — [`stats::mean`] of a series that was
/// folded as it went by.
fn mean_of((sum, count): (f64, usize)) -> f64 {
    if count > 0 {
        sum / count as f64
    } else {
        f64::NAN
    }
}

impl TrafficReport {
    pub fn new(
        config_label: String,
        workload: String,
        seed: u64,
        closed_loop: bool,
        warmup_epochs: usize,
    ) -> Self {
        TrafficReport {
            config_label,
            workload,
            seed,
            closed_loop,
            warmup_epochs,
            data_policy: None,
            epochs: Vec::new(),
            summary: TrafficSummary::default(),
            steady_latencies_ms: Vec::new(),
            steady_stretch: (0.0, 0),
        }
    }

    /// Record one epoch's routing outcome and control-plane sample:
    /// one pass over the flows, percentiles by selection.
    pub fn record(&mut self, outcome: &RouteOutcome, sample: &EpochSample) {
        let steady = sample.epoch >= self.warmup_epochs;
        // The epoch's latencies go on the end of the pool, and come off
        // again once measured if the epoch is warmup.
        let pooled = self.steady_latencies_ms.len();
        let mut stretch = (0.0, 0);
        for f in outcome.flows.iter().filter(|f| f.delivered_mbps > 0.0) {
            self.steady_latencies_ms.push(f.latency_ms);
            if f.stretch.is_finite() {
                stretch = (stretch.0 + f.stretch, stretch.1 + 1);
                if steady {
                    self.steady_stretch.0 += f.stretch;
                    self.steady_stretch.1 += 1;
                }
            }
        }
        let latency = stats::percentiles(&mut self.steady_latencies_ms[pooled..], &[50.0, 99.0]);
        if !steady {
            self.steady_latencies_ms.truncate(pooled);
        }
        self.epochs.push(EpochTraffic {
            epoch: sample.epoch,
            offered_mbps: outcome.offered_mbps,
            delivered_mbps: outcome.delivered_mbps,
            delivery_ratio: outcome.delivery_ratio(),
            p50_latency_ms: latency[0],
            p99_latency_ms: latency[1],
            mean_stretch: mean_of(stretch),
            rewirings: sample.rewirings,
            alive: sample.alive,
            route_changes: outcome.route_changes,
        });

        // The summary, over steady epochs (few) and their pooled flows.
        let warmup = self.warmup_epochs;
        let steady = || self.epochs.iter().filter(move |e| e.epoch >= warmup);
        let mean =
            |of: fn(&EpochTraffic) -> f64| stats::mean(&steady().map(of).collect::<Vec<_>>());
        let (offered, delivered) = (mean(|e| e.offered_mbps), mean(|e| e.delivered_mbps));
        let (mean_rewirings, route_changes) = (
            mean(|e| e.rewirings as f64),
            steady().map(|e| e.route_changes).sum(),
        );
        let latency = stats::percentiles(&mut self.steady_latencies_ms, &[50.0, 99.0]);
        self.summary = TrafficSummary {
            offered_mbps: offered,
            delivered_mbps: delivered,
            delivery_ratio: if offered > 0.0 {
                delivered / offered
            } else {
                1.0
            },
            p50_latency_ms: latency[0],
            p99_latency_ms: latency[1],
            mean_stretch: mean_of(self.steady_stretch),
            mean_rewirings,
            flows_measured: self.steady_latencies_ms.len(),
            route_changes,
        };
    }

    /// Serialize the whole report (stable field order, deterministic
    /// float formatting — same run, byte-identical document).
    pub fn to_json(&self) -> String {
        // A non-default data policy adds its fields; the default emits
        // the exact legacy byte layout (perf fingerprints pin it).
        let extended = self.data_policy.is_some();
        let epochs = array(
            Compact,
            self.epochs.iter().map(|e| {
                let mut o = JsonObject::new(Compact)
                    .u64("epoch", e.epoch as u64)
                    .f64("offered_mbps", e.offered_mbps)
                    .f64("delivered_mbps", e.delivered_mbps)
                    .f64("delivery_ratio", e.delivery_ratio)
                    .f64("p50_latency_ms", e.p50_latency_ms)
                    .f64("p99_latency_ms", e.p99_latency_ms)
                    .f64("mean_stretch", e.mean_stretch)
                    .u64("rewirings", e.rewirings as u64)
                    .u64("alive", e.alive as u64);
                if extended {
                    o = o.u64("route_changes", e.route_changes as u64);
                }
                o.finish()
            }),
        );
        let mut summary = JsonObject::new(Compact)
            .f64("offered_mbps", self.summary.offered_mbps)
            .f64("delivered_mbps", self.summary.delivered_mbps)
            .f64("delivery_ratio", self.summary.delivery_ratio)
            .f64("p50_latency_ms", self.summary.p50_latency_ms)
            .f64("p99_latency_ms", self.summary.p99_latency_ms)
            .f64("mean_stretch", self.summary.mean_stretch)
            .f64("mean_rewirings", self.summary.mean_rewirings)
            .u64("flows_measured", self.summary.flows_measured as u64);
        if extended {
            summary = summary.u64("route_changes", self.summary.route_changes as u64);
        }
        let mut top = JsonObject::new(Compact)
            .str("config", &self.config_label)
            .str("workload", &self.workload);
        if let Some(dp) = &self.data_policy {
            top = top.str("data_policy", dp);
        }
        top.u64("seed", self.seed)
            .bool("closed_loop", self.closed_loop)
            .u64("warmup_epochs", self.warmup_epochs as u64)
            .raw("summary", summary.finish())
            .raw("epochs", epochs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Flow;
    use crate::router::RoutedFlow;
    use egoist_graph::NodeId;

    fn outcome(latencies: &[f64]) -> RouteOutcome {
        let flows: Vec<RoutedFlow> = latencies
            .iter()
            .map(|&l| RoutedFlow {
                flow: Flow {
                    src: NodeId(0),
                    dst: NodeId(1),
                    rate_mbps: 1.0,
                },
                delivered_mbps: 1.0,
                latency_ms: l,
                stretch: 1.5,
                paths_used: 1,
            })
            .collect();
        let n = latencies.len() as f64;
        RouteOutcome {
            flows,
            offered_mbps: n,
            delivered_mbps: n,
            consumed: vec![0.0; 4],
            forwarded: vec![0.0; 2],
            route_changes: 0,
        }
    }

    fn sample(epoch: usize) -> egoist_core::sim::EpochSample {
        egoist_core::sim::EpochSample {
            epoch,
            individual_cost: vec![1.0, 1.0],
            efficiency: vec![0.5, 0.5],
            bandwidth_utility: vec![f64::NAN, f64::NAN],
            rewirings: 1,
            alive: 2,
        }
    }

    /// `stats::percentile` as it was: filter, full sort, interpolate.
    fn sorted_percentile(xs: &[f64], q: f64) -> f64 {
        let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_by(f64::total_cmp);
        let pos = (q / 100.0) * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        if lo == hi {
            v[lo]
        } else {
            let frac = pos - lo as f64;
            v[lo] * (1.0 - frac) + v[hi] * frac
        }
    }

    /// The report as it was before `record` became linear, kept as the
    /// oracle: every epoch's raw latency and stretch vectors stay alive,
    /// and every call re-pools and fully sorts all steady epochs.
    struct SortedReport {
        warmup_epochs: usize,
        /// Per epoch: the public record, its latencies, its stretches.
        epochs: Vec<(EpochTraffic, Vec<f64>, Vec<f64>)>,
        summary: TrafficSummary,
    }

    impl SortedReport {
        fn record(&mut self, outcome: &RouteOutcome, sample: &EpochSample) {
            let delivered = || outcome.flows.iter().filter(|f| f.delivered_mbps > 0.0);
            let latencies: Vec<f64> = delivered().map(|f| f.latency_ms).collect();
            let stretches: Vec<f64> = delivered()
                .map(|f| f.stretch)
                .filter(|s| s.is_finite())
                .collect();
            let epoch = EpochTraffic {
                epoch: sample.epoch,
                offered_mbps: outcome.offered_mbps,
                delivered_mbps: outcome.delivered_mbps,
                delivery_ratio: outcome.delivery_ratio(),
                p50_latency_ms: sorted_percentile(&latencies, 50.0),
                p99_latency_ms: sorted_percentile(&latencies, 99.0),
                mean_stretch: stats::mean(&stretches),
                rewirings: sample.rewirings,
                alive: sample.alive,
                route_changes: outcome.route_changes,
            };
            self.epochs.push((epoch, latencies, stretches));

            let warmup = self.warmup_epochs;
            let steady = || self.epochs.iter().filter(move |(e, ..)| e.epoch >= warmup);
            let offered: Vec<f64> = steady().map(|(e, ..)| e.offered_mbps).collect();
            let delivered: Vec<f64> = steady().map(|(e, ..)| e.delivered_mbps).collect();
            let all_lat: Vec<f64> = steady().flat_map(|(_, l, _)| l.iter().copied()).collect();
            let all_stretch: Vec<f64> = steady().flat_map(|(.., s)| s.iter().copied()).collect();
            let rewirings: Vec<f64> = steady().map(|(e, ..)| e.rewirings as f64).collect();
            let (offered_mean, delivered_mean) = (stats::mean(&offered), stats::mean(&delivered));
            self.summary = TrafficSummary {
                offered_mbps: offered_mean,
                delivered_mbps: delivered_mean,
                delivery_ratio: if offered_mean > 0.0 {
                    delivered_mean / offered_mean
                } else {
                    1.0
                },
                p50_latency_ms: sorted_percentile(&all_lat, 50.0),
                p99_latency_ms: sorted_percentile(&all_lat, 99.0),
                mean_stretch: stats::mean(&all_stretch),
                mean_rewirings: stats::mean(&rewirings),
                flows_measured: all_lat.len(),
                route_changes: steady().map(|(e, ..)| e.route_changes).sum(),
            };
        }
    }

    fn epoch_bits(e: &EpochTraffic) -> [u64; 10] {
        [
            e.epoch as u64,
            e.offered_mbps.to_bits(),
            e.delivered_mbps.to_bits(),
            e.delivery_ratio.to_bits(),
            e.p50_latency_ms.to_bits(),
            e.p99_latency_ms.to_bits(),
            e.mean_stretch.to_bits(),
            e.rewirings as u64,
            e.alive as u64,
            e.route_changes as u64,
        ]
    }

    fn summary_bits(s: &TrafficSummary) -> [u64; 9] {
        [
            s.offered_mbps.to_bits(),
            s.delivered_mbps.to_bits(),
            s.delivery_ratio.to_bits(),
            s.p50_latency_ms.to_bits(),
            s.p99_latency_ms.to_bits(),
            s.mean_stretch.to_bits(),
            s.mean_rewirings.to_bits(),
            s.flows_measured as u64,
            s.route_changes as u64,
        ]
    }

    proptest::proptest! {
        /// Selection, the pooled buffer and the running stretch sum give,
        /// after every call, bit for bit what re-pooling and sorting gave:
        /// undelivered flows, non-finite latencies, NaN stretches, empty
        /// epochs, epochs on either side of the warmup boundary, recorded
        /// in any order and more than once.
        #[test]
        fn record_matches_the_sort_based_report(
            warmup in 0usize..4,
            epochs in proptest::collection::vec(
                (
                    0usize..6,
                    proptest::collection::vec((0u32..4, 0.0f64..500.0, 0u32..12, 1.0f64..5.0), 0..24),
                    0usize..3,
                ),
                1..9,
            ),
        ) {
            let mut report = TrafficReport::new("BR".into(), "uniform".into(), 1, true, warmup);
            let mut oracle = SortedReport {
                warmup_epochs: warmup,
                epochs: Vec::new(),
                summary: TrafficSummary::default(),
            };
            for (epoch, flows, route_changes) in epochs {
                let latencies: Vec<f64> = flows.iter().map(|f| f.1).collect();
                let mut o = outcome(&latencies);
                o.route_changes = route_changes;
                for (routed, &(delivered, latency, odd, stretch)) in o.flows.iter_mut().zip(&flows) {
                    routed.delivered_mbps = delivered.min(1) as f64 * 0.5;
                    routed.latency_ms = match odd {
                        0 => f64::INFINITY,
                        1 => (latency / 25.0).floor(), // ties
                        _ => latency,
                    };
                    routed.stretch = if odd % 3 == 2 { f64::NAN } else { stretch };
                }
                o.delivered_mbps = o.flows.iter().map(|f| f.delivered_mbps).sum();
                report.record(&o, &sample(epoch));
                oracle.record(&o, &sample(epoch));
                let got: Vec<_> = report.epochs.iter().map(epoch_bits).collect();
                let want: Vec<_> = oracle.epochs.iter().map(|(e, ..)| epoch_bits(e)).collect();
                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert_eq!(summary_bits(&report.summary), summary_bits(&oracle.summary));
            }
        }
    }

    #[test]
    fn summary_skips_warmup_and_pools_flows() {
        let mut r = TrafficReport::new("BR".into(), "uniform".into(), 1, true, 1);
        r.record(&outcome(&[100.0, 100.0]), &sample(0)); // warmup
        r.record(&outcome(&[10.0, 20.0]), &sample(1));
        r.record(&outcome(&[30.0, 40.0]), &sample(2));
        assert_eq!(r.summary.flows_measured, 4);
        assert!((r.summary.p50_latency_ms - 25.0).abs() < 1e-9);
        assert!((r.summary.delivery_ratio - 1.0).abs() < 1e-9);
        assert!((r.summary.mean_stretch - 1.5).abs() < 1e-9);
    }

    #[test]
    fn json_is_stable_and_contains_sections() {
        let mut r = TrafficReport::new("BR".into(), "cdn".into(), 7, false, 0);
        r.record(&outcome(&[5.0]), &sample(0));
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"workload\":\"cdn\""));
        assert!(a.contains("\"summary\":{"));
        assert!(a.contains("\"epochs\":[{"));
        assert!(a.contains("\"closed_loop\":false"));
    }

    #[test]
    fn data_policy_fields_only_appear_when_set() {
        let mut legacy = TrafficReport::new("BR".into(), "uniform".into(), 1, true, 0);
        legacy.record(&outcome(&[5.0]), &sample(0));
        let legacy_json = legacy.to_json();
        assert!(!legacy_json.contains("data_policy"));
        assert!(!legacy_json.contains("route_changes"));

        let mut ext = legacy.clone();
        ext.data_policy = Some("delay-aware".to_string());
        let ext_json = ext.to_json();
        assert!(ext_json.contains("\"data_policy\":\"delay-aware\""));
        assert!(ext_json.contains("\"route_changes\":0"));
        // The legacy serialization is a strict byte-subsequence concern:
        // removing the new fields must give back the old document.
        ext.data_policy = None;
        assert_eq!(ext.to_json(), legacy_json);
    }

    #[test]
    fn empty_epoch_yields_nan_latency_null_json() {
        let mut r = TrafficReport::new("BR".into(), "uniform".into(), 1, true, 0);
        let mut o = outcome(&[]);
        o.offered_mbps = 0.0;
        o.delivered_mbps = 0.0;
        r.record(&o, &sample(0));
        assert!(r.summary.p99_latency_ms.is_nan());
        assert!(r.to_json().contains("\"p99_latency_ms\":null"));
    }
}
