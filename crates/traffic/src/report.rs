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
use std::cmp::Ordering;

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
    /// The finite latencies of every flow delivered in a steady epoch,
    /// pooled as runs (the summary takes percentiles over flows, not over
    /// epoch aggregates): `(value, count)` in [`f64::total_cmp`] order,
    /// one per distinct bit pattern.
    steady_latency_runs: Vec<(f64, u64)>,
    /// Flows delivered in steady epochs, non-finite latencies included.
    steady_flows: usize,
    /// Scratch: this epoch's latency counts, then its sorted runs. Kept
    /// so no call regrows them.
    counts: LatencyCounts,
    epoch_runs: Vec<(f64, u64)>,
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

/// Merge `runs` into `pool`, both in [`f64::total_cmp`] order with one
/// run per bit pattern; equal patterns' counts add. In place, from the
/// back: the pool grows by exactly `runs.len()` slots and shrinks again
/// by one per pattern the two shared.
fn merge_runs(pool: &mut Vec<(f64, u64)>, runs: &[(f64, u64)]) {
    let (mut i, mut j) = (pool.len(), runs.len());
    pool.reserve_exact(j);
    pool.resize(i + j, (0.0, 0));
    // Slots from `w` on are merged; `w ≥ i + j`, so no write lands on a
    // pool run not yet read.
    let mut w = pool.len();
    while j > 0 {
        w -= 1;
        let next = runs[j - 1];
        pool[w] = match (i > 0).then(|| pool[i - 1].0.total_cmp(&next.0)) {
            Some(Ordering::Greater) => {
                i -= 1;
                pool[i]
            }
            Some(Ordering::Equal) => {
                i -= 1;
                j -= 1;
                (next.0, pool[i].1 + next.1)
            }
            _ => {
                j -= 1;
                next
            }
        };
    }
    // The pool's unmerged head stays put; close the gap after it.
    let len = pool.len();
    pool.copy_within(w..len, i);
    pool.truncate(i + len - w);
}

/// A counting table over finite `f64` bit patterns: power-of-two open
/// addressing, a multiplicative hash and linear probing. A vacant slot
/// holds [`LatencyCounts::VACANT`], a NaN pattern, which no finite value
/// has. Draining leaves the slots vacant but allocated, so a report's
/// table grows to its largest epoch once.
#[derive(Clone, Debug, Default)]
struct LatencyCounts {
    /// `(bits, count)` per slot.
    slots: Vec<(u64, u64)>,
    /// Occupied slots.
    len: usize,
    /// `64 − log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl LatencyCounts {
    const VACANT: u64 = u64::MAX;
    const MIN_SLOTS: usize = 16;

    fn slot(&self, bits: u64) -> usize {
        (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Count one more `bits` (a finite value's pattern).
    fn add(&mut self, bits: u64) {
        // At most half full: probes stay short (three quarters cost a
        // fifth more time per flow on `traffic_mix_n150`).
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.slot(bits);
        loop {
            let (key, count) = &mut self.slots[i];
            if *key == bits {
                *count += 1;
                return;
            }
            if *key == Self::VACANT {
                (*key, *count) = (bits, 1);
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(Self::MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![(Self::VACANT, 0); size]);
        self.shift = 64 - size.trailing_zeros();
        let mask = size - 1;
        for (bits, count) in old.into_iter().filter(|&(bits, _)| bits != Self::VACANT) {
            let mut i = self.slot(bits);
            while self.slots[i].0 != Self::VACANT {
                i = (i + 1) & mask;
            }
            self.slots[i] = (bits, count);
        }
    }

    /// Move the counts into `runs`, sorted by [`f64::total_cmp`], and
    /// leave the table empty.
    fn drain_sorted(&mut self, runs: &mut Vec<(f64, u64)>) {
        runs.clear();
        for slot in self.slots.iter_mut().filter(|s| s.0 != Self::VACANT) {
            runs.push((f64::from_bits(slot.0), slot.1));
            *slot = (Self::VACANT, 0);
        }
        self.len = 0;
        runs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
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
            steady_latency_runs: Vec::new(),
            steady_flows: 0,
            counts: LatencyCounts::default(),
            epoch_runs: Vec::new(),
            steady_stretch: (0.0, 0),
        }
    }

    /// Record one epoch's routing outcome and control-plane sample: one
    /// pass over the flows into a counting table, percentiles read off
    /// the sorted runs (O(distinct latencies), not O(flows)).
    pub fn record(&mut self, outcome: &RouteOutcome, sample: &EpochSample) {
        let steady = sample.epoch >= self.warmup_epochs;
        let mut stretch = (0.0, 0);
        let mut delivered_flows = 0;
        for f in outcome.flows.iter().filter(|f| f.delivered_mbps > 0.0) {
            delivered_flows += 1;
            if f.latency_ms.is_finite() {
                self.counts.add(f.latency_ms.to_bits());
            }
            if f.stretch.is_finite() {
                stretch = (stretch.0 + f.stretch, stretch.1 + 1);
                if steady {
                    self.steady_stretch.0 += f.stretch;
                    self.steady_stretch.1 += 1;
                }
            }
        }
        self.counts.drain_sorted(&mut self.epoch_runs);
        let latency = stats::percentiles(&self.epoch_runs, [50.0, 99.0]);
        if steady {
            self.steady_flows += delivered_flows;
            merge_runs(&mut self.steady_latency_runs, &self.epoch_runs);
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
        let latency = stats::percentiles(&self.steady_latency_runs, [50.0, 99.0]);
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
            flows_measured: self.steady_flows,
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

    /// Latencies that repeat: both zeros, the least subnormal, the
    /// greatest finite value and a few plain ones.
    const FEW: [f64; 7] = [-0.0, 0.0, 5e-324, f64::MAX, 2.5, 7.0, 120.25];

    proptest::proptest! {
        /// Counted runs, the pooled runs and the running stretch sum give,
        /// after every call, bit for bit what re-pooling and sorting gave:
        /// undelivered flows, non-finite latencies, repeated and signed-zero
        /// latencies, NaN stretches, empty epochs, epochs on either side of
        /// the warmup boundary, recorded in any order and more than once.
        #[test]
        fn record_matches_the_sort_based_report(
            warmup in 0usize..4,
            epochs in proptest::collection::vec(
                (
                    0usize..6,
                    proptest::collection::vec((0u32..4, 0.0f64..500.0, 0u32..14, 1.0f64..5.0), 0..24),
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
                        1 => f64::NEG_INFINITY,
                        2 => f64::NAN,
                        // A small value set: runs repeat within and across
                        // epochs, signed zeros and extremes among them.
                        3..=7 => FEW[latency as usize % FEW.len()],
                        8 | 9 => (latency / 25.0).floor(), // ties
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
    fn repeated_latencies_pool_as_one_run_each() {
        let mut r = TrafficReport::new("BR".into(), "uniform".into(), 1, true, 0);
        let latencies: Vec<f64> = (0..100_000).map(|i| 10.0 + (i % 10) as f64).collect();
        r.record(&outcome(&latencies), &sample(0));
        assert_eq!(r.epoch_runs.len(), 10);
        assert_eq!(r.steady_latency_runs.len(), 10);
        assert!(r
            .steady_latency_runs
            .iter()
            .all(|&(_, count)| count == 10_000));
        assert_eq!(r.summary.flows_measured, 100_000);
        // A second epoch over the same values adds to the same runs.
        r.record(&outcome(&latencies), &sample(1));
        assert_eq!(r.steady_latency_runs.len(), 10);
        assert_eq!(r.summary.flows_measured, 200_000);
        assert_eq!(r.summary.p50_latency_ms, 14.5);
    }

    #[test]
    fn colliding_keys_and_growth_count_exactly() {
        let mut table = LatencyCounts::default();
        table.grow();
        let first = table.slots.len();
        // Finite patterns that all hash to the first table's slot 0 …
        let colliding: Vec<u64> = (0..1u64 << 20)
            .map(|i| (i as f64 * 0.125).to_bits())
            .filter(|&bits| table.slot(bits) == 0)
            .take(6)
            .collect();
        assert_eq!(colliding.len(), 6);
        // … counted 1..=6 times each, interleaved with enough distinct
        // values to grow the table several times.
        let mut want = std::collections::BTreeMap::new();
        for round in 0..6 {
            for &bits in colliding.iter().skip(round) {
                table.add(bits);
                *want.entry(bits).or_insert(0u64) += 1;
            }
            for v in 0..40 {
                let bits = (1000.0 + (round * 40 + v) as f64).to_bits();
                table.add(bits);
                *want.entry(bits).or_insert(0u64) += 1;
            }
        }
        assert!(table.slots.len() >= 16 * first);
        let mut runs = Vec::new();
        table.drain_sorted(&mut runs);
        let got: Vec<(u64, u64)> = runs.iter().map(|&(v, c)| (v.to_bits(), c)).collect();
        let mut want: Vec<(u64, u64)> = want.into_iter().collect();
        want.sort_by(|a, b| f64::from_bits(a.0).total_cmp(&f64::from_bits(b.0)));
        assert_eq!(got, want);
        assert!(table
            .slots
            .iter()
            .all(|&(bits, _)| bits == LatencyCounts::VACANT));
        // Drained, the table keeps its size and counts afresh.
        table.add(colliding[0]);
        table.drain_sorted(&mut runs);
        assert_eq!(runs, vec![(f64::from_bits(colliding[0]), 1)]);
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
