//! Protocol overhead accounting (§4.3).
//!
//! The paper works out EGOIST's injected traffic analytically:
//!
//! * active ping measurement: `≈ (n − k − 1) · 320 / T` bps per node
//!   (candidates only — established links are measured "by virtue of
//!   use");
//! * pyxida (coordinate query): `≈ (320 + 32n) / T` bps per node;
//! * link-state protocol: `≈ (192 + 32k) / T_announce` bps per node.
//!
//! [`OverheadCounters`] measures what a node actually sent per message
//! class: a `Copy` table of `(frames, bytes)` per class, which the node
//! publishes into its view by assignment and the fleet report sums with
//! `+=`. [`analytic`] evaluates the formulas with either the paper's
//! frame sizes or ours, so the bench can print both side by side.

use crate::message::MessageClass;
use std::ops::AddAssign;

/// `(frames, bytes)` sent per message class, indexed by
/// [`MessageClass::slot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverheadCounters {
    per_class: [(u64, u64); MessageClass::ALL.len()],
}

impl OverheadCounters {
    /// Record one sent frame.
    pub fn record(&mut self, class: MessageClass, len: usize) {
        let (frames, bytes) = &mut self.per_class[class.slot()];
        *frames += 1;
        *bytes += len as u64;
    }

    /// Frames sent in a class.
    pub fn frames(&self, class: MessageClass) -> u64 {
        self.per_class[class.slot()].0
    }

    /// Bytes sent in a class.
    pub fn bytes(&self, class: MessageClass) -> u64 {
        self.per_class[class.slot()].1
    }

    /// Average sending rate of a class in bits per second over a window.
    pub fn bps(&self, class: MessageClass, window_secs: f64) -> f64 {
        if window_secs <= 0.0 {
            return 0.0;
        }
        self.bytes(class) as f64 * 8.0 / window_secs
    }
}

impl AddAssign for OverheadCounters {
    fn add_assign(&mut self, rhs: Self) {
        for (mine, theirs) in self.per_class.iter_mut().zip(rhs.per_class) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
    }
}

/// The §4.3 analytic formulas.
pub mod analytic {
    /// Paper's ICMP echo size in bits.
    pub const PAPER_PING_BITS: f64 = 320.0;
    /// Paper's LSA header+padding bits.
    pub const PAPER_LSA_HEADER_BITS: f64 = 192.0;
    /// Paper's per-neighbor LSA payload bits.
    pub const PAPER_LSA_ENTRY_BITS: f64 = 32.0;

    /// Active ping measurement load, bps per node:
    /// `(n − k − 1) · ping_bits / T`.
    pub fn ping_bps(n: usize, k: usize, t_epoch: f64, ping_bits: f64) -> f64 {
        (n.saturating_sub(k + 1)) as f64 * ping_bits / t_epoch
    }

    /// pyxida (coordinate-system query) load, bps per node:
    /// `(320 + 32 n) / T`.
    pub fn pyxida_bps(n: usize, t_epoch: f64) -> f64 {
        (320.0 + 32.0 * n as f64) / t_epoch
    }

    /// Link-state protocol load, bps per node:
    /// `(header + entry · k) / T_announce`.
    pub fn lsa_bps(k: usize, t_announce: f64, header_bits: f64, entry_bits: f64) -> f64 {
        (header_bits + entry_bits * k as f64) / t_announce
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut c = OverheadCounters::default();
        c.record(MessageClass::Measurement, 52);
        c.record(MessageClass::Measurement, 52);
        c.record(MessageClass::LinkState, 40);
        assert_eq!(c.frames(MessageClass::Measurement), 2);
        assert_eq!(c.bytes(MessageClass::Measurement), 104);
        assert_eq!(c.bytes(MessageClass::LinkState), 40);
        let mut sum = c;
        sum += c;
        assert_eq!(sum.frames(MessageClass::Measurement), 4);
        assert_eq!(sum.bytes(MessageClass::LinkState), 80);
    }

    #[test]
    fn bps_math() {
        let mut c = OverheadCounters::default();
        c.record(MessageClass::LinkState, 100); // 800 bits
        assert!((c.bps(MessageClass::LinkState, 10.0) - 80.0).abs() < 1e-9);
        assert_eq!(c.bps(MessageClass::LinkState, 0.0), 0.0);
    }

    #[test]
    fn paper_numbers_for_50_nodes() {
        // n=50, k=5, T=60: ping ≈ 44·320/60 ≈ 234.7 bps.
        let p = analytic::ping_bps(50, 5, 60.0, analytic::PAPER_PING_BITS);
        assert!((p - 44.0 * 320.0 / 60.0).abs() < 1e-9);
        // pyxida ≈ (320 + 1600)/60 = 32 bps.
        let x = analytic::pyxida_bps(50, 60.0);
        assert!((x - 32.0).abs() < 1e-9);
        // LSA at T_announce=20, k=5: (192+160)/20 = 17.6 bps.
        let l = analytic::lsa_bps(
            5,
            20.0,
            analytic::PAPER_LSA_HEADER_BITS,
            analytic::PAPER_LSA_ENTRY_BITS,
        );
        assert!((l - 17.6).abs() < 1e-9);
    }

    #[test]
    fn pyxida_is_cheaper_than_ping_at_scale() {
        // The paper's point: coordinates beat O(n) pings per epoch.
        for n in [50usize, 100, 295] {
            let ping = analytic::ping_bps(n, 5, 60.0, analytic::PAPER_PING_BITS);
            let pyx = analytic::pyxida_bps(n, 60.0);
            assert!(pyx < ping, "n={n}: pyxida {pyx} !< ping {ping}");
        }
    }
}
