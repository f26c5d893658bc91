//! Per-destination fluid queues — the state backpressure routing runs on.
//!
//! Each node holds one queue per destination (a *commodity* in the
//! backpressure literature). Traffic is modeled as fluid: a queue cell
//! stores the backlog volume plus two mass accumulators that travel
//! with the fluid — accrued latency mass (ms · Mbps, waiting time plus
//! per-hop propagation/processing) and propagation-only mass (for path
//! stretch). Moving fluid carries a proportional share of both masses,
//! so the mean latency of whatever finally drains at the destination is
//! exact under the fluid approximation, with no per-packet state.
//!
//! All operations are plain f64 arithmetic over dense `n × n` arrays in
//! fixed index order — two same-seed runs produce bit-identical queues.

use crate::demand::Flow;
use egoist_graph::NodeId;

/// Fluid in motion: a withdrawn parcel and the mass it carries.
#[derive(Clone, Copy, Debug, Default)]
pub struct Parcel {
    /// Volume (Mbps-equivalents of this epoch).
    pub amount: f64,
    /// Accrued latency mass (ms · volume): waiting + hops so far.
    pub lat_mass: f64,
    /// Propagation-only mass (ms · volume).
    pub prop_mass: f64,
}

impl Parcel {
    /// Charge a per-unit hop cost onto the parcel (link traversal).
    pub fn charge_hop(&mut self, latency_ms: f64, prop_ms: f64) {
        self.lat_mass += self.amount * latency_ms;
        self.prop_mass += self.amount * prop_ms;
    }
}

/// Dense per-(node, destination) fluid queues.
#[derive(Clone, Debug)]
pub struct QueueBank {
    n: usize,
    backlog: Vec<f64>,
    lat_mass: Vec<f64>,
    prop_mass: Vec<f64>,
}

impl QueueBank {
    pub fn new(n: usize) -> Self {
        QueueBank {
            n,
            backlog: vec![0.0; n * n],
            lat_mass: vec![0.0; n * n],
            prop_mass: vec![0.0; n * n],
        }
    }

    #[inline]
    fn idx(&self, node: NodeId, dest: NodeId) -> usize {
        node.index() * self.n + dest.index()
    }

    /// Backlog of commodity `dest` queued at `node`.
    pub fn backlog(&self, node: NodeId, dest: NodeId) -> f64 {
        self.backlog[self.idx(node, dest)]
    }

    /// Every commodity's backlog at `node`, indexed by destination.
    pub(crate) fn backlog_row(&self, node: NodeId) -> &[f64] {
        let base = node.index() * self.n;
        &self.backlog[base..base + self.n]
    }

    /// Total queued volume at `node` across all commodities.
    pub fn node_depth(&self, node: NodeId) -> f64 {
        let base = node.index() * self.n;
        self.backlog[base..base + self.n].iter().sum()
    }

    /// Total queued volume across the whole bank.
    pub fn total_backlog(&self) -> f64 {
        self.backlog.iter().sum()
    }

    /// Inject fresh source traffic (zero accrued mass).
    pub fn inject(&mut self, node: NodeId, dest: NodeId, amount: f64) {
        let i = self.idx(node, dest);
        self.backlog[i] += amount;
    }

    /// One slot of source injection: every cell gets its terms added in
    /// flow order, as [`QueueBank::inject`] per flow would, but one cell
    /// at a time with the backlog held in a register.
    pub(crate) fn inject_runs(&mut self, runs: &InjectionRuns) {
        let mut lo = 0;
        for &(cell, hi) in &runs.cells {
            let mut backlog = self.backlog[cell as usize];
            for &(term, count) in &runs.runs[lo..hi as usize] {
                for _ in 0..count {
                    backlog += term;
                }
            }
            self.backlog[cell as usize] = backlog;
            lo = hi as usize;
        }
    }

    /// Withdraw up to `amount` of commodity `dest` from `node`,
    /// carrying the proportional share of its accrued mass.
    pub fn withdraw(&mut self, node: NodeId, dest: NodeId, amount: f64) -> Parcel {
        let i = self.idx(node, dest);
        let have = self.backlog[i];
        if have <= 0.0 || amount <= 0.0 {
            return Parcel::default();
        }
        if amount >= have {
            // Drain the cell exactly — no residue from float division.
            let p = Parcel {
                amount: have,
                lat_mass: self.lat_mass[i],
                prop_mass: self.prop_mass[i],
            };
            self.backlog[i] = 0.0;
            self.lat_mass[i] = 0.0;
            self.prop_mass[i] = 0.0;
            return p;
        }
        let share = amount / have;
        let p = Parcel {
            amount,
            lat_mass: self.lat_mass[i] * share,
            prop_mass: self.prop_mass[i] * share,
        };
        self.backlog[i] -= amount;
        self.lat_mass[i] -= p.lat_mass;
        self.prop_mass[i] -= p.prop_mass;
        p
    }

    /// Deposit a parcel into `node`'s queue for `dest`.
    pub fn deposit(&mut self, node: NodeId, dest: NodeId, p: Parcel) {
        let i = self.idx(node, dest);
        self.backlog[i] += p.amount;
        self.lat_mass[i] += p.lat_mass;
        self.prop_mass[i] += p.prop_mass;
    }

    /// One slot of waiting: every queued unit accrues `slot_ms` of
    /// latency (propagation mass is untouched — waiting is not distance).
    pub fn age(&mut self, slot_ms: f64) {
        for i in 0..self.backlog.len() {
            if self.backlog[i] > 0.0 {
                self.lat_mass[i] += self.backlog[i] * slot_ms;
            }
        }
    }
}

/// One epoch's source injection grouped by queue cell: per
/// `(src, dst)` cell, the per-slot terms `rate / slots` of its flows in
/// flow order, run-length encoded. Cells do not interact while fluid is
/// injected, and a cell receives the same terms in the same order every
/// slot, so replaying the runs cell by cell adds exactly what the
/// per-flow loop added.
#[derive(Debug, Default)]
pub(crate) struct InjectionRuns {
    /// Per cell with flows, ascending: its index and the end of its runs.
    cells: Vec<(u32, u32)>,
    /// `(term, repeats)`: consecutive bit-equal terms of one cell.
    runs: Vec<(f64, u32)>,
}

impl InjectionRuns {
    /// Group `flows` of an `n`-node epoch split into `slots` slots.
    pub(crate) fn new(n: usize, flows: &[Flow], slots: usize) -> Self {
        const NONE: u32 = u32::MAX;
        // One pass in flow order: a flow extends its cell's last run or
        // starts a new one, linked after it (`(term, repeats, next)`).
        let (mut head, mut tail) = (vec![NONE; n * n], vec![NONE; n * n]);
        let mut linked: Vec<(f64, u32, u32)> = Vec::new();
        for f in flows {
            let (cell, term) = (
                f.src.index() * n + f.dst.index(),
                f.rate_mbps / slots as f64,
            );
            let last = tail[cell];
            match linked.get_mut(last as usize) {
                Some((t, k, _)) if t.to_bits() == term.to_bits() => *k += 1,
                _ => {
                    let at = linked.len() as u32;
                    linked.push((term, 1, NONE));
                    match linked.get_mut(last as usize) {
                        Some((_, _, next)) => *next = at,
                        None => head[cell] = at,
                    }
                    tail[cell] = at;
                }
            }
        }
        // Flatten, cells ascending.
        let mut out = InjectionRuns {
            cells: Vec::new(),
            runs: Vec::with_capacity(linked.len()),
        };
        for (cell, &first) in head.iter().enumerate() {
            let mut at = first;
            while let Some(&(term, repeats, next)) = linked.get(at as usize) {
                out.runs.push((term, repeats));
                at = next;
            }
            if first != NONE {
                out.cells.push((cell as u32, out.runs.len() as u32));
            }
        }
        out
    }
}

#[cfg(test)]
impl QueueBank {
    /// Every accumulator's bits, for bit-equality checks.
    pub(crate) fn bits(&self) -> Vec<u64> {
        let all = self
            .backlog
            .iter()
            .chain(&self.lat_mass)
            .chain(&self.prop_mass);
        all.map(|v| v.to_bits()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn withdraw_carries_proportional_mass() {
        let mut q = QueueBank::new(4);
        q.inject(NodeId(0), NodeId(3), 10.0);
        q.age(2.0); // 10 units wait 2 ms → 20 ms·unit of mass
        let p = q.withdraw(NodeId(0), NodeId(3), 4.0);
        assert!((p.amount - 4.0).abs() < 1e-12);
        assert!((p.lat_mass - 8.0).abs() < 1e-12, "{}", p.lat_mass);
        assert!((q.backlog(NodeId(0), NodeId(3)) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn full_withdraw_drains_exactly() {
        let mut q = QueueBank::new(3);
        q.inject(NodeId(1), NodeId(2), 7.5);
        q.age(1.0);
        let p = q.withdraw(NodeId(1), NodeId(2), 100.0);
        assert_eq!(p.amount, 7.5);
        assert_eq!(q.backlog(NodeId(1), NodeId(2)), 0.0);
        assert_eq!(q.total_backlog(), 0.0);
    }

    #[test]
    fn transfer_conserves_volume_and_mass() {
        let mut q = QueueBank::new(3);
        q.inject(NodeId(0), NodeId(2), 8.0);
        q.age(3.0);
        let before_mass = 8.0 * 3.0;
        let mut p = q.withdraw(NodeId(0), NodeId(2), 5.0);
        p.charge_hop(4.0, 4.0); // 5 units × 4 ms hop
        q.deposit(NodeId(1), NodeId(2), p);
        assert!((q.total_backlog() - 8.0).abs() < 1e-12);
        let got = q.withdraw(NodeId(1), NodeId(2), 5.0);
        // 5/8 of the waiting mass plus the hop charge.
        let want = before_mass * 5.0 / 8.0 + 5.0 * 4.0;
        assert!(
            (got.lat_mass - want).abs() < 1e-9,
            "{} vs {want}",
            got.lat_mass
        );
        assert!((got.prop_mass - 20.0).abs() < 1e-9);
    }

    #[test]
    fn node_depth_sums_commodities() {
        let mut q = QueueBank::new(4);
        q.inject(NodeId(2), NodeId(0), 1.5);
        q.inject(NodeId(2), NodeId(3), 2.5);
        assert!((q.node_depth(NodeId(2)) - 4.0).abs() < 1e-12);
    }
}
