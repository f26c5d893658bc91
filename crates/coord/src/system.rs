//! A gossiping population of Vivaldi nodes.
//!
//! Reproduces the pyxida deployment model: every node keeps a Vivaldi
//! coordinate, periodically samples the RTT to a few random peers, and any
//! node can ask the system for predicted distances to all other nodes with
//! a single query (§4.1, §4.3: one request/reply per wiring epoch,
//! ≈ `(320 + 32n)/T` bps).

use crate::{Coord, VivaldiNode};
use egoist_graph::DistanceMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A simulated coordinate system over `n` nodes.
#[derive(Debug)]
pub struct CoordinateSystem {
    nodes: Vec<VivaldiNode>,
    rng: StdRng,
    /// Gossip fan-out per round (peers sampled by each node).
    pub fanout: usize,
}

impl CoordinateSystem {
    /// Fresh system with all nodes at the origin.
    pub fn new(n: usize, seed: u64) -> Self {
        CoordinateSystem {
            nodes: vec![VivaldiNode::default(); n],
            rng: StdRng::seed_from_u64(seed ^ 0xC00D),
            fanout: 4,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Run one gossip round: each node measures `fanout` random peers.
    /// `true_delay(i, j)` must return the current one-way delay (ms); it is
    /// called once per sampled ordered pair. The coordinate update then
    /// uses the *round trip* halved, as EGOIST's ping mode does.
    pub fn gossip_round(&mut self, mut true_delay: impl FnMut(usize, usize) -> f64) {
        let n = self.nodes.len();
        if n < 2 {
            return;
        }
        for i in 0..n {
            for _ in 0..self.fanout {
                let j = loop {
                    let j = self.rng.random_range(0..n);
                    if j != i {
                        break j;
                    }
                };
                let owd = 0.5 * (true_delay(i, j) + true_delay(j, i));
                let (peer_coord, peer_error) = (self.nodes[j].coord, self.nodes[j].error);
                self.nodes[i].observe(&peer_coord, peer_error, owd);
            }
        }
    }

    /// Run `rounds` gossip rounds against a static delay matrix.
    pub fn converge(&mut self, delays: &DistanceMatrix, rounds: usize) {
        for _ in 0..rounds {
            self.gossip_round(|i, j| delays.at(i, j));
        }
    }

    /// Coordinate of node `i`.
    pub fn coord(&self, i: usize) -> Coord {
        self.nodes[i].coord
    }

    /// The pyxida query: predicted delays from `i` to every node
    /// (a single request/reply on the wire).
    pub fn query_all(&self, i: usize) -> Vec<f64> {
        let ci = self.nodes[i].coord;
        self.nodes
            .iter()
            .enumerate()
            .map(|(j, nj)| if i == j { 0.0 } else { ci.distance(&nj.coord) })
            .collect()
    }

    /// Full predicted distance matrix.
    pub fn predicted_matrix(&self) -> DistanceMatrix {
        let n = self.len();
        DistanceMatrix::from_fn(n, |i, j| self.nodes[i].coord.distance(&self.nodes[j].coord))
    }

    /// Median relative prediction error against a ground-truth matrix
    /// (symmetrized, since coordinates cannot express asymmetry).
    pub fn median_relative_error(&self, truth: &DistanceMatrix) -> f64 {
        let n = self.len();
        let mut errs = Vec::with_capacity(n * (n - 1));
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let t = 0.5 * (truth.at(i, j) + truth.at(j, i));
                if t <= 0.0 || !t.is_finite() {
                    continue;
                }
                let p = self.nodes[i].coord.distance(&self.nodes[j].coord);
                errs.push((p - t).abs() / t);
            }
        }
        if errs.is_empty() {
            return 0.0;
        }
        errs.sort_by(f64::total_cmp);
        errs[errs.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egoist_netsim::DelayModel;

    /// On a Euclidean-ish delay space Vivaldi must reach a usable embedding.
    #[test]
    fn converges_on_planetlab_like_space() {
        let model = DelayModel::planetlab_50(42);
        let truth = model.base().clone();
        let mut cs = CoordinateSystem::new(50, 42);
        cs.converge(&truth, 60);
        let err = cs.median_relative_error(&truth);
        assert!(
            err < 0.35,
            "median relative error after convergence: {err:.3}"
        );
    }

    #[test]
    fn more_rounds_reduce_error() {
        let model = DelayModel::planetlab_50(7);
        let truth = model.base().clone();
        let mut cs = CoordinateSystem::new(50, 7);
        cs.converge(&truth, 3);
        let early = cs.median_relative_error(&truth);
        cs.converge(&truth, 57);
        let late = cs.median_relative_error(&truth);
        assert!(
            late < early,
            "error should decrease: {early:.3} → {late:.3}"
        );
    }

    #[test]
    fn query_all_matches_pairwise_distance() {
        let model = DelayModel::planetlab_50(9);
        let mut cs = CoordinateSystem::new(50, 9);
        cs.converge(model.base(), 10);
        let q = cs.query_all(3);
        assert_eq!(q.len(), 50);
        assert_eq!(q[3], 0.0);
        for (j, &qj) in q.iter().enumerate() {
            if j != 3 {
                assert!((qj - cs.coord(3).distance(&cs.coord(j))).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn predicted_matrix_is_symmetric() {
        let model = DelayModel::planetlab_50(11);
        let mut cs = CoordinateSystem::new(50, 11);
        cs.converge(model.base(), 20);
        let p = cs.predicted_matrix();
        for i in 0..50 {
            for j in 0..50 {
                assert!((p.at(i, j) - p.at(j, i)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let model = DelayModel::planetlab_50(5);
        let run = |seed| {
            let mut cs = CoordinateSystem::new(50, seed);
            cs.converge(model.base(), 15);
            cs.query_all(0)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn tiny_systems_do_not_panic() {
        let mut cs = CoordinateSystem::new(1, 0);
        cs.gossip_round(|_, _| 1.0);
        assert_eq!(cs.query_all(0), vec![0.0]);
        let mut empty = CoordinateSystem::new(0, 0);
        empty.gossip_round(|_, _| 1.0);
        assert!(empty.is_empty());
    }
}
