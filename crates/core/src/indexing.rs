//! Static message-passing index built from a routing scheme.
//!
//! RouteNet's dynamic architecture is "assembled at runtime based on the
//! input graphs" (paper §2). [`PathTensors`] is that assembly: for each hop
//! position it lists which paths are still active and which link each of
//! them traverses, so the per-position GRU steps can run as dense batched
//! matrix ops with row gather/scatter.

use crate::sample::Scenario;
use routenet_netgraph::{NodeId, RoutingScheme};

/// Index data for one hop position `k`.
#[derive(Debug, Clone)]
pub struct PositionIndex {
    /// Paths whose length exceeds `k` (indices into canonical pair order).
    pub path_idx: Vec<usize>,
    /// For each active path, the link it traverses at position `k`.
    pub link_idx: Vec<usize>,
}

/// Message-passing index for one scenario.
#[derive(Debug, Clone)]
pub struct PathTensors {
    /// Number of paths (= routed pairs).
    pub n_paths: usize,
    /// Number of directed links.
    pub n_links: usize,
    /// Longest path length in links.
    pub max_len: usize,
    /// Per-position activity, `positions.len() == max_len`.
    pub positions: Vec<PositionIndex>,
    /// Length (hop count) of each path.
    pub path_len: Vec<usize>,
    /// Endpoints of each path, canonical order.
    pub pairs: Vec<(NodeId, NodeId)>,
}

impl PathTensors {
    /// Build the index from a scenario's routing.
    pub fn build(scenario: &Scenario) -> Self {
        Self::from_routing(&scenario.routing, scenario.graph.n_links())
    }

    /// Build from a routing scheme directly.
    pub fn from_routing(routing: &RoutingScheme, n_links: usize) -> Self {
        let mut pairs = Vec::with_capacity(routing.n_pairs());
        let mut path_len = Vec::with_capacity(routing.n_pairs());
        let mut max_len = 0usize;
        for (s, d, links) in routing.pairs() {
            pairs.push((s, d));
            path_len.push(links.len());
            max_len = max_len.max(links.len());
        }
        let mut positions = Vec::with_capacity(max_len);
        for k in 0..max_len {
            let mut path_idx = Vec::new();
            let mut link_idx = Vec::new();
            for (p, (_, _, links)) in routing.pairs().enumerate() {
                if k < links.len() {
                    path_idx.push(p);
                    link_idx.push(links[k].0);
                }
            }
            positions.push(PositionIndex { path_idx, link_idx });
        }
        PathTensors {
            n_paths: pairs.len(),
            n_links,
            max_len,
            positions,
            path_len,
            pairs,
        }
    }

    /// Total number of (path, position) message slots — the tape cost driver.
    pub fn total_hops(&self) -> usize {
        self.path_len.iter().sum()
    }

    /// Number of paths traversing each link (degree of the aggregation).
    pub fn link_fanin(&self) -> Vec<usize> {
        let mut fanin = vec![0usize; self.n_links];
        for pos in &self.positions {
            for &l in &pos.link_idx {
                fanin[l] += 1;
            }
        }
        fanin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routenet_netgraph::routing::shortest_path_routing;
    use routenet_netgraph::topology::nsfnet;
    use routenet_netgraph::TrafficMatrix;

    fn tensors() -> PathTensors {
        let g = nsfnet();
        let routing = shortest_path_routing(&g).unwrap();
        let traffic = TrafficMatrix::zeros(g.n_nodes());
        let sc = Scenario {
            graph: g,
            routing,
            traffic,
        };
        PathTensors::build(&sc)
    }

    #[test]
    fn shape_matches_routing() {
        let t = tensors();
        assert_eq!(t.n_paths, 14 * 13);
        assert_eq!(t.n_links, 42);
        assert!(t.max_len >= 2);
        assert_eq!(t.positions.len(), t.max_len);
        assert_eq!(t.path_len.len(), t.n_paths);
        assert_eq!(t.pairs.len(), t.n_paths);
    }

    #[test]
    fn position_zero_contains_every_path() {
        let t = tensors();
        assert_eq!(t.positions[0].path_idx.len(), t.n_paths);
        // positions are monotonically shrinking
        for w in t.positions.windows(2) {
            assert!(w[1].path_idx.len() <= w[0].path_idx.len());
        }
    }

    #[test]
    fn total_hops_equals_sum_of_position_sizes() {
        let t = tensors();
        let by_pos: usize = t.positions.iter().map(|p| p.path_idx.len()).sum();
        assert_eq!(t.total_hops(), by_pos);
    }

    #[test]
    fn link_fanin_counts_traversals() {
        let g = nsfnet();
        let routing = shortest_path_routing(&g).unwrap();
        let t = PathTensors::from_routing(&routing, g.n_links());
        let fanin = t.link_fanin();
        for (i, f) in fanin.iter().enumerate() {
            let brute = routing.pairs_through(routenet_netgraph::LinkId(i)).len();
            assert_eq!(*f, brute, "link {i}");
        }
        // every link carries at least its endpoints' direct pair
        assert!(fanin.iter().all(|&f| f >= 1));
    }

    /// Position `k` lists every path longer than `k` exactly once — the
    /// precondition of the forward pass's row overwrite.
    #[test]
    fn position_rows_are_the_paths_longer_than_k_once_each() {
        let t = tensors();
        for k in 0..t.max_len {
            let mut listed = t.positions[k].path_idx.clone();
            listed.sort_unstable();
            let longer: Vec<usize> = (0..t.n_paths).filter(|&p| t.path_len[p] > k).collect();
            assert_eq!(listed, longer, "pos {k}");
        }
    }

    #[test]
    fn indices_in_range() {
        let t = tensors();
        for pos in &t.positions {
            assert_eq!(pos.path_idx.len(), pos.link_idx.len());
            assert!(pos.path_idx.iter().all(|&p| p < t.n_paths));
            assert!(pos.link_idx.iter().all(|&l| l < t.n_links));
        }
    }
}
