//! Seeded inputs of the serve workload: a topology with a fixed-size pool
//! of distinct routings, and what-if scenarios with fresh traffic. The seed
//! changes traffic and routing values only, never the number of queries,
//! routings or scenarios.

use rand::rngs::StdRng;
use rand::Rng;
use routenet_core::Scenario;
use routenet_dataset::TopologySpec;
use routenet_netgraph::routing::randomized_routing;
use routenet_netgraph::topology::{assign_capacities, CapacityScheme};
use routenet_netgraph::traffic::sample_traffic_matrix;
use routenet_netgraph::{Graph, RoutingScheme, TrafficModel};

/// One topology with capacities fixed and a pool of distinct routings.
pub struct Topo {
    pub graph: Graph,
    pub routings: Vec<RoutingScheme>,
}

impl Topo {
    /// Build `spec` with seeded capacities and `n_routings` distinct
    /// randomized routings.
    pub fn new(spec: &TopologySpec, n_routings: usize, rng: &mut StdRng) -> Topo {
        let mut graph = spec.build();
        assign_capacities(&mut graph, &CapacityScheme::kdn_default(), rng);
        let mut routings: Vec<RoutingScheme> = Vec::with_capacity(n_routings);
        let mut draws = 0;
        while routings.len() < n_routings {
            draws += 1;
            assert!(
                draws < 100 * n_routings,
                "cannot draw {n_routings} distinct routings"
            );
            let r = randomized_routing(&graph, 2.0, rng)
                .expect("zoo topologies are strongly connected");
            if !routings.contains(&r) {
                routings.push(r);
            }
        }
        Topo { graph, routings }
    }

    /// A what-if scenario on routing `r` with a fresh traffic matrix whose
    /// busiest link sits at a utilisation drawn from [0.2, 0.8].
    pub fn scenario(&self, r: usize, rng: &mut StdRng) -> Scenario {
        let routing = &self.routings[r % self.routings.len()];
        let intensity = rng.gen_range(0.2..=0.8);
        let traffic = sample_traffic_matrix(
            &self.graph,
            routing,
            &TrafficModel::Uniform { min_frac: 0.25 },
            intensity,
            rng,
        );
        Scenario {
            graph: self.graph.clone(),
            routing: routing.clone(),
            traffic,
        }
    }
}

/// The wire line of query `id` whose scenario serialises to `scenario_json`.
pub fn request_line(id: u64, scenario_json: &str) -> String {
    format!("{{\"id\":{id},\"scenario\":{scenario_json}}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn pool_json(seed: u64) -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Topo::new(&TopologySpec::Nsfnet, 4, &mut rng);
        (0..8)
            .map(|p| serde_json::to_string(&t.scenario(p, &mut rng)).unwrap())
            .collect()
    }

    #[test]
    fn scenario_pools_are_deterministic_per_seed() {
        let a = pool_json(3);
        assert_eq!(a, pool_json(3));
        let b = pool_json(4);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn routing_pools_are_distinct() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Topo::new(&TopologySpec::Nsfnet, 24, &mut rng);
        for (i, a) in t.routings.iter().enumerate() {
            assert!(t.routings[i + 1..].iter().all(|b| a != b));
        }
    }
}
