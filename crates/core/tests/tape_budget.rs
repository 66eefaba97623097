//! Exact cost proxies of the forward/backward pass, pinned so a change that
//! adds tape nodes or allocations fails CI instead of showing up later as
//! noise in a benchmark. These are counts, not timings: they do not depend
//! on the machine.
//!
//! - Tape nodes for one NSFNET sample at the default configuration: each
//!   GRU step is one fused node and each hop position three nodes plus the
//!   inbox sum.
//! - A training step replayed at the same shapes on an arena tape draws
//!   every value buffer from the pool: no miss, no grow.

use rand::rngs::StdRng;
use rand::SeedableRng;
use routenet_core::batch::BatchedScenario;
use routenet_core::prelude::*;
use routenet_netgraph::routing::randomized_routing;
use routenet_netgraph::topology::nsfnet;
use routenet_netgraph::TrafficMatrix;
use routenet_nn::{Session, Tape, Tensor};

/// Tape nodes of one default-config NSFNET forward pass: 26 leaves (two
/// inputs, 24 parameters), per iteration a path projection, 4 hop
/// positions of step + overwrite + message scatter (+ inbox sum after the
/// first), a link projection and a link step (18 x 4), and the readout (8).
const NSFNET_FORWARD_NODES: usize = 106;

fn model() -> RouteNet {
    let mut m = RouteNet::new(RouteNetConfig::default());
    m.set_normalizer(Normalizer {
        capacity_scale: 10_000.0,
        traffic_scale: 500.0,
        ..Normalizer::default()
    });
    m
}

/// NSFNET under a seeded randomized routing whose longest path has 4 hops,
/// like the benchmark's what-if queries.
fn nsfnet_scenario(demand: f64) -> Scenario {
    let g = nsfnet();
    let routing = randomized_routing(&g, 2.0, &mut StdRng::seed_from_u64(1)).unwrap();
    let mut traffic = TrafficMatrix::zeros(g.n_nodes());
    for (s, d) in g.node_pairs() {
        traffic.set_demand(s, d, demand + (s.0 * 14 + d.0) as f64);
    }
    Scenario {
        graph: g,
        routing,
        traffic,
    }
}

#[test]
fn nsfnet_forward_records_the_pinned_node_count() {
    let m = model();
    let compiled = m.compile(&nsfnet_scenario(300.0));
    assert_eq!(
        compiled.tensors.max_len, 4,
        "the count below assumes 4 hops"
    );
    let batch = BatchedScenario::pack(&[&compiled]);
    let mut sess = Session::new(m.store());
    m.forward_batch(&mut sess, &batch);
    assert_eq!(sess.tape.len(), NSFNET_FORWARD_NODES);
}

#[test]
fn same_shape_training_step_replays_without_allocating_value_buffers() {
    let m = model();
    let scenarios = [nsfnet_scenario(300.0), nsfnet_scenario(450.0)];
    let compiled: Vec<_> = scenarios.iter().map(|s| m.compile(s)).collect();
    let refs: Vec<_> = compiled.iter().collect();
    let batch = BatchedScenario::pack(&refs);
    let target = Tensor::full(batch.n_paths, m.out_dim(), 0.25);
    let step = |arena: Tape| {
        let mut sess = Session::with_tape(m.store(), arena);
        let out = m.forward_batch(&mut sess, &batch);
        let losses = sess.tape.seg_mse(out, &target, batch.path_seg());
        let total = sess.tape.sum_all(losses);
        let grads = sess.tape.backward(total);
        let per_sample = sess.param_grads_seg(&grads, batch.n_samples());
        assert_eq!(per_sample.len(), 2);
        assert!(per_sample.iter().all(|g| g.len() == m.store().len()));
        sess.into_tape()
    };
    let mut arena = step(Tape::new());
    let (misses, grows) = (arena.reuse_misses(), arena.reuse_grows());
    assert!(misses > 0, "the first pass fills the pool");
    for _ in 0..3 {
        arena = step(arena);
    }
    assert_eq!(arena.reuse_misses(), misses, "replay missed the pool");
    assert_eq!(arena.reuse_grows(), grows, "replay grew a pooled buffer");
    assert_eq!(grows, 0);
}
