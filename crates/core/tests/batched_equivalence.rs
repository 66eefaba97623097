//! Property test of the batched CSR kernel's core contract: a sample's
//! results do not depend on what else is packed with it. Packing any mix
//! of scenarios into one [`BatchedScenario`], in any order, and running a
//! single forward/backward is **bitwise identical** to running each
//! scenario through [`RouteNet::forward_batch`] as a batch of one — output
//! rows, per-sample losses, and per-sample parameter gradients. This is
//! what lets the trainer split a minibatch across any number of workers,
//! and the serving daemon micro-batch concurrent queries, without
//! perturbing a single bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routenet_core::model::CompiledScenario;
use routenet_core::prelude::*;
use routenet_netgraph::routing::shortest_path_routing;
use routenet_netgraph::TrafficMatrix;
use routenet_netgraph::{generate, Graph};
use routenet_nn::{ParamId, Session, Tensor};

fn model(seed: u64) -> RouteNet {
    let mut m = RouteNet::new(RouteNetConfig {
        link_state_dim: 6,
        path_state_dim: 6,
        readout_hidden: 8,
        t_iterations: 3,
        predict_jitter: true,
        predict_drops: false,
        seed,
    });
    m.set_normalizer(Normalizer {
        capacity_scale: 10_000.0,
        traffic_scale: 500.0,
        ..Normalizer::default()
    });
    m
}

fn random_scenario(n: usize, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph: Graph = generate::synthetic(n, &mut rng);
    let routing = shortest_path_routing(&graph).unwrap();
    let mut traffic = TrafficMatrix::zeros(n);
    for (s, d) in graph.node_pairs() {
        traffic.set_demand(s, d, 100.0 + 900.0 * rng.gen::<f64>());
    }
    Scenario {
        graph,
        routing,
        traffic,
    }
}

/// Positive pseudo-observed targets (the trainer only ever regresses onto
/// simulator KPIs, which are strictly positive).
fn targets(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..rows * cols).map(|_| 0.01 + rng.gen::<f64>()).collect();
    Tensor::from_vec(rows, cols, data)
}

/// One sample's forward rows, loss, and parameter gradients.
type SampleResult = (Tensor, f64, Vec<(ParamId, Tensor)>);

/// Pack `order`'s scenarios into one batch, run one forward/backward with a
/// per-sample MSE, and return each sample's results in `order` order.
fn run_packed(
    m: &RouteNet,
    compiled: &[CompiledScenario],
    tgts: &[Tensor],
    order: &[usize],
) -> Vec<SampleResult> {
    let refs: Vec<&CompiledScenario> = order.iter().map(|&i| &compiled[i]).collect();
    let batch = BatchedScenario::pack(&refs);
    let mut tdata = Vec::new();
    for &i in order {
        tdata.extend_from_slice(tgts[i].data());
    }
    let target = Tensor::from_vec(batch.path_seg().total(), m.out_dim(), tdata);
    let mut sess = Session::new(m.store());
    let out = m.forward_batch(&mut sess, &batch);
    let seg_loss = sess.tape.seg_mse(out, &target, batch.path_seg());
    let total = sess.tape.sum_all(seg_loss);
    let grads = sess.tape.backward(total);
    let per_sample = sess.param_grads_seg(&grads, order.len());
    per_sample
        .into_iter()
        .enumerate()
        .map(|(s, g)| {
            let (lo, hi) = batch.sample_path_range(s);
            let rows = sess.tape.value(out).rows_copy(lo, hi);
            (rows, sess.tape.value(seg_loss).get(s, 0), g)
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn packed_pass_is_bitwise_identical_to_batch_of_one(
        seed in 0u64..500,
        n_scenarios in 2usize..5,
    ) {
        let m = model(7);
        let mut size_rng = StdRng::seed_from_u64(seed ^ 0xB47C);
        let scenarios: Vec<Scenario> = (0..n_scenarios)
            .map(|i| {
                let n = size_rng.gen_range(4usize..8);
                random_scenario(n, seed.wrapping_mul(31).wrapping_add(i as u64))
            })
            .collect();
        let compiled: Vec<_> = scenarios.iter().map(|sc| m.compile(sc)).collect();
        let tgts: Vec<Tensor> = scenarios
            .iter()
            .enumerate()
            .map(|(i, sc)| targets(sc.n_pairs(), m.out_dim(), seed.wrapping_add(1000 + i as u64)))
            .collect();

        // Reference: each scenario alone, as a batch of one.
        let reference: Vec<SampleResult> = (0..n_scenarios)
            .map(|i| run_packed(&m, &compiled, &tgts, &[i]).remove(0))
            .collect();

        // Packed in input order and in reverse order: same bits per sample.
        let forward: Vec<usize> = (0..n_scenarios).collect();
        let reverse: Vec<usize> = forward.iter().rev().copied().collect();
        for order in [forward, reverse] {
            let packed = run_packed(&m, &compiled, &tgts, &order);
            for (&i, (rows, loss, grads)) in order.iter().zip(&packed) {
                let (ref_rows, ref_loss, ref_grads) = &reference[i];
                prop_assert_eq!(rows.shape(), ref_rows.shape());
                prop_assert!(bits(rows) == bits(ref_rows), "forward rows of sample {i} diverged");
                prop_assert!(loss.to_bits() == ref_loss.to_bits(), "loss of sample {i} diverged");
                prop_assert_eq!(grads.len(), ref_grads.len());
                for ((pid_b, tb), (pid_r, tr)) in grads.iter().zip(ref_grads) {
                    prop_assert_eq!(pid_b, pid_r);
                    prop_assert!(bits(tb) == bits(tr), "gradient for sample {i} param {pid_b:?} diverged");
                }
            }
        }
    }
}
