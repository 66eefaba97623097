//! End-to-end learning capability tests and tensor-algebra property tests.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use routenet_nn::prelude::*;

/// A 2-layer MLP must solve XOR (nonlinear capacity check).
#[test]
fn mlp_learns_xor() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut store = ParamStore::new();
    let mlp = Mlp::new(
        &mut store,
        "xor",
        &[2, 8, 1],
        Activation::Tanh,
        Activation::Sigmoid,
        &mut rng,
    );
    let mut opt = Adam::new(&store, 0.05);
    let x = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
    let y = Tensor::from_vec(4, 1, vec![0., 1., 1., 0.]);
    let seg = SegmentPlan::singleton(4);
    let mut last_loss = f64::INFINITY;
    for _ in 0..800 {
        let mut sess = Session::new(&store);
        let vx = sess.input(x.clone());
        let pred = mlp.forward(&mut sess, vx, &seg);
        let loss = sess.tape.mse(pred, &y);
        last_loss = sess.tape.value(loss).get(0, 0);
        let grads = sess.tape.backward(loss);
        let pg = sess.param_grads_seg(&grads, 1).remove(0);
        opt.step(&mut store, &pg);
    }
    assert!(last_loss < 0.01, "XOR loss stuck at {last_loss}");
    let mut sess = Session::new(&store);
    let vx = sess.input(x);
    let pred = mlp.forward(&mut sess, vx, &seg);
    let p = sess.tape.value(pred);
    for (i, want) in [0.0, 1.0, 1.0, 0.0].iter().enumerate() {
        assert!(
            (p.get(i, 0) - want).abs() < 0.15,
            "sample {i}: {} vs {want}",
            p.get(i, 0)
        );
    }
}

/// A GRU unrolled over a sequence must learn to discriminate sequences by
/// their sum — checks gradient flow through recurrent steps.
#[test]
fn gru_learns_sequence_sum_sign() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let gru = GruCell::new(&mut store, "g", 1, 6, &mut rng);
    let readout = Dense::new(&mut store, "r", 6, 1, Activation::Sigmoid, &mut rng);
    let mut opt = Adam::new(&store, 0.02);

    // 16 random length-5 sequences; label = 1 if sum > 0.
    let mut data_rng = StdRng::seed_from_u64(3);
    let seqs: Vec<Vec<f64>> = (0..16)
        .map(|_| {
            (0..5)
                .map(|_| rand::Rng::gen_range(&mut data_rng, -1.0..1.0))
                .collect()
        })
        .collect();
    let labels: Vec<f64> = seqs
        .iter()
        .map(|s| {
            if s.iter().sum::<f64>() > 0.0 {
                1.0
            } else {
                0.0
            }
        })
        .collect();

    let seg = SegmentPlan::singleton(seqs.len());
    let mut final_loss = f64::INFINITY;
    for _ in 0..400 {
        let mut sess = Session::new(&store);
        // Batch all sequences: B x 1 input per step.
        let mut h = sess.input(Tensor::zeros(seqs.len(), 6));
        for t in 0..5 {
            let xt = sess.input(Tensor::from_fn(seqs.len(), 1, |b, _| seqs[b][t]));
            let xw = gru.project(&mut sess, xt);
            h = gru.step(&mut sess, xw, None, h, None, &seg);
        }
        let pred = readout.forward(&mut sess, h, &seg);
        let target = Tensor::from_fn(seqs.len(), 1, |b, _| labels[b]);
        let loss = sess.tape.mse(pred, &target);
        final_loss = sess.tape.value(loss).get(0, 0);
        let grads = sess.tape.backward(loss);
        let mut pg = sess.param_grads_seg(&grads, 1).remove(0);
        routenet_nn::optim::clip_global_norm(&mut pg, 5.0);
        opt.step(&mut store, &pg);
    }
    assert!(final_loss < 0.05, "GRU sum-sign loss stuck at {final_loss}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (AB)^T == B^T A^T
    #[test]
    fn transpose_of_product(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::xavier(3, 4, &mut rng);
        let b = Tensor::xavier(4, 2, &mut rng);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    /// Matmul distributes over addition: A(B + C) == AB + AC.
    #[test]
    fn matmul_distributive(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::xavier(2, 3, &mut rng);
        let b = Tensor::xavier(3, 3, &mut rng);
        let c = Tensor::xavier(3, 3, &mut rng);
        let bc = b.zip(&c, |x, y| x + y);
        let lhs = a.matmul(&bc);
        let ab = a.matmul(&b);
        let ac = a.matmul(&c);
        let rhs = ab.zip(&ac, |x, y| x + y);
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    /// gather(scatter) with identity permutation is the identity; and the
    /// tape value of scatter_add sums duplicate rows.
    #[test]
    fn scatter_gather_consistency(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::xavier(4, 3, &mut rng);
        let mut tape = Tape::new();
        let a = tape.leaf(t.clone());
        let perm = tape.gather_rows(a, &IndexPlan::new(vec![0, 1, 2, 3]));
        prop_assert_eq!(tape.value(perm), &t);
        // scatter rows 0 and 1 into the same output row
        let s = tape.scatter_add_rows(a, &IndexPlan::new(vec![0, 0, 1, 1]), 2);
        let sv = tape.value(s);
        for c in 0..3 {
            prop_assert!((sv.get(0, c) - (t.get(0, c) + t.get(1, c))).abs() < 1e-12);
            prop_assert!((sv.get(1, c) - (t.get(2, c) + t.get(3, c))).abs() < 1e-12);
        }
    }

    /// Adam with any sensible lr strictly decreases a convex quadratic within
    /// the first few steps.
    #[test]
    fn adam_descends_quadratic(lr in 0.001f64..0.3, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::xavier(1, 4, &mut rng).map(|x| x * 10.0));
        let target = Tensor::zeros(1, 4);
        let mut opt = Adam::new(&store, lr);
        let loss_at = |store: &ParamStore| {
            let mut sess = Session::new(store);
            let vw = sess.param(w);
            let l = sess.tape.mse(vw, &target);
            sess.tape.value(l).get(0, 0)
        };
        let before = loss_at(&store);
        prop_assume!(before > 1e-9);
        for _ in 0..10 {
            let mut sess = Session::new(&store);
            let vw = sess.param(w);
            let l = sess.tape.mse(vw, &target);
            let grads = sess.tape.backward(l);
            let pg = sess.param_grads(&grads);
            opt.step(&mut store, &pg);
        }
        prop_assert!(loss_at(&store) < before);
    }
}
