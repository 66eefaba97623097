//! Baseline predictors the paper's introduction argues against.
//!
//! - [`Mm1Baseline`]: the analytic queuing-theory model ("Analytic models
//!   (e.g., Queuing Theory) fail to achieve accurate estimation in
//!   real-world scenarios", §1).
//! - [`FnnBaseline`]: a fixed-input fully-connected network, representative
//!   of the pre-GNN proposals ([2, 4, 6, 7] in the paper) whose architecture
//!   "is not well suited to model information structured as graphs" — and
//!   which cannot be applied to a topology with a different size at all.

use crate::features::Normalizer;
use crate::sample::{KpiPredictor, Prediction, Sample, Scenario};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use routenet_nn::prelude::*;
use serde::{Deserialize, Serialize};

/// Queuing-theory baseline: per-link M/M/1 with the Kleinrock independence
/// approximation (see `routenet_simnet::queueing`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mm1Baseline {
    /// Mean packet size used to convert bit rates to packet rates; must
    /// match the simulator setting for a fair comparison.
    pub mean_pkt_size_bits: f64,
    /// Finite stand-in for the infinite delay of an unstable queue, so the
    /// predictor's output is always usable in metrics.
    pub unstable_delay_s: f64,
}

impl Default for Mm1Baseline {
    fn default() -> Self {
        Mm1Baseline {
            mean_pkt_size_bits: 1_000.0,
            unstable_delay_s: 1e6,
        }
    }
}

impl KpiPredictor for Mm1Baseline {
    fn predictor_name(&self) -> &str {
        "M/M/1"
    }

    fn predict(&self, scenario: &Scenario) -> Vec<Prediction> {
        let net = routenet_simnet::queueing::Mm1Network::build(
            &scenario.graph,
            &scenario.routing,
            &scenario.traffic,
            self.mean_pkt_size_bits,
        );
        net.predict_all(&scenario.routing)
            .into_iter()
            .map(|p| Prediction {
                delay_s: if p.mean_delay_s.is_finite() {
                    p.mean_delay_s
                } else {
                    self.unstable_delay_s
                },
                jitter_s2: if p.jitter_s2.is_finite() {
                    p.jitter_s2
                } else {
                    self.unstable_delay_s
                },
                drop_prob: f64::NAN,
            })
            .collect()
    }
}

/// M/G/1 (Pollaczek–Khinchine) baseline: like [`Mm1Baseline`] but fed the
/// *true* packet-size distribution, making it the strongest analytic model
/// available. It still assumes link independence, so multi-hop paths keep a
/// tandem-correlation bias that only a learned model can remove. Including
/// it keeps the comparison honest: RouteNet must beat not just a
/// wrong-distribution analytic model, but the best-informed one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mg1Baseline {
    /// Mean packet size used to convert bit rates to packet rates.
    pub mean_pkt_size_bits: f64,
    /// The packet-size distribution the simulator used for labels.
    pub size_dist: routenet_simnet::sim::SizeDistribution,
    /// Finite stand-in for the infinite delay of an unstable queue.
    pub unstable_delay_s: f64,
}

impl Default for Mg1Baseline {
    fn default() -> Self {
        Mg1Baseline {
            mean_pkt_size_bits: 1_000.0,
            // The dataset generator's default labels use deterministic sizes.
            size_dist: routenet_simnet::sim::SizeDistribution::Deterministic,
            unstable_delay_s: 1e6,
        }
    }
}

impl KpiPredictor for Mg1Baseline {
    fn predictor_name(&self) -> &str {
        "M/G/1"
    }

    fn predict(&self, scenario: &Scenario) -> Vec<Prediction> {
        let net = routenet_simnet::queueing::Mg1Network::build(
            &scenario.graph,
            &scenario.routing,
            &scenario.traffic,
            self.mean_pkt_size_bits,
            &self.size_dist,
        );
        net.predict_all(&scenario.routing)
            .into_iter()
            .map(|p| Prediction {
                delay_s: if p.mean_delay_s.is_finite() {
                    p.mean_delay_s
                } else {
                    self.unstable_delay_s
                },
                jitter_s2: if p.jitter_s2.is_finite() {
                    p.jitter_s2
                } else {
                    self.unstable_delay_s
                },
                drop_prob: f64::NAN,
            })
            .collect()
    }
}

/// M/M/1/K baseline for finite-buffer scenarios: per-link blocking with the
/// independence approximation; predicts both delivered-packet delay and the
/// path drop probability. `buffer_pkts` must match the simulator setting
/// used to generate the labels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mm1kBaseline {
    /// Mean packet size used to convert bit rates to packet rates.
    pub mean_pkt_size_bits: f64,
    /// Per-link system capacity in packets (including in service).
    pub buffer_pkts: usize,
}

impl Default for Mm1kBaseline {
    fn default() -> Self {
        Mm1kBaseline {
            mean_pkt_size_bits: 1_000.0,
            buffer_pkts: 10,
        }
    }
}

impl KpiPredictor for Mm1kBaseline {
    fn predictor_name(&self) -> &str {
        "M/M/1/K"
    }

    fn predict(&self, scenario: &Scenario) -> Vec<Prediction> {
        let net = routenet_simnet::queueing::Mm1kNetwork::build(
            &scenario.graph,
            &scenario.routing,
            &scenario.traffic,
            self.mean_pkt_size_bits,
            self.buffer_pkts,
        );
        net.predict_all(&scenario.routing)
            .into_iter()
            // lint: allow(nan-sink, reason = "NaN is the deliberate 'KPI not predicted' sentinel; eval masks NaN columns")
            .map(|(delay, drop)| Prediction {
                delay_s: delay,
                jitter_s2: f64::NAN,
                drop_prob: drop,
            })
            .collect()
    }
}

/// Hyperparameters of the fully-connected baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FnnConfig {
    /// Widths of the hidden layers.
    pub hidden: Vec<usize>,
    /// Training epochs (full-batch Adam).
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Minibatch size in samples.
    pub batch_size: usize,
    /// Weight-init and shuffle seed.
    pub seed: u64,
}

impl Default for FnnConfig {
    fn default() -> Self {
        FnnConfig {
            hidden: vec![128, 128],
            epochs: 200,
            lr: 1e-3,
            batch_size: 16,
            seed: 17,
        }
    }
}

/// Fully-connected delay predictor with a fixed-size input: the flattened
/// traffic matrix of ONE topology+routing. It has no notion of graph
/// structure, so it can only be trained and applied per fixed scenario
/// shape — the contrast the paper draws with RouteNet's generalization.
#[derive(Debug)]
pub struct FnnBaseline {
    store: ParamStore,
    mlp: Mlp,
    n_pairs: usize,
    norm: Normalizer,
}

impl FnnBaseline {
    /// Number of pairs this network was built for.
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// True if the baseline can be applied to `scenario` (same pair count —
    /// in practice: the same fixed topology it was trained on).
    pub fn supports(&self, scenario: &Scenario) -> bool {
        scenario.n_pairs() == self.n_pairs
    }

    fn input_tensor(norm: &Normalizer, scenario: &Scenario) -> Tensor {
        debug_assert!(norm.traffic_scale > 0.0, "fit_with floors the scale");
        let demands: Vec<f64> = scenario
            .traffic
            .entries()
            .map(|(_, _, v)| v / norm.traffic_scale)
            .collect();
        Tensor::row_vector(demands)
    }

    /// Train on samples that all share one topology/routing shape.
    pub fn train(samples: &[Sample], cfg: &FnnConfig) -> Self {
        assert!(!samples.is_empty(), "FNN training set is empty");
        let n_pairs = samples[0].scenario.n_pairs();
        assert!(
            samples.iter().all(|s| s.scenario.n_pairs() == n_pairs),
            "FNN baseline requires a fixed topology"
        );
        let norm = Normalizer::fit(samples);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let mut dims = vec![n_pairs];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(n_pairs);
        let mlp = Mlp::new(
            &mut store,
            "fnn",
            &dims,
            Activation::Relu,
            Activation::Linear,
            &mut rng,
        );
        let mut opt = Adam::new(&store, cfg.lr);

        // Precompute inputs (1 x n_pairs) and z-scored delay targets.
        let inputs: Vec<Tensor> = samples
            .iter()
            .map(|s| Self::input_tensor(&norm, &s.scenario))
            .collect();
        debug_assert!(norm.delay_std > 0.0, "mean_std floors the std");
        let targets: Vec<Tensor> = samples
            .iter()
            .map(|s| {
                Tensor::row_vector(
                    s.targets
                        .iter()
                        .map(|t| (t.delay_s - norm.delay_mean) / norm.delay_std)
                        .collect(),
                )
            })
            .collect();

        // Every input is one 1-row sample: a single-segment plan.
        let seg = SegmentPlan::singleton(1);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                let mut acc = GradAccumulator::new(&store);
                for &i in chunk {
                    let mut sess = Session::new(&store);
                    let x = sess.input(inputs[i].clone());
                    let pred = mlp.forward(&mut sess, x, &seg);
                    let loss = sess.tape.mse(pred, &targets[i]);
                    let grads = sess.tape.backward(loss);
                    acc.add(&sess.param_grads_seg(&grads, 1).remove(0));
                }
                let mut g = acc.take_mean();
                routenet_nn::optim::clip_global_norm(&mut g, 5.0);
                opt.step(&mut store, &g);
            }
        }
        FnnBaseline {
            store,
            mlp,
            n_pairs,
            norm,
        }
    }
}

impl KpiPredictor for FnnBaseline {
    fn predictor_name(&self) -> &str {
        "FNN"
    }

    /// Panics if the scenario does not match the trained topology shape —
    /// check [`FnnBaseline::supports`] first. (This inapplicability is
    /// itself one of the paper's observations about non-GNN models.)
    fn predict(&self, scenario: &Scenario) -> Vec<Prediction> {
        assert!(
            self.supports(scenario),
            "FNN baseline trained for {} pairs applied to {} pairs",
            self.n_pairs,
            scenario.n_pairs()
        );
        let mut sess = Session::new(&self.store);
        let x = sess.input(Self::input_tensor(&self.norm, scenario));
        let pred = self.mlp.forward(&mut sess, x, &SegmentPlan::singleton(1));
        let v = sess.tape.value(pred);
        (0..self.n_pairs)
            // lint: allow(nan-sink, reason = "NaN is the deliberate 'KPI not predicted' sentinel; eval masks NaN columns")
            .map(|i| Prediction {
                delay_s: v.get(0, i) * self.norm.delay_std + self.norm.delay_mean,
                jitter_s2: f64::NAN,
                drop_prob: f64::NAN,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::TargetKpi;
    use routenet_netgraph::routing::shortest_path_routing;
    use routenet_netgraph::{generate, NodeId, TrafficMatrix};
    use routenet_simnet::queueing::Mm1Network;

    fn mm1_samples(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generate::ring(4);
        let routing = shortest_path_routing(&g).unwrap();
        (0..n)
            .map(|i| {
                let tm = routenet_netgraph::traffic::sample_traffic_matrix(
                    &g,
                    &routing,
                    &routenet_netgraph::TrafficModel::Uniform { min_frac: 0.3 },
                    0.2 + 0.5 * (i % 7) as f64 / 7.0,
                    &mut rng,
                );
                let net = Mm1Network::build(&g, &routing, &tm, 1_000.0);
                let targets = net
                    .predict_all(&routing)
                    .into_iter()
                    .map(|p| TargetKpi {
                        delay_s: p.mean_delay_s,
                        jitter_s2: p.jitter_s2,
                        drop_prob: 0.0,
                    })
                    .collect();
                Sample {
                    scenario: Scenario {
                        graph: g.clone(),
                        routing: routing.clone(),
                        traffic: tm,
                    },
                    targets,
                    topology: "Ring-4".into(),
                    intensity: 0.5,
                    seed: i as u64,
                }
            })
            .collect()
    }

    #[test]
    fn mm1_baseline_is_exact_on_mm1_labels() {
        let samples = mm1_samples(3, 5);
        let baseline = Mm1Baseline::default();
        for s in &samples {
            let preds = baseline.predict(&s.scenario);
            assert_eq!(preds.len(), s.targets.len());
            for (p, t) in preds.iter().zip(&s.targets) {
                assert!((p.delay_s - t.delay_s).abs() < 1e-12);
                assert!((p.jitter_s2 - t.jitter_s2).abs() < 1e-12);
            }
        }
        assert_eq!(baseline.predictor_name(), "M/M/1");
    }

    #[test]
    fn mm1_baseline_clamps_unstable() {
        let g = generate::ring(4);
        let routing = shortest_path_routing(&g).unwrap();
        let mut tm = TrafficMatrix::zeros(4);
        tm.set_demand(NodeId(0), NodeId(1), 1e9); // way over capacity
        let sc = Scenario {
            graph: g,
            routing,
            traffic: tm,
        };
        let preds = Mm1Baseline::default().predict(&sc);
        assert!(preds.iter().all(|p| p.delay_s.is_finite()));
        assert!(preds.iter().any(|p| p.delay_s == 1e6));
    }

    #[test]
    fn mg1_with_exponential_sizes_equals_mm1() {
        let samples = mm1_samples(2, 9);
        let mm1 = Mm1Baseline::default();
        let mg1 = Mg1Baseline {
            size_dist: routenet_simnet::sim::SizeDistribution::Exponential,
            ..Mg1Baseline::default()
        };
        for s in &samples {
            for (a, b) in mm1
                .predict(&s.scenario)
                .iter()
                .zip(mg1.predict(&s.scenario))
            {
                assert!((a.delay_s - b.delay_s).abs() < 1e-12);
                assert!((a.jitter_s2 - b.jitter_s2).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn mg1_deterministic_predicts_less_delay_than_mm1() {
        let samples = mm1_samples(2, 10);
        let mm1 = Mm1Baseline::default();
        let md1 = Mg1Baseline::default(); // deterministic sizes
        for s in &samples {
            for (a, b) in mm1
                .predict(&s.scenario)
                .iter()
                .zip(md1.predict(&s.scenario))
            {
                assert!(
                    b.delay_s <= a.delay_s + 1e-12,
                    "M/D/1 {} > M/M/1 {}",
                    b.delay_s,
                    a.delay_s
                );
            }
        }
        assert_eq!(md1.predictor_name(), "M/G/1");
    }

    #[test]
    fn fnn_learns_fixed_topology() {
        let samples = mm1_samples(40, 6);
        let (tr, te) = samples.split_at(32);
        let cfg = FnnConfig {
            hidden: vec![32],
            epochs: 150,
            lr: 3e-3,
            batch_size: 8,
            seed: 2,
        };
        let fnn = FnnBaseline::train(tr, &cfg);
        assert_eq!(fnn.n_pairs(), 12);
        let mut preds = Vec::new();
        let mut truths = Vec::new();
        for s in te {
            assert!(fnn.supports(&s.scenario));
            for (p, t) in fnn.predict(&s.scenario).iter().zip(&s.targets) {
                preds.push(p.delay_s);
                truths.push(t.delay_s);
            }
        }
        let r = crate::metrics::pearson(&preds, &truths);
        assert!(r > 0.7, "FNN failed to fit its own topology: r = {r}");
    }

    #[test]
    fn fnn_rejects_other_topologies() {
        let samples = mm1_samples(4, 7);
        let fnn = FnnBaseline::train(
            &samples,
            &FnnConfig {
                epochs: 1,
                ..FnnConfig::default()
            },
        );
        // Build a 5-node scenario: different pair count.
        let g = generate::ring(5);
        let routing = shortest_path_routing(&g).unwrap();
        let traffic = TrafficMatrix::zeros(5);
        let sc = Scenario {
            graph: g,
            routing,
            traffic,
        };
        assert!(!fnn.supports(&sc));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fnn.predict(&sc)));
        assert!(
            result.is_err(),
            "predict on unsupported topology must panic"
        );
    }

    #[test]
    #[should_panic(expected = "fixed topology")]
    fn fnn_training_rejects_mixed_topologies() {
        let mut samples = mm1_samples(2, 8);
        let g = generate::ring(6);
        let routing = shortest_path_routing(&g).unwrap();
        let traffic = TrafficMatrix::zeros(6);
        samples.push(Sample {
            scenario: Scenario {
                graph: g,
                routing,
                traffic,
            },
            targets: vec![],
            topology: "Ring-6".into(),
            intensity: 0.1,
            seed: 0,
        });
        FnnBaseline::train(&samples, &FnnConfig::default());
    }
}
