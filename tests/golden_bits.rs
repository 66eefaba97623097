//! Golden-bit regression: a tiny RouteNet training run, its predictions on
//! NSFNET and Geant2, and an FNN baseline's predictions are byte-compared
//! against artifacts committed under `tests/golden/`.
//!
//! The goldens pin the numeric output of the whole kernel stack (tape ops,
//! layers, batched forward/backward, per-sample gradient reduction, Adam)
//! across commits, so a refactor that claims "no change to the bits" is
//! checked against stored bytes rather than against a second code path
//! that could drift together with the first. Training at 1 and 2 worker
//! threads must reproduce the same bytes.
//!
//! The dataset is built without the simulator: labels come from the
//! analytic M/M/1 network model, so the test runs in seconds in a debug
//! build. The transcendental functions (`exp`, `tanh`) come from the
//! platform libm, so the goldens are pinned for that platform.
//!
//! To regenerate after an intentional numeric change, run
//! `ROUTENET_BLESS_GOLDEN=1 cargo test --test golden_bits` and commit the
//! rewritten files together with the change that explains them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use routenet_core::baseline::{FnnBaseline, FnnConfig};
use routenet_core::prelude::*;
use routenet_netgraph::routing::shortest_path_routing;
use routenet_netgraph::traffic::sample_traffic_matrix;
use routenet_netgraph::{generate, topology, Graph, TrafficModel};
use routenet_simnet::queueing::Mm1Network;
use std::fmt::Write as _;
use std::path::PathBuf;

const BLESS_VAR: &str = "ROUTENET_BLESS_GOLDEN";

/// Trainer thread counts that must all reproduce the goldens. The first
/// entry generates them when blessing.
const THREADS: [usize; 2] = [1, 2];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn blessing() -> bool {
    std::env::var_os(BLESS_VAR).is_some()
}

/// Byte-compare `got` with the committed golden `name`, or rewrite the
/// golden when blessing.
fn check_golden(name: &str, got: &str, mode: &str) {
    let path = golden_path(name);
    if blessing() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} (bless with {BLESS_VAR}=1)",
            path.display()
        )
    });
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
        panic!(
            "{mode}: output differs from golden {} at {line} ({} vs {} bytes)",
            path.display(),
            got.len(),
            want.len()
        );
    }
}

/// One M/M/1-labelled sample on `graph`, with shortest-path routing.
fn mm1_sample(graph: &Graph, intensity: f64, seed: u64) -> Sample {
    let mut rng = StdRng::seed_from_u64(seed);
    let routing = shortest_path_routing(graph).unwrap();
    let traffic = sample_traffic_matrix(
        graph,
        &routing,
        &TrafficModel::Uniform { min_frac: 0.2 },
        intensity,
        &mut rng,
    );
    let net = Mm1Network::build(graph, &routing, &traffic, 1_000.0);
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
            graph: graph.clone(),
            routing,
            traffic,
        },
        targets,
        topology: graph.name.clone(),
        intensity,
        seed,
    }
}

/// Alternating Ring-5 and 6-node synthetic samples, so every minibatch
/// mixes topologies (segments of different sizes and hop depths).
fn routenet_dataset(n: usize) -> Vec<Sample> {
    let ring = generate::ring(5);
    let synth = generate::synthetic(6, &mut StdRng::seed_from_u64(41));
    (0..n)
        .map(|i| {
            let g = if i % 2 == 0 { &ring } else { &synth };
            mm1_sample(g, 0.3 + 0.04 * i as f64, 100 + i as u64)
        })
        .collect()
}

fn tiny_config() -> RouteNetConfig {
    RouteNetConfig {
        link_state_dim: 6,
        path_state_dim: 6,
        readout_hidden: 8,
        t_iterations: 3,
        predict_jitter: true,
        predict_drops: false,
        seed: 13,
    }
}

fn train_model(threads: usize) -> RouteNet {
    let data = routenet_dataset(12);
    let (train_set, val_set) = data.split_at(10);
    let mut model = RouteNet::new(tiny_config());
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 4,
        lr: 5e-3,
        threads,
        // Never trips; enabling it exercises the initial evaluation pass.
        max_spike_factor: Some(1e6),
        ..TrainConfig::default()
    };
    let report = train(&mut model, train_set, val_set, &cfg).unwrap();
    assert_eq!(report.epochs.len(), 3);
    assert!(report.recoveries.is_empty());
    model
}

/// NSFNET and Geant2 what-if scenarios the model never trained on.
fn unseen_scenarios() -> Vec<(&'static str, Scenario)> {
    [
        ("nsfnet", topology::nsfnet()),
        ("geant2", topology::geant2()),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (name, g))| (name, mm1_sample(&g, 0.5, 200 + i as u64).scenario))
    .collect()
}

fn push_prediction_bits(out: &mut String, label: &str, preds: &[Prediction]) {
    for (row, p) in preds.iter().enumerate() {
        writeln!(
            out,
            "{label} {row} {:016x} {:016x} {:016x}",
            p.delay_s.to_bits(),
            p.jitter_s2.to_bits(),
            p.drop_prob.to_bits()
        )
        .unwrap();
    }
}

/// Prediction bits through every RouteNet prediction entry point; they
/// must agree with each other before they are compared with the golden.
fn routenet_prediction_bits(model: &RouteNet) -> String {
    let scenarios = unseen_scenarios();
    let solo: Vec<Vec<Prediction>> = scenarios
        .iter()
        .map(|(_, sc)| model.predict_scenario(sc))
        .collect();
    let refs: Vec<&Scenario> = scenarios.iter().map(|(_, sc)| sc).collect();
    let sweep = KpiPredictor::predict_batch(model, &refs);
    let compiled: Vec<_> = refs.iter().map(|sc| model.compile(sc)).collect();
    let compiled_refs: Vec<_> = compiled.iter().collect();
    let packed = model.predict_batch_compiled(&compiled_refs);
    let mut out = String::new();
    for (((name, _), a), (b, c)) in scenarios.iter().zip(&solo).zip(sweep.iter().zip(&packed)) {
        let mut bits_a = String::new();
        let mut bits_b = String::new();
        let mut bits_c = String::new();
        push_prediction_bits(&mut bits_a, name, a);
        push_prediction_bits(&mut bits_b, name, b);
        push_prediction_bits(&mut bits_c, name, c);
        assert_eq!(
            bits_a, bits_b,
            "{name}: sweep predict_batch differs from solo"
        );
        assert_eq!(bits_a, bits_c, "{name}: packed batch differs from solo");
        out.push_str(&bits_a);
    }
    out
}

#[test]
fn routenet_training_and_predictions_match_goldens() {
    let counts = if blessing() {
        &THREADS[..1]
    } else {
        &THREADS[..]
    };
    for &threads in counts {
        let mode = format!("threads={threads}");
        let model = train_model(threads);
        check_golden("routenet_model.json", &model.to_json(), &mode);
        check_golden(
            "routenet_predictions.txt",
            &routenet_prediction_bits(&model),
            &mode,
        );
    }
}

#[test]
fn fnn_baseline_predictions_match_golden() {
    let ring = generate::ring(5);
    let data: Vec<Sample> = (0..14)
        .map(|i| mm1_sample(&ring, 0.3 + 0.03 * i as f64, 300 + i as u64))
        .collect();
    let (train_set, held_out) = data.split_at(10);
    let fnn = FnnBaseline::train(
        train_set,
        &FnnConfig {
            hidden: vec![12, 12],
            epochs: 25,
            lr: 5e-3,
            batch_size: 4,
            seed: 9,
        },
    );
    let mut out = String::new();
    for (i, s) in held_out.iter().enumerate() {
        push_prediction_bits(&mut out, &format!("ring5-{i}"), &fnn.predict(&s.scenario));
    }
    check_golden("fnn_predictions.txt", &out, "fnn");
}
