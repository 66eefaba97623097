//! The `offline` workload: the paper's loop of simulate → train →
//! evaluate on the unseen Geant2 topology, in process.
//!
//! Set-up simulates an NSFNET + Synth-50 training set and a Geant2 eval set
//! with `generate_dataset`, round-trips both through `save_jsonl` /
//! `load_jsonl` as the CLI flow does, and initialises the model. Training
//! runs a fixed number of epochs with the default `TrainConfig` (all cores,
//! batched, batch 8) and the trainer's own in-memory telemetry, which is
//! on by default in the CLI; the benchmark reads per-epoch times from it.

use crate::host;
use crate::report::{Metrics, Outcome};
use crate::stats;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routenet_core::batch::BatchedScenario;
use routenet_core::eval::collect_predictions;
use routenet_core::indexing::PathTensors;
use routenet_core::model::CompiledScenario;
use routenet_core::{train, RouteNet, RouteNetConfig, Sample, Scenario, TrainConfig};
use routenet_dataset::split::SYNTH50_TOPOLOGY_SEED;
use routenet_dataset::{
    generate_dataset, generate_sample, load_jsonl, save_jsonl, GenConfig, RoutingDiversity,
    TopologySpec,
};
use routenet_netgraph::routing::randomized_routing;
use routenet_netgraph::topology::assign_capacities;
use routenet_netgraph::traffic::sample_traffic_matrix;
use routenet_nn::optim::{clip_global_norm, Adam};
use routenet_nn::{GradAccumulator, Session, Tape, Tensor};
use routenet_obs::{Event, Telemetry};
use routenet_simnet::{simulate, SimConfig, SimResult};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Training samples on NSFNET (14 nodes).
const TRAIN_NSFNET: usize = 16;
/// Training samples on Synth-50, whose working set is several times NSFNET's.
const TRAIN_SYNTH50: usize = 2;
/// Labelled samples on the unseen Geant2 topology.
const EVAL_GEANT2: usize = 8;
/// Simulated seconds per labelled sample, and the warm-up cut from it.
const SIM_DURATION_S: f64 = 200.0;
const SIM_WARMUP_S: f64 = 20.0;
/// Training epochs per second of `--seconds`: the epoch count depends on
/// the run length only, never on the seed or on how fast the code is.
const EPOCHS_PER_SECOND: f64 = 2.2;
/// Fewest epochs: 21 per-epoch samples leave ten beyond the median, so a
/// short run still reports a tail.
const MIN_EPOCHS: usize = 21;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

fn gen_configs(seed: u64) -> [GenConfig; 3] {
    let base = seed.wrapping_mul(1_000_003);
    let make = |topo: TopologySpec, n: usize, off: u64| {
        let mut c = GenConfig::new(topo, n, base.wrapping_add(off * 10_000));
        c.sim.duration_s = SIM_DURATION_S;
        c.sim.warmup_s = SIM_WARMUP_S;
        c
    };
    [
        make(TopologySpec::Nsfnet, TRAIN_NSFNET, 0),
        make(
            TopologySpec::Synthetic {
                n: 50,
                topo_seed: SYNTH50_TOPOLOGY_SEED,
            },
            TRAIN_SYNTH50,
            1,
        ),
        make(TopologySpec::Geant2, EVAL_GEANT2, 2),
    ]
}

struct Datasets {
    train: Vec<Sample>,
    eval: Vec<Sample>,
    bytes: u64,
}

/// Simulate, save and load both sets. With a tracer, each sample's inputs
/// are also rebuilt through the generator's own public calls, each in a
/// span, and checked against the sample; each simulation is replayed on the
/// same inputs in a span of its own. The replays' work is added to the
/// counts.
fn build_datasets(
    seed: u64,
    work: &Path,
    tracer: Option<(&mut Tracer, &mut SimCounts)>,
) -> Result<Datasets, String> {
    let [nsf, syn, geant] = gen_configs(seed);
    let train_path = work.join("offline-train.jsonl");
    let eval_path = work.join("offline-eval.jsonl");
    let (train, eval) = match tracer {
        None => {
            let mut train = generate_dataset(&nsf);
            train.extend(generate_dataset(&syn));
            let eval = generate_dataset(&geant);
            save_jsonl(&train_path, &train).map_err(|e| e.to_string())?;
            save_jsonl(&eval_path, &eval).map_err(|e| e.to_string())?;
            let train = load_jsonl(&train_path).map_err(|e| e.to_string())?;
            let eval = load_jsonl(&eval_path).map_err(|e| e.to_string())?;
            (train, eval)
        }
        Some((t, counts)) => {
            let mut sets: Vec<Vec<Sample>> = Vec::new();
            for cfg in [&nsf, &syn, &geant] {
                let mut set = Vec::with_capacity(cfg.n_samples);
                for i in 0..cfg.n_samples {
                    let s = generate_sample(cfg, i);
                    let inputs = t.span("dataset.generate_inputs", None, |t| {
                        generate_inputs(t, cfg, i)
                    })?;
                    if scenario_json(&inputs) != scenario_json(&s.scenario) {
                        return Err(format!(
                            "rebuilt inputs of {} sample {i} differ from generate_sample's",
                            s.topology
                        ));
                    }
                    let r = t.span("simnet.simulate", None, |_| simulate_again(&cfg.sim, &s))?;
                    counts.add(&r);
                    set.push(s);
                }
                sets.push(set);
            }
            let eval = sets.pop().unwrap_or_default();
            let train: Vec<Sample> = sets.into_iter().flatten().collect();
            t.span("dataset.save", None, |_| {
                save_jsonl(&train_path, &train).and_then(|()| save_jsonl(&eval_path, &eval))
            })
            .map_err(|e| e.to_string())?;
            let loaded = t.span("dataset.load", None, |_| {
                load_jsonl(&train_path).and_then(|a| load_jsonl(&eval_path).map(|b| (a, b)))
            });
            loaded.map_err(|e| e.to_string())?
        }
    };
    let bytes = [&train_path, &eval_path]
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
    Ok(Datasets { train, eval, bytes })
}

/// The generator's own work for sample `i` of `cfg`: topology, capacities,
/// randomized routing and traffic matrix, through the same public netgraph
/// calls and seed as `generate_sample`, each in a span.
fn generate_inputs(t: &mut Tracer, cfg: &GenConfig, i: usize) -> Result<Scenario, String> {
    let RoutingDiversity::Randomized { spread } = cfg.routing else {
        return Err("the benchmark generates randomized routings only".into());
    };
    let mut rng = StdRng::seed_from_u64(cfg.base_seed.wrapping_add(i as u64));
    let mut graph = t.span("netgraph.topology", None, |_| cfg.topology.build());
    t.span("netgraph.assign_capacities", None, |_| {
        assign_capacities(&mut graph, &cfg.capacities, &mut rng)
    });
    let routing = t
        .span("netgraph.randomized_routing", None, |_| {
            randomized_routing(&graph, spread, &mut rng)
        })
        .map_err(|e| e.to_string())?;
    let intensity = rng.gen_range(cfg.intensity_min..=cfg.intensity_max);
    let traffic = t.span("netgraph.sample_traffic_matrix", None, |_| {
        sample_traffic_matrix(&graph, &routing, &cfg.traffic, intensity, &mut rng)
    });
    Ok(Scenario {
        graph,
        routing,
        traffic,
    })
}

fn scenario_json(sc: &Scenario) -> String {
    serde_json::to_string(sc).expect("scenario serialises")
}

#[derive(Default)]
struct SimCounts {
    events: u64,
    packets: u64,
}

impl SimCounts {
    fn add(&mut self, r: &SimResult) {
        self.events += r.events_processed;
        self.packets += r.total_packets;
    }
}

/// Re-run the simulation that labelled `s`, on its inputs and seed; the
/// result is identical to the one `generate_sample` computed.
fn simulate_again(sim: &SimConfig, s: &Sample) -> Result<SimResult, String> {
    let cfg = SimConfig {
        seed: s.seed,
        telemetry: Telemetry::disabled(),
        ..sim.clone()
    };
    let sc = &s.scenario;
    simulate(&sc.graph, &sc.routing, &sc.traffic, &cfg).map_err(|e| e.to_string())
}

/// Autodiff tape nodes of one sample's forward pass.
fn tape_nodes(model: &RouteNet, compiled: &CompiledScenario) -> usize {
    let packed = BatchedScenario::pack(&[compiled]);
    let mut sess = Session::new(model.store());
    model.forward_batch(&mut sess, &packed);
    sess.tape.len()
}

/// One set-up: datasets plus a freshly initialised model.
fn setup(
    seed: u64,
    work: &Path,
    tracer: Option<(&mut Tracer, &mut SimCounts)>,
) -> Result<(Datasets, RouteNet), String> {
    let data = build_datasets(seed, work, tracer)?;
    Ok((data, RouteNet::new(RouteNetConfig::default())))
}

fn epochs_for(seconds: u64) -> usize {
    ((seconds as f64 * EPOCHS_PER_SECOND).round() as usize).max(MIN_EPOCHS)
}

struct TrainRun {
    wall_s: f64,
    cpu_s: f64,
    epochs: usize,
    /// Per-epoch wall seconds, from the trainer's `Epoch` events.
    epoch_s: Vec<f64>,
    failed: u64,
    tel: Telemetry,
}

fn run_training(model: &mut RouteNet, train_set: &[Sample], epochs: usize) -> TrainRun {
    let tel = Telemetry::in_memory("perfbench", "offline");
    let cfg = TrainConfig {
        epochs,
        telemetry: tel.clone(),
        ..TrainConfig::default()
    };
    let cpu0 = host::self_cpu_s();
    let t0 = Instant::now();
    let result = train(model, train_set, &[], &cfg);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::self_cpu_s() - cpu0;
    let n = train_set.len() as f64;
    let epoch_s: Vec<f64> = tel
        .records()
        .iter()
        .filter_map(|r| match &r.event {
            Event::Epoch { samples_per_s, .. } if *samples_per_s > 0.0 => Some(n / samples_per_s),
            _ => None,
        })
        .collect();
    let (epochs_done, failed) = match &result {
        Ok(report) => {
            let bad_loss = report
                .epochs
                .iter()
                .filter(|e| !e.train_loss.is_finite())
                .count();
            (
                report.epochs.len(),
                (report.recoveries.len() + bad_loss) as u64,
            )
        }
        Err(e) => {
            eprintln!("perfbench: training failed: {e}");
            (0, (epochs * train_set.len()) as u64)
        }
    };
    TrainRun {
        wall_s,
        cpu_s,
        epochs: epochs_done,
        epoch_s,
        failed,
        tel,
    }
}

/// Delay mean relative error on the Geant2 set and the count of
/// non-finite predictions.
fn evaluate(model: &RouteNet, eval: &[Sample]) -> (f64, u64) {
    let paired = collect_predictions(model, eval);
    let bad = paired.delay_pred.iter().filter(|p| !p.is_finite()).count() as u64;
    let mre = paired.delay_summary().map_or(f64::NAN, |s| s.mre);
    (mre, bad)
}

pub fn run(seed: u64, seconds: u64, work: &Path, trace: bool) -> Result<Outcome, String> {
    let epochs = epochs_for(seconds);
    if trace {
        return run_traced(seed, epochs, work);
    }
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let built = setup(seed, work, None)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    let (data, mut model) = last.ok_or("no set-up ran")?;
    let n_train = data.train.len();
    let tr = run_training(&mut model, &data.train, epochs);
    let (mre, bad_preds) = evaluate(&model, &data.eval);
    // Exact work counts, taken after the measurement.
    let mut counts = SimCounts::default();
    let sim = &gen_configs(seed)[0].sim;
    for s in data.train.iter().chain(&data.eval) {
        counts.add(&simulate_again(sim, s)?);
    }
    let first_nsfnet = data
        .train
        .iter()
        .find(|s| s.topology == "NSFNET")
        .ok_or("no NSFNET sample")?;
    let nodes = tape_nodes(&model, &model.compile(&first_nsfnet.scenario));
    let sample_epochs = (n_train * tr.epochs) as f64;
    let epoch_ms_per_sample: Vec<f64> = tr
        .epoch_s
        .iter()
        .map(|s| s * 1e3 / n_train as f64)
        .collect();
    let sorted = stats::sorted(&epoch_ms_per_sample);
    let tail_q =
        stats::tail_quantile(sorted.len()).ok_or("too few epochs for a tail percentile")?;

    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&setup_s).unwrap_or(f64::NAN), "s");
    m.put("ops_per_s", sample_epochs / tr.wall_s, "1/s");
    m.put("cpu_ms_per_op", tr.cpu_s * 1e3 / sample_epochs, "ms");
    m.put(
        "op_p50_ms",
        stats::median(&epoch_ms_per_sample).unwrap_or(f64::NAN),
        "ms",
    );
    m.put(
        "op_tail_ms",
        stats::percentile(&sorted, tail_q).unwrap_or(f64::NAN),
        "ms",
    );

    let failed = tr.failed + bad_preds + u64::from(!mre.is_finite());
    eprintln!(
        "perfbench offline: {n_train} samples x {} epochs, eval {} Geant2 samples, delay_mre_unseen {mre:.4}, \
         op_tail = p{:.0} of {} epochs, dataset {} bytes",
        tr.epochs,
        data.eval.len(),
        tail_q * 100.0,
        sorted.len(),
        data.bytes
    );
    Ok(Outcome {
        correct: failed == 0 && tr.epochs == epochs,
        attempted: (n_train * epochs + data.eval.len()) as u64,
        failed,
        metrics: m,
        counts: format!(
            "{{\"train_samples\":{n_train},\"epochs\":{},\"sample_epochs\":{sample_epochs},\"eval_samples\":{},\
             \"delay_mre_unseen\":{mre},\"dataset_bytes\":{},\"sim_events\":{},\"sim_packets\":{},\
             \"tape_nodes_per_sample\":{nodes}}}",
            tr.epochs,
            data.eval.len(),
            data.bytes,
            counts.events,
            counts.packets
        ),
    })
}

/// Loss inputs of one sample: its compiled scenario and normalised targets.
struct Item<'a> {
    topo: &'a str,
    compiled: CompiledScenario,
    target: Tensor,
}

/// One training step replayed through the public layer functions, single
/// threaded: pack, forward, loss, backward, per-sample gradient
/// extraction, and the clipped Adam update.
fn replay_step(
    t: &mut Tracer,
    model: &mut RouteNet,
    opt: &mut Adam,
    items: &[&Item],
    arena: Tape,
    fwd_name: &'static str,
) -> Tape {
    t.span("replay.step", None, |t| {
        let compiled: Vec<&CompiledScenario> = items.iter().map(|it| &it.compiled).collect();
        let batch = t.span("core.pack", None, |_| BatchedScenario::pack(&compiled));
        let rows: usize = items.iter().map(|it| it.target.rows()).sum();
        let cols = model.out_dim();
        let mut data = Vec::with_capacity(rows * cols);
        for it in items {
            data.extend_from_slice(it.target.data());
        }
        let targets = Tensor::from_vec(rows, cols, data);
        let weights = Arc::new(Tensor::from_fn(rows, cols, |_, _| 1.0));
        let (per_sample, tape) = {
            let mut sess = Session::with_tape(model.store(), arena);
            let out = t.span(fwd_name, None, |_| model.forward_batch(&mut sess, &batch));
            let weighted = sess.tape.mul_const_shared(out, &weights);
            let seg_loss = sess.tape.seg_mse(weighted, &targets, batch.path_seg());
            let total = sess.tape.sum_all(seg_loss);
            let grads = t.span("nn.backward", None, |_| sess.tape.backward(total));
            let per_sample = t.span("nn.grad_extract", None, |_| {
                sess.param_grads_seg(&grads, items.len())
            });
            (per_sample, sess.into_tape())
        };
        t.span("nn.optim_step", None, |_| {
            let mut acc = GradAccumulator::new(model.store());
            for pg in &per_sample {
                acc.add(pg);
            }
            let mut mean = acc.take_mean();
            clip_global_norm(&mut mean, TrainConfig::default().clip_norm);
            opt.step(model.store_mut(), &mean);
        });
        tape
    })
}

fn run_traced(seed: u64, epochs: usize, work: &Path) -> Result<Outcome, String> {
    let mut t = Tracer::new();
    let mut counts = SimCounts::default();
    let (data, mut model) = setup(seed, work, Some((&mut t, &mut counts)))?;
    let n_train = data.train.len();
    let tr = run_training(&mut model, &data.train, epochs);
    let (mre, bad_preds) = t.span("core.eval", None, |_| evaluate(&model, &data.eval));

    // Replay one epoch of training steps on a copy of the trained model,
    // in single-topology batches so forward time splits by topology.
    let mut replica = RouteNet::from_json(&model.to_json()).map_err(|e| e.to_string())?;
    let mut opt = Adam::new(replica.store(), TrainConfig::default().lr);
    let norm = replica.normalizer().clone();
    let cols = replica.out_dim();
    let mut items = Vec::with_capacity(n_train + data.eval.len());
    for s in data.train.iter().chain(&data.eval) {
        let plan = t.span("core.plan_build", None, |_| PathTensors::build(&s.scenario));
        let compiled = t.span("core.compile", None, |_| {
            replica.compile_with_index(&s.scenario, plan)
        });
        let z = norm.normalize_targets(&s.targets);
        let target = Tensor::from_fn(z.rows(), cols, |r, c| z.get(r, c.min(1)));
        items.push(Item {
            topo: s.topology.as_str(),
            compiled,
            target,
        });
    }
    // Two passes over the same steps: the first fills the arena and is not
    // traced, the second is the steady state the spans and misses describe.
    let batch = TrainConfig::default().batch_size;
    let mut arena = Tape::new();
    let mut steps = 0usize;
    let mut steady_misses = 0u64;
    let mut warm = Tracer::new();
    for pass in 0..2 {
        let tr = if pass == 0 { &mut warm } else { &mut t };
        for (topo, name) in [
            ("NSFNET", "core.forward.nsfnet"),
            ("Synth-50", "core.forward.synth50"),
        ] {
            let group: Vec<&Item> = items[..n_train]
                .iter()
                .filter(|it| it.topo == topo)
                .collect();
            for chunk in group.chunks(batch) {
                let before = arena.reuse_misses();
                arena = replay_step(tr, &mut replica, &mut opt, chunk, arena, name);
                if pass == 1 {
                    steps += 1;
                    steady_misses += arena.reuse_misses() - before;
                }
            }
        }
    }
    let geant2: Vec<&Item> = items[n_train..].iter().collect();
    for chunk in geant2.chunks(batch) {
        let compiled: Vec<&CompiledScenario> = chunk.iter().map(|it| &it.compiled).collect();
        let packed = BatchedScenario::pack(&compiled);
        let mut sess = Session::with_tape(replica.store(), arena);
        t.span("core.forward.geant2", None, |_| {
            replica.forward_batch(&mut sess, &packed)
        });
        arena = sess.into_tape();
    }
    let first_nsfnet = items
        .iter()
        .find(|it| it.topo == "NSFNET")
        .ok_or("no NSFNET sample")?;
    let tape_nodes = tape_nodes(&replica, &first_nsfnet.compiled);

    let per = |name: &str, n: usize| {
        if n == 0 {
            0.0
        } else {
            t.total_ms(name) / n as f64
        }
    };
    let count_topo = |topo: &str| items[..n_train].iter().filter(|it| it.topo == topo).count();
    let n_gen = t.count("dataset.generate_inputs");
    let sim_ms = t.total_ms("simnet.simulate");
    let epoch_med = stats::median(&tr.epoch_s).unwrap_or(f64::NAN);
    let threads = host::nproc() as f64;
    let mb = data.bytes as f64 / 1e6;

    let mut m = Metrics::default();
    m.put("simnet.simulate_ms", per("simnet.simulate", n_gen), "ms");
    m.put(
        "simnet.events_per_s",
        counts.events as f64 / (sim_ms / 1e3),
        "1/s",
    );
    m.put("simnet.events", counts.events as f64, "count");
    m.put("simnet.packets", counts.packets as f64, "count");
    m.put(
        "dataset.generate_sample_self_ms",
        per("dataset.generate_inputs", n_gen),
        "ms",
    );
    m.put(
        "dataset.save_mb_per_s",
        mb / (t.total_ms("dataset.save") / 1e3),
        "MB/s",
    );
    m.put(
        "dataset.load_mb_per_s",
        mb / (t.total_ms("dataset.load") / 1e3),
        "MB/s",
    );
    m.put(
        "core.forward_ms_per_sample.nsfnet",
        per("core.forward.nsfnet", count_topo("NSFNET")),
        "ms",
    );
    m.put(
        "core.forward_ms_per_sample.geant2",
        per("core.forward.geant2", data.eval.len()),
        "ms",
    );
    m.put(
        "core.forward_ms_per_sample.synth50",
        per("core.forward.synth50", count_topo("Synth-50")),
        "ms",
    );
    m.put("core.tape_nodes_per_sample", tape_nodes as f64, "count");
    m.put(
        "nn.backward_ms_per_sample",
        per("nn.backward", n_train),
        "ms",
    );
    m.put("nn.grad_extract_ms", per("nn.grad_extract", steps), "ms");
    m.put("nn.optim_step_ms", per("nn.optim_step", steps), "ms");
    m.put(
        "nn.arena_misses_per_step",
        steady_misses as f64 / steps.max(1) as f64,
        "count",
    );
    m.put("core.train_epoch_s", epoch_med, "s");
    m.put(
        "core.train_parallel_eff",
        (t.total_ms("replay.step") / 1e3) / (threads * epoch_med),
        "ratio",
    );
    m.put(
        "core.train_sample_epochs",
        (n_train * tr.epochs) as f64,
        "count",
    );
    m.put("core.delay_mre_unseen", mre, "ratio");
    m.put("core.pack_ms_per_sample", per("core.pack", n_train), "ms");
    m.put(
        "core.plan_build_ms",
        per("core.plan_build", items.len()),
        "ms",
    );
    m.put("core.plan_misses", items.len() as f64, "count");
    m.put("core.compile_ms", per("core.compile", items.len()), "ms");
    m.put(
        "trace.ops_per_s",
        (n_train * tr.epochs) as f64 / tr.wall_s,
        "1/s",
    );
    let arena_misses = tr.tel.counter("train.arena_reuse_misses");

    std::fs::write(work.join("spans-offline.jsonl"), t.to_jsonl()).map_err(|e| e.to_string())?;
    let failed = tr.failed + bad_preds + u64::from(!mre.is_finite());
    Ok(Outcome {
        correct: failed == 0 && tr.epochs == epochs,
        attempted: (n_train * epochs + data.eval.len()) as u64,
        failed,
        metrics: m,
        counts: format!(
            "{{\"events\":{},\"packets\":{},\"train_arena_misses\":{arena_misses},\"replay_steps\":{steps}}}",
            counts.events, counts.packets
        ),
    })
}
