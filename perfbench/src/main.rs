//! Benchmark of the RouteNet workspace, end to end and per layer.
//!
//! ```text
//! routenet-perfbench --workload <offline|serve-sweep> --seed N \
//!     --seconds S --trace <0|1> --daemon <routenet-serve binary> \
//!     [--model perfbench/model.json] [--work .bench_work]
//! routenet-perfbench train-model --out perfbench/model.json
//! ```
//!
//! The last line of standard output is the JSON result: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1` (see
//! `report.rs` and BENCHMARK.json). Exact work counts and a host-noise
//! record go to `<work>/<workload>-seed<N>-trace<T>.meta.json` and stderr.
//! `perfbench/run.py` builds everything and is the entry point.

mod host;
mod offline;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;

use routenet_core::eval::collect_predictions;
use routenet_core::{train, RouteNet, RouteNetConfig, TrainConfig};
use routenet_dataset::split::SYNTH50_TOPOLOGY_SEED;
use routenet_dataset::{generate_dataset, GenConfig, TopologySpec};
use std::path::PathBuf;

struct Args(Vec<String>);

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        let flag = format!("--{key}");
        self.0
            .iter()
            .position(|a| *a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn require(&self, key: &str) -> &str {
        self.get(key)
            .unwrap_or_else(|| usage(&format!("missing --{key}")))
    }

    fn number(&self, key: &str) -> u64 {
        self.require(key)
            .parse()
            .unwrap_or_else(|_| usage(&format!("--{key} takes a whole number")))
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "routenet-perfbench: {msg}\nusage: routenet-perfbench --workload <offline|serve-sweep> \
         --seed N --seconds S --trace <0|1> --daemon <path> [--model <path>] [--work <dir>]\n       \
         routenet-perfbench train-model --out <path>"
    );
    std::process::exit(2);
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    if args.0.first().map(String::as_str) == Some("train-model") {
        train_model(&PathBuf::from(args.require("out")));
        return;
    }
    let workload = args.require("workload").to_string();
    let seed = args.number("seed");
    let seconds = args.number("seconds").max(1);
    let trace = match args.require("trace") {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    let work = PathBuf::from(args.get("work").unwrap_or(".bench_work"));
    let model = PathBuf::from(args.get("model").unwrap_or("perfbench/model.json"));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("routenet-perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }

    let before = host::HostSample::take();
    let outcome = match workload.as_str() {
        "offline" => offline::run(seed, seconds, &work, trace),
        "serve-sweep" => {
            let daemon = PathBuf::from(args.require("daemon"));
            serve::run_sweep_workload(&serve::Ctx {
                daemon_bin: &daemon,
                model_path: &model,
                work: &work,
                seed,
                seconds,
                trace,
            })
        }
        other => usage(&format!("unknown workload `{other}`")),
    };
    let after = host::HostSample::take();
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("routenet-perfbench: {workload} failed: {e}");
            std::process::exit(1);
        }
    };
    let meta = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{},\"counts\":{},\"host\":{}}}\n",
        u8::from(trace),
        outcome.counts,
        host::noise_record(&before, &after)
    );
    eprint!("perfbench meta: {meta}");
    let meta_path = work.join(format!(
        "{workload}-seed{seed}-trace{}.meta.json",
        u8::from(trace)
    ));
    if let Err(e) = std::fs::write(&meta_path, &meta) {
        eprintln!(
            "routenet-perfbench: cannot write {}: {e}",
            meta_path.display()
        );
    }
    println!("{}", report::result_line(&outcome, trace));
}

/// The fixed recipe of the pinned serve model: default architecture and
/// `TrainConfig`, 30 epochs on 48 NSFNET + 8 Synth-50 samples. Serve runs
/// load its output and never retrain, so a trainer change cannot shift
/// serve numbers through the weights.
fn train_model(out: &std::path::Path) {
    let gen = |topo: TopologySpec, n: usize, seed: u64| {
        let mut c = GenConfig::new(topo, n, seed);
        c.sim.duration_s = 400.0;
        c.sim.warmup_s = 40.0;
        generate_dataset(&c)
    };
    let mut data = gen(TopologySpec::Nsfnet, 48, 9_100);
    data.extend(gen(
        TopologySpec::Synthetic {
            n: 50,
            topo_seed: SYNTH50_TOPOLOGY_SEED,
        },
        8,
        9_200,
    ));
    let eval = gen(TopologySpec::Geant2, 8, 9_300);
    let mut model = RouteNet::new(RouteNetConfig::default());
    let cfg = TrainConfig {
        epochs: 30,
        verbose: true,
        ..TrainConfig::default()
    };
    if let Err(e) = train(&mut model, &data, &[], &cfg) {
        eprintln!("train-model: {e}");
        std::process::exit(1);
    }
    let mre = collect_predictions(&model, &eval)
        .delay_summary()
        .map_or(f64::NAN, |s| s.mre);
    eprintln!("train-model: Geant2 delay MRE {mre:.4}");
    if let Err(e) = std::fs::write(out, model.to_json()) {
        eprintln!("train-model: cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
}
