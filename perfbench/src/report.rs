//! Metric names, units and the result line the benchmark prints last.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run (see BENCHMARK.json).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not exercise reads 0 there.
///
/// Which end-to-end metric each layer should move (`—` = idle there):
///
/// | per-layer metric | moves | idle on |
/// |---|---|---|
/// | `simnet.*` | offline `setup_s` | serve-sweep |
/// | `dataset.*` | offline `setup_s` | serve-sweep |
/// | `core.forward_ms_per_sample.nsfnet`, `core.tape_nodes_per_sample` | offline `ops_per_s`; serve-sweep `ops_per_s` | — |
/// | `core.forward_ms_per_sample.geant2`, `core.forward_ms_per_sample.synth50` | offline `ops_per_s` (Geant2: evaluation) | serve-sweep |
/// | `nn.backward_ms_per_sample`, `nn.grad_extract_ms`, `nn.optim_step_ms` | offline `ops_per_s` | serve-sweep |
/// | `nn.arena_misses_per_step` | offline `cpu_ms_per_op` | serve-sweep |
/// | `core.train_*`, `core.delay_mre_unseen` | offline `ops_per_s` (MRE: a quality guard) | serve-sweep |
/// | `core.pack_ms_per_sample` | offline `ops_per_s`; serve-sweep `ops_per_s` | — |
/// | `core.plan_build_ms`, `core.plan_misses`, `serve.plan_hit_ratio` | serve-sweep `ops_per_s` (hit ratio ≈ 0 by design) | — |
/// | `core.compile_ms` | serve-sweep `ops_per_s` | — |
/// | `serve.decode_us`, `serve.encode_us`, `serve.engine_ms_per_query` | serve-sweep `ops_per_s`, `op_p50_ms` | offline |
/// | `serve.batch_mean`, `serve.daemon_p50_ms` | serve-sweep `ops_per_s` | offline |
/// | `serve.queue_wait_ms_tail` | serve-sweep `op_tail_ms` | offline |
/// | `serve.queries_*` | exact work counts of serve-sweep | offline |
/// | `loadgen.cpu_ms_per_op` | validity of serve-sweep runs (must stay well under the daemon's CPU) | offline |
/// | `trace.ops_per_s` | the traced run's own `ops_per_s`: tracing overhead is its gap to the untraced run | — |
pub const PER_LAYER: [(&str, &str); 35] = [
    ("simnet.simulate_ms", "ms"),
    ("simnet.events_per_s", "1/s"),
    ("simnet.events", "count"),
    ("simnet.packets", "count"),
    ("dataset.generate_sample_self_ms", "ms"),
    ("dataset.save_mb_per_s", "MB/s"),
    ("dataset.load_mb_per_s", "MB/s"),
    ("core.forward_ms_per_sample.nsfnet", "ms"),
    ("core.forward_ms_per_sample.geant2", "ms"),
    ("core.forward_ms_per_sample.synth50", "ms"),
    ("core.tape_nodes_per_sample", "count"),
    ("nn.backward_ms_per_sample", "ms"),
    ("nn.grad_extract_ms", "ms"),
    ("nn.optim_step_ms", "ms"),
    ("nn.arena_misses_per_step", "count"),
    ("core.train_epoch_s", "s"),
    ("core.train_parallel_eff", "ratio"),
    ("core.train_sample_epochs", "count"),
    ("core.delay_mre_unseen", "ratio"),
    ("core.pack_ms_per_sample", "ms"),
    ("core.plan_build_ms", "ms"),
    ("core.plan_misses", "count"),
    ("core.compile_ms", "ms"),
    ("serve.plan_hit_ratio", "ratio"),
    ("serve.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.engine_ms_per_query", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.daemon_p50_ms", "ms"),
    ("serve.queue_wait_ms_tail", "ms"),
    ("serve.queries_sent", "count"),
    ("serve.queries_answered", "count"),
    ("serve.queries_failed", "count"),
    ("loadgen.cpu_ms_per_op", "ms"),
    ("trace.ops_per_s", "1/s"),
];

/// Named metric values in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.retain(|(n, _, _)| n != name);
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Restrict to `names`, in that order; a name never put reads 0 (an
    /// idle layer). Returns the names that were missing.
    fn select(&self, names: &[(&str, &str)]) -> (Metrics, Vec<String>) {
        let mut missing = Vec::new();
        let picked = names
            .iter()
            .map(|&(name, unit)| {
                let v = self.get(name).unwrap_or_else(|| {
                    missing.push(name.to_string());
                    0.0
                });
                (name.to_string(), v, unit.to_string())
            })
            .collect();
        (Metrics(picked), missing)
    }
}

/// What one run measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Exact work counts of the run, as a JSON object (metadata).
    pub counts: String,
}

/// The result line: every end-to-end metric (untraced) or every per-layer
/// metric (traced). A run missing an end-to-end metric, or holding a
/// non-finite value, is not correct.
pub fn result_line(out: &Outcome, trace: bool) -> String {
    let (m, missing) = out
        .metrics
        .select(if trace { &PER_LAYER } else { &END_TO_END });
    let finite = m.0.iter().all(|(_, v, _)| v.is_finite());
    let correct = out.correct && finite && (trace || missing.is_empty());
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, v, unit)) in m.0.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_and_flags_gaps() {
        let mut m = Metrics::default();
        for (name, unit) in END_TO_END {
            m.put(name, 1.25, unit);
        }
        let out = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: m,
            counts: "{}".into(),
        };
        let line = result_line(&out, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        for (name, _) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": 1.25")),
                "{line}"
            );
        }
        // Traced output fills idle layers with 0 and stays correct.
        let traced = result_line(&out, true);
        assert!(traced.contains("\"simnet.events\": {\"value\": 0.0, \"unit\": \"count\"}"));
        assert!(traced.starts_with("{\"correct\": true"));
        // A non-finite end-to-end value makes the run incorrect.
        let mut bad = Metrics::default();
        bad.put("setup_s", f64::NAN, "s");
        let out = Outcome {
            metrics: bad,
            ..out
        };
        assert!(result_line(&out, false).starts_with("{\"correct\": false"));
    }
}
