//! The prediction engine: a shared immutable model plus per-worker scratch.
//!
//! An [`Engine`] is split in two. The trained [`RouteNet`] is immutable while
//! serving, so it is loaded once and shared as an `Arc` by every batcher
//! worker. The mutable part — the [`PlanCache`] and the arena [`Tape`] — is
//! owned by one engine and therefore by one worker thread, so prediction
//! takes no lock. [`Engine::fork`] makes a sibling for another worker: same
//! model, fresh cache and arena. Connection threads never touch an engine;
//! they only move queries through the queue.

use crate::cache::PlanCache;
use routenet_core::checkpoint::{CheckpointError, TrainState, MAGIC};
use routenet_core::{Prediction, RouteNet, Scenario};
use routenet_faults::FsHandle;
use routenet_nn::Tape;
use std::path::Path;
use std::sync::Arc;

/// Upper bound, in f64 scalars, on the arena buffer capacity a worker keeps
/// between micro-batches (96 MB). A full default `max_batch` of 32 NSFNET
/// queries on 4-hop routings records 8.9M–9.5M scalars with the default
/// model, so the bound holds one full batch with room to spare. Without it
/// the pool only grows: batches of varying shape draw buffers at the wrong
/// size and grow them (see [`Tape::reuse_grows`]), and in a replay of 60
/// mixed-size batches the pool reached 31.6M scalars. Beyond the bound the
/// largest buffers are dropped ([`Tape::trim_pool`]).
const ARENA_POOL_SCALARS: usize = 12_000_000;

/// Typed serving failures. The daemon maps each to an error response or a
/// clean exit — it never panics on bad input or injected IO faults.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem error reaching the model artifact (through the IO seam).
    Io(std::io::Error),
    /// The model artifact is a checkpoint container but failed to load.
    Checkpoint(CheckpointError),
    /// The model artifact is a JSON export but failed to parse.
    Model(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "model io error: {e}"),
            ServeError::Checkpoint(e) => write!(f, "checkpoint load failed: {e}"),
            ServeError::Model(msg) => write!(f, "model parse failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

/// Shared model + this worker's plan cache and arena tape.
pub struct Engine {
    model: Arc<RouteNet>,
    cache: PlanCache,
    arena: Option<Tape>,
}

impl Engine {
    /// Load a model artifact through the IO seam — either a `TrainState`
    /// checkpoint (detected by its `ROUTENET-CKPT` header; yields the best
    /// parameters) or a `RouteNet::to_json` export — and allot a plan cache
    /// of `cache_cap` topologies.
    #[must_use = "dropping the result loses both the engine and the load failure"]
    pub fn load(fs: &FsHandle, path: &Path, cache_cap: usize) -> Result<Engine, ServeError> {
        let text = fs.fs().read_to_string(path)?;
        let model = if text.starts_with(MAGIC) {
            TrainState::load_with(fs.fs(), path)?.into_model()?
        } else {
            RouteNet::from_json(&text).map_err(|e| ServeError::Model(e.to_string()))?
        };
        Ok(Engine::from_model(model, cache_cap))
    }

    /// Wrap an already-loaded model (tests, embedded use).
    pub fn from_model(model: RouteNet, cache_cap: usize) -> Engine {
        Engine {
            model: Arc::new(model),
            cache: PlanCache::new(cache_cap),
            arena: Some(Tape::new()),
        }
    }

    /// A sibling engine for another worker thread: it shares this engine's
    /// model (no copy, no reload) and gets its own empty plan cache of the
    /// same capacity and its own arena tape.
    pub fn fork(&self) -> Engine {
        Engine {
            model: Arc::clone(&self.model),
            cache: PlanCache::new(self.cache.capacity()),
            arena: Some(Tape::new()),
        }
    }

    /// The loaded model.
    pub fn model(&self) -> &RouteNet {
        &self.model
    }

    /// Predict one micro-batch in a single batched forward pass, reusing
    /// cached per-topology plans and the arena tape. Scenarios must be
    /// finalized and validated with at least one routed pair each (the
    /// server rejects anything else before it reaches the queue). Returns
    /// one prediction vector per scenario, in input order — bitwise
    /// identical, per sample, to the offline per-sample predict path.
    pub fn predict(&mut self, scenarios: &[&Scenario]) -> Vec<Vec<Prediction>> {
        if scenarios.is_empty() {
            return Vec::new();
        }
        let compiled: Vec<_> = scenarios
            .iter()
            .map(|sc| {
                let plan = self.cache.plan_for(sc);
                self.model.compile_with_index(sc, plan)
            })
            .collect();
        let refs: Vec<_> = compiled.iter().collect();
        // lint: allow(panic, reason = "arena is only vacant inside this call; both exits restore it")
        let arena = self.arena.take().expect("arena present between batches");
        let (preds, mut arena) = self.model.predict_batch_compiled_reuse(&refs, arena);
        // Pool the whole tape now, so the bound covers everything the
        // worker keeps until its next batch.
        arena.reset();
        arena.trim_pool(ARENA_POOL_SCALARS);
        self.arena = Some(arena);
        preds
    }

    /// `(hits, misses)` of this engine's plan cache (forks count apart).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routenet_core::RouteNetConfig;
    use routenet_netgraph::routing::shortest_path_routing;
    use routenet_netgraph::topology::nsfnet;
    use routenet_netgraph::TrafficMatrix;

    fn model() -> RouteNet {
        let mut m = RouteNet::new(RouteNetConfig {
            link_state_dim: 4,
            path_state_dim: 4,
            readout_hidden: 8,
            t_iterations: 2,
            predict_jitter: true,
            predict_drops: false,
            seed: 3,
        });
        m.set_normalizer(routenet_core::features::Normalizer {
            capacity_scale: 10_000.0,
            traffic_scale: 200.0,
            ..routenet_core::features::Normalizer::default()
        });
        m
    }

    fn scenario(demand: f64) -> Scenario {
        let g = nsfnet();
        let routing = shortest_path_routing(&g).unwrap();
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
    fn engine_batches_match_offline_predictions_bitwise() {
        let m = model();
        let scenarios = [scenario(100.0), scenario(180.0), scenario(40.0)];
        let refs: Vec<&Scenario> = scenarios.iter().collect();
        let offline = {
            use routenet_core::KpiPredictor;
            m.predict_batch(&refs)
        };
        let mut engine = Engine::from_model(model(), 4);
        assert_same_bits(&engine.predict(&refs), &offline);
        // Three same-topology queries compiled against one cached plan.
        assert_eq!(engine.cache_stats(), (2, 1));
    }

    fn assert_same_bits(served: &[Vec<Prediction>], offline: &[Vec<Prediction>]) {
        assert_eq!(served.len(), offline.len());
        for (s, o) in served.iter().zip(offline) {
            assert_eq!(s.len(), o.len());
            for (a, b) in s.iter().zip(o) {
                assert_eq!(a.delay_s.to_bits(), b.delay_s.to_bits());
                assert_eq!(a.jitter_s2.to_bits(), b.jitter_s2.to_bits());
                assert_eq!(a.drop_prob.to_bits(), b.drop_prob.to_bits());
            }
        }
    }

    #[test]
    fn forked_engine_shares_the_model_but_keeps_its_own_cache() {
        let scenarios = [scenario(100.0), scenario(60.0)];
        let refs: Vec<&Scenario> = scenarios.iter().collect();
        let mut engine = Engine::from_model(model(), 4);
        let first = engine.predict(&refs);
        let mut fork = engine.fork();
        assert!(
            std::ptr::eq(engine.model(), fork.model()),
            "a fork must share the loaded model, not copy it"
        );
        assert_eq!(
            fork.cache_stats(),
            (0, 0),
            "a fork starts with an empty cache"
        );
        assert_same_bits(&fork.predict(&refs), &first);
        assert_eq!(fork.cache_stats(), (1, 1));
        // The fork's lookups did not touch the parent's counters.
        assert_eq!(engine.cache_stats(), (1, 1));
        engine.predict(&refs[..1]);
        assert_eq!(engine.cache_stats(), (2, 1));
        assert_eq!(fork.cache_stats(), (1, 1));
    }

    /// The arena bound holds one full default-size batch of NSFNET
    /// queries: nothing is trimmed, and replaying the batch allocates no
    /// value buffer.
    #[test]
    fn arena_budget_holds_a_full_nsfnet_batch() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use routenet_netgraph::routing::randomized_routing;
        let mut m = RouteNet::new(RouteNetConfig::default());
        m.set_normalizer(model().normalizer().clone());
        let g = nsfnet();
        let mut rng = StdRng::seed_from_u64(5);
        let scenarios: Vec<Scenario> = (0..crate::ServerConfig::default().max_batch)
            .map(|i| Scenario {
                routing: randomized_routing(&g, 2.0, &mut rng).unwrap(),
                ..scenario(100.0 + i as f64)
            })
            .collect();
        let refs: Vec<&Scenario> = scenarios.iter().collect();
        let mut engine = Engine::from_model(m, 4);
        engine.predict(&refs);
        let arena = engine.arena.as_ref().unwrap();
        let (misses, grows) = (arena.reuse_misses(), arena.reuse_grows());
        assert_eq!(
            arena.pool_scalars(),
            arena.max_scalars(),
            "the whole batch stays pooled"
        );
        assert!(arena.pool_scalars() <= ARENA_POOL_SCALARS);
        engine.predict(&refs);
        let arena = engine.arena.as_ref().unwrap();
        assert_eq!((arena.reuse_misses(), arena.reuse_grows()), (misses, grows));
    }

    #[test]
    fn engine_load_surfaces_typed_errors() {
        use routenet_faults::{FaultKind, FaultPlan, FaultRule, OpKind};
        let plan = FaultPlan::new().rule(FaultRule::every(1, FaultKind::Eio).on_op(OpKind::Read));
        let (fs, _plan) = FsHandle::faulty(plan);
        let err = Engine::load(&fs, Path::new("/nonexistent/model.json"), 2)
            .err()
            .expect("must fail");
        assert!(matches!(err, ServeError::Io(_)), "{err}");
        assert!(err.to_string().contains("io error"));
    }
}
