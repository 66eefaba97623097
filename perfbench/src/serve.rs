//! The `serve-sweep` workload: the real `routenet-serve` daemon driven over
//! TCP by a routing-optimisation sweep.
//!
//! A closed loop of `nproc` connections, each keeping a fixed window of
//! queries in flight. Every query is NSFNET with a routing from a pool eight
//! times the daemon's plan cache, so every query misses the cache and
//! batches are full. The daemon loads one pinned model artifact, and every
//! response is compared byte for byte with the offline reference from the
//! same model.

use crate::host;
use crate::report::{Metrics, Outcome};
use crate::schedule::{request_line, Topo};
use crate::stats;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use routenet_core::batch::BatchedScenario;
use routenet_core::model::CompiledScenario;
use routenet_core::{Prediction, RouteNet, Scenario};
use routenet_dataset::TopologySpec;
use routenet_nn::{Session, Tape};
use routenet_obs::{Event, Record};
use routenet_serve::{Engine, PlanCache, Request, Response};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Queries each connection keeps in flight.
const SWEEP_WINDOW: usize = 16;
/// Routing pool, larger than the daemon's plan cache.
const SWEEP_ROUTINGS: usize = 64;
/// Distinct scenarios, cycled by query id.
const SWEEP_POOL: usize = 512;
/// Unmeasured lead-in before the measured window opens.
const SWEEP_WARMUP_S: f64 = 2.0;
/// Queries replayed in process by a traced run.
const SWEEP_REPLAY: usize = 256;
/// The daemon's default plan-cache capacity.
const CACHE_CAP: usize = 8;
/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// Warm-up queries of each start-up: one full batch at the daemon's default
/// `--max-batch`, pipelined on one connection, each on its own routing. A
/// start-up ends when all of them are answered, so it holds a fixed amount
/// of model work next to the process spawn and model load.
const SETUP_WARM: usize = 32;
/// A run is invalid when the generator, not the daemon, set the numbers:
/// loadgen CPU above this share of the daemon's per query, or a closed loop
/// off Little's law by more than this.
const LOADGEN_CPU_SHARE_LIMIT: f64 = 0.5;
const LITTLE_TOLERANCE: f64 = 0.15;
/// Ids of warm-up queries, clear of workload ids.
const WARM_ID: u64 = 1 << 40;
/// Longest wait for any daemon reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Ctx<'a> {
    pub daemon_bin: &'a Path,
    pub model_path: &'a Path,
    pub work: &'a Path,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

// ---------------------------------------------------------------------------
// Daemon process
// ---------------------------------------------------------------------------

struct Daemon {
    child: Option<Child>,
    port: u16,
}

impl Daemon {
    fn spawn(ctx: &Ctx, telemetry: Option<&Path>) -> Result<Daemon, String> {
        let port_file = ctx.work.join("daemon.port");
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(ctx.work.join("daemon.log")).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(ctx.daemon_bin);
        cmd.arg("--model")
            .arg(ctx.model_path)
            .args(["--listen", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        if let Some(path) = telemetry {
            cmd.arg("--telemetry").arg(path);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ctx.daemon_bin.display()))?;
        let mut d = Daemon {
            child: Some(child),
            port: 0,
        };
        let t0 = Instant::now();
        loop {
            if let Some(port) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                d.port = port;
                return Ok(d);
            }
            if let Some(status) = d.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if t0.elapsed() > REPLY_TIMEOUT {
                return Err("daemon did not bind within the timeout".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Ask for a graceful shutdown and wait for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let ack = exchange(self.port, &["{\"cmd\":\"shutdown\"}".to_string()]);
        let mut child = self.child.take().ok_or("daemon already reaped")?;
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return ack.map(|_| ()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if t0.elapsed() > REPLY_TIMEOUT => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon ignored shutdown".into());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn connect(port: u16) -> Result<TcpStream, String> {
    let s = TcpStream::connect(("127.0.0.1", port)).map_err(|e| e.to_string())?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(s)
}

/// Send `lines` pipelined on a fresh connection and return as many reply
/// lines, in arrival order.
fn exchange(port: u16, lines: &[String]) -> Result<Vec<String>, String> {
    let mut s = connect(port)?;
    let mut out = String::new();
    for l in lines {
        out.push_str(l);
        out.push('\n');
    }
    s.write_all(out.as_bytes()).map_err(|e| e.to_string())?;
    let mut r = BufReader::new(s);
    let mut replies = Vec::with_capacity(lines.len());
    while replies.len() < lines.len() {
        let mut reply = String::new();
        if r.read_line(&mut reply).map_err(|e| e.to_string())? == 0 {
            return Err("daemon closed the connection before replying".into());
        }
        replies.push(reply.trim_end().to_string());
    }
    Ok(replies)
}

/// What the start-ups of one run measured.
struct Setup {
    daemon: Daemon,
    times_s: Vec<f64>,
    /// Warm-up replies sent, and those not byte-equal to their reference.
    warm_sent: u64,
    warm_failed: u64,
}

/// Start the daemon `SETUP_REPEATS` times, each until every warm-up query is
/// answered; all but the last are shut down again. A warm-up reply that is
/// not byte-equal to `expected(id)` counts as failed.
fn start_daemon(
    ctx: &Ctx,
    warm: &[String],
    expected: &impl Fn(u64) -> String,
    telemetry: Option<&Path>,
) -> Result<Setup, String> {
    let mut times_s = Vec::with_capacity(SETUP_REPEATS);
    let mut warm_failed = 0;
    for k in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let d = Daemon::spawn(ctx, telemetry)?;
        let replies = exchange(d.port, warm)?;
        times_s.push(t0.elapsed().as_secs_f64());
        warm_failed += replies
            .iter()
            .filter(|l| response_id(l).map(expected).as_deref() != Some(l.as_str()))
            .count() as u64;
        if k + 1 == SETUP_REPEATS {
            return Ok(Setup {
                daemon: d,
                times_s,
                warm_sent: (SETUP_REPEATS * warm.len()) as u64,
                warm_failed,
            });
        }
        d.shutdown()?;
    }
    Err("no set-up ran".into())
}

fn response_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

// ---------------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------------

/// One answered query, times in seconds from the opening of the window.
struct Rec {
    id: u64,
    sent_s: f64,
    recv_s: f64,
    line: String,
}

fn secs_since(t: Instant, base: Instant) -> f64 {
    t.checked_duration_since(base)
        .map_or_else(|| -(base - t).as_secs_f64(), |d| d.as_secs_f64())
}

/// What a closed-loop run measured inside its window.
struct ClosedRun {
    recs: Vec<Rec>,
    window_s: f64,
    daemon_cpu_s: f64,
    loadgen_cpu_s: f64,
}

/// Closed loop: `conns` connections each keep `window` queries in flight
/// (query ids `c, c + conns, ...` on connection `c`) until the window
/// closes, then drain. Times are from the opening of the measured window.
fn run_closed(
    port: u16,
    pool: &[String],
    conns: usize,
    window: usize,
    seconds: f64,
    daemon_pid: u32,
) -> Result<ClosedRun, String> {
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| connect(port))
        .collect::<Result<_, _>>()?;
    let stop = AtomicBool::new(false);
    let (parts, t_start, t_end, daemon_cpu_s, loadgen_cpu_s) = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let stop = &stop;
                s.spawn(
                    move || -> Result<Vec<(u64, Instant, Instant, String)>, String> {
                        let mut w = stream.try_clone().map_err(|e| e.to_string())?;
                        let mut r = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
                        let mut in_flight: BTreeMap<u64, Instant> = BTreeMap::new();
                        let mut out = Vec::new();
                        let mut next = c as u64;
                        let mut line = String::new();
                        loop {
                            while !stop.load(Ordering::SeqCst) && in_flight.len() < window {
                                let body = &pool[(next % pool.len() as u64) as usize];
                                let req = format!("{}\n", request_line(next, body));
                                in_flight.insert(next, Instant::now());
                                w.write_all(req.as_bytes()).map_err(|e| e.to_string())?;
                                next += conns as u64;
                            }
                            if in_flight.is_empty() {
                                return Ok(out);
                            }
                            line.clear();
                            if r.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                                return Err("daemon closed a sweep connection".into());
                            }
                            let now = Instant::now();
                            let l = line.trim_end().to_string();
                            let id = response_id(&l)
                                .ok_or_else(|| format!("reply without id: {l:.200}"))?;
                            let sent = in_flight
                                .remove(&id)
                                .ok_or("reply for a query never sent")?;
                            out.push((id, sent, now, l));
                        }
                    },
                )
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(SWEEP_WARMUP_S));
        let t_start = Instant::now();
        let (d0, l0) = (host::cpu_s(daemon_pid).unwrap_or(0.0), host::self_cpu_s());
        std::thread::sleep(Duration::from_secs_f64(seconds));
        let t_end = Instant::now();
        let (d1, l1) = (host::cpu_s(daemon_pid).unwrap_or(0.0), host::self_cpu_s());
        stop.store(true, Ordering::SeqCst);
        let parts: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "sweep client panicked".to_string())
                    .and_then(|r| r)
            })
            .collect();
        (parts, t_start, t_end, d1 - d0, l1 - l0)
    });
    let mut recs = Vec::new();
    for part in parts {
        for (id, sent, recv, line) in part? {
            recs.push(Rec {
                id,
                sent_s: secs_since(sent, t_start),
                recv_s: secs_since(recv, t_start),
                line,
            });
        }
    }
    recs.sort_by_key(|r| r.id);
    Ok(ClosedRun {
        recs,
        window_s: (t_end - t_start).as_secs_f64(),
        daemon_cpu_s,
        loadgen_cpu_s,
    })
}

// ---------------------------------------------------------------------------
// Reference answers
// ---------------------------------------------------------------------------

/// Offline predictions of `scenarios` from the same model, through the
/// batched library path in chunks of 32 (answers do not depend on packing).
fn references(model: &RouteNet, scenarios: &[Scenario]) -> Vec<Vec<Prediction>> {
    let mut out = Vec::with_capacity(scenarios.len());
    for chunk in scenarios.chunks(32) {
        let compiled: Vec<CompiledScenario> = chunk.iter().map(|sc| model.compile(sc)).collect();
        let refs: Vec<&CompiledScenario> = compiled.iter().collect();
        out.extend(model.predict_batch_compiled(&refs));
    }
    out
}

fn load_model(path: &Path) -> Result<RouteNet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    RouteNet::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

fn telemetry_path(ctx: &Ctx) -> Option<PathBuf> {
    ctx.trace.then(|| ctx.work.join("daemon.telemetry.jsonl"))
}

/// `(mean batch, p50 latency ms)` from the daemon's end-of-run digest.
fn daemon_digest(path: &Path) -> Result<(f64, f64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    text.lines()
        .filter_map(|l| serde_json::from_str::<Record>(l).ok())
        .find_map(|r| match r.event {
            Event::Serve {
                mean_batch,
                p50_latency_s,
                ..
            } => Some((mean_batch, p50_latency_s * 1e3)),
            _ => None,
        })
        .ok_or_else(|| "daemon telemetry has no Serve digest".into())
}

/// Pool index of a workload or warm-up query id (`WARM_ID` is a multiple
/// of the pool size).
fn pool_index(id: u64) -> usize {
    (id % SWEEP_POOL as u64) as usize
}

pub fn run_sweep_workload(ctx: &Ctx) -> Result<Outcome, String> {
    let model = load_model(ctx.model_path)?;
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let topo = Topo::new(&TopologySpec::Nsfnet, SWEEP_ROUTINGS, &mut rng);
    let pool: Vec<Scenario> = (0..SWEEP_POOL)
        .map(|p| topo.scenario(p, &mut rng))
        .collect();
    let pool_json: Vec<String> = pool
        .iter()
        .map(|sc| serde_json::to_string(sc).expect("scenario serialises"))
        .collect();
    let reference = references(&model, &pool);
    let expected = |id: u64| Response::ok(id, reference[pool_index(id)].clone()).to_line();
    let warm: Vec<String> = (0..SETUP_WARM)
        .map(|k| request_line(WARM_ID + k as u64, &pool_json[k]))
        .collect();

    let tel = telemetry_path(ctx);
    let setup = start_daemon(ctx, &warm, &expected, tel.as_deref())?;
    let daemon = setup.daemon;
    let conns = host::nproc();
    let run = run_closed(
        daemon.port,
        &pool_json,
        conns,
        SWEEP_WINDOW,
        ctx.seconds as f64,
        daemon.pid(),
    )?;
    daemon.shutdown()?;

    let failed =
        setup.warm_failed + run.recs.iter().filter(|r| r.line != expected(r.id)).count() as u64;
    let in_window: Vec<&Rec> = run
        .recs
        .iter()
        .filter(|r| (0.0..=run.window_s).contains(&r.recv_s))
        .collect();
    let n_win = in_window.len().max(1) as f64;
    let ops_per_s = in_window.len() as f64 / run.window_s;
    let latency_ms: Vec<f64> = in_window
        .iter()
        .filter(|r| r.sent_s >= 0.0)
        .map(|r| (r.recv_s - r.sent_s) * 1e3)
        .collect();
    let daemon_cpu_ms = run.daemon_cpu_s * 1e3 / n_win;
    let loadgen_cpu_ms = run.loadgen_cpu_s * 1e3 / n_win;
    if loadgen_cpu_ms > LOADGEN_CPU_SHARE_LIMIT * daemon_cpu_ms {
        return Err(format!(
            "invalid run: loadgen used {loadgen_cpu_ms:.3} ms CPU per query against the daemon's {daemon_cpu_ms:.3}"
        ));
    }
    let in_flight = (conns * SWEEP_WINDOW) as f64;
    let mean_lat_s = stats::mean(&latency_ms).unwrap_or(f64::NAN) / 1e3;
    let gap = stats::littles_law_gap(in_flight, ops_per_s, mean_lat_s);
    if gap.is_nan() || gap > LITTLE_TOLERANCE {
        return Err(format!(
            "invalid run: {in_flight} in flight but {ops_per_s:.1} q/s x {:.1} ms mean latency (gap {gap:.3})",
            mean_lat_s * 1e3
        ));
    }
    let sorted_lat = stats::sorted(&latency_ms);
    let tail_q = stats::tail_quantile(sorted_lat.len()).ok_or("too few answered queries")?;
    eprintln!(
        "perfbench serve-sweep: {conns} connections x window {SWEEP_WINDOW}, {} answered in {:.2} s \
         ({} total, {failed} failed); Little gap {gap:.3}; tail = p{:.0}",
        in_window.len(),
        run.window_s,
        run.recs.len(),
        tail_q * 100.0
    );

    let mut m = Metrics::default();
    m.put(
        "setup_s",
        stats::median(&setup.times_s).unwrap_or(f64::NAN),
        "s",
    );
    m.put("ops_per_s", ops_per_s, "1/s");
    m.put("cpu_ms_per_op", daemon_cpu_ms, "ms");
    m.put(
        "op_p50_ms",
        stats::median(&latency_ms).unwrap_or(f64::NAN),
        "ms",
    );
    m.put(
        "op_tail_ms",
        stats::percentile(&sorted_lat, tail_q).unwrap_or(f64::NAN),
        "ms",
    );
    m.put("serve.queries_sent", run.recs.len() as f64, "count");
    m.put("serve.queries_answered", in_window.len() as f64, "count");
    m.put("serve.queries_failed", failed as f64, "count");
    m.put("loadgen.cpu_ms_per_op", loadgen_cpu_ms, "ms");
    m.put("trace.ops_per_s", ops_per_s, "1/s");
    let counts = format!(
        "{{\"queries_sent\":{},\"answered_in_window\":{},\"failed\":{failed},\"connections\":{conns},\
         \"window\":{SWEEP_WINDOW},\"littles_law_gap\":{gap},\"setup_repeats\":{SETUP_REPEATS},\
         \"warm_queries\":{}}}",
        run.recs.len(),
        in_window.len(),
        setup.warm_sent
    );

    if ctx.trace {
        let (batch_mean, daemon_p50) = daemon_digest(tel.as_deref().ok_or("no telemetry path")?)?;
        let lines: Vec<String> = in_window
            .iter()
            .take(SWEEP_REPLAY)
            .map(|r| request_line(r.id, &pool_json[pool_index(r.id)]))
            .collect();
        let items: Vec<ReplayItem> = in_window
            .iter()
            .zip(&lines)
            .map(|(r, line)| ReplayItem {
                id: r.id,
                line,
                live_ms: (r.recv_s - r.sent_s) * 1e3,
            })
            .collect();
        replay(&model, &warm, &items, batch_mean, ctx.work, &mut m)?;
        m.put("serve.batch_mean", batch_mean, "count");
        m.put("serve.daemon_p50_ms", daemon_p50, "ms");
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted: run.recs.len() as u64 + setup.warm_sent,
        failed,
        metrics: m,
        counts,
    })
}

// ---------------------------------------------------------------------------
// Traced in-process replay
// ---------------------------------------------------------------------------

struct ReplayItem<'a> {
    id: u64,
    line: &'a str,
    /// Client latency of this query in the live run.
    live_ms: f64,
}

/// Decode a request line as the daemon does: parse, finalise, validate.
fn decode(line: &str) -> Result<Scenario, String> {
    let req: Request = serde_json::from_str(line.trim_end()).map_err(|e| e.to_string())?;
    let mut sc = req.scenario.ok_or("query without scenario")?;
    sc.finalize();
    sc.validate()?;
    Ok(sc)
}

/// Replay the queries in process, in batches of the daemon's mean batch
/// size, through the same public layer functions the daemon calls: request
/// decode, `Engine::predict`, and separately the engine's layers (plan
/// cache, compile, pack, batched forward), then response encoding. The
/// engine and plan cache are warmed with the daemon's warm-up queries first.
fn replay(
    model: &RouteNet,
    warm_lines: &[String],
    items: &[ReplayItem],
    batch_mean: f64,
    work: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let batch = (batch_mean.round() as usize).max(1);
    let mut engine = Engine::from_model(
        RouteNet::from_json(&model.to_json()).map_err(|e| e.to_string())?,
        CACHE_CAP,
    );
    let mut cache = PlanCache::new(CACHE_CAP);
    let warm = warm_lines
        .iter()
        .map(|l| decode(l))
        .collect::<Result<Vec<_>, _>>()?;
    engine.predict(&warm.iter().collect::<Vec<_>>());
    for sc in &warm {
        cache.plan_for(sc);
    }
    let (h0, m0) = engine.cache_stats();
    let (_, cache_m0) = cache.stats();
    let mut t = Tracer::new();
    let mut arena = Tape::new();
    let mut plan_build_ms = Vec::new();
    let mut queue_wait_ms = Vec::new();
    for chunk in items.chunks(batch) {
        let id0 = chunk[0].id;
        let engine_ms = t.span("replay.batch", Some(id0), |t| -> Result<f64, String> {
            let scenarios = chunk
                .iter()
                .map(|it| t.span("serve.decode", Some(it.id), |_| decode(it.line)))
                .collect::<Result<Vec<_>, _>>()?;
            let refs: Vec<&Scenario> = scenarios.iter().collect();
            let preds = t.span("serve.engine", Some(id0), |_| engine.predict(&refs));
            let engine_ms = t
                .spans()
                .last()
                .map_or(0.0, |s| s.duration_ns() as f64 / 1e6);
            let mut compiled = Vec::with_capacity(chunk.len());
            for (it, sc) in chunk.iter().zip(&scenarios) {
                let misses = cache.stats().1;
                let plan = t.span("core.plan", Some(it.id), |_| cache.plan_for(sc));
                if cache.stats().1 > misses {
                    plan_build_ms.push(
                        t.spans()
                            .last()
                            .map_or(0.0, |s| s.duration_ns() as f64 / 1e6),
                    );
                }
                compiled.push(t.span("core.compile", Some(it.id), |_| {
                    model.compile_with_index(sc, plan)
                }));
            }
            let crefs: Vec<&CompiledScenario> = compiled.iter().collect();
            let packed = t.span("core.pack", Some(id0), |_| BatchedScenario::pack(&crefs));
            let mut sess = Session::with_tape(model.store(), std::mem::take(&mut arena));
            t.span("core.forward.nsfnet", Some(id0), |_| {
                model.forward_batch(&mut sess, &packed)
            });
            arena = sess.into_tape();
            for (it, p) in chunk.iter().zip(preds) {
                t.span("serve.encode", Some(it.id), |_| {
                    Response::ok(it.id, p).to_line()
                });
            }
            Ok(engine_ms)
        })?;
        // Every query of a micro-batch waits for the whole batch's predict.
        queue_wait_ms.extend(chunk.iter().map(|it| it.live_ms - engine_ms));
    }
    let tape_nodes = {
        let first = items.first().ok_or("no query to replay")?;
        let sc = decode(first.line)?;
        let compiled = model.compile(&sc);
        let packed = BatchedScenario::pack(&[&compiled]);
        let mut sess = Session::new(model.store());
        model.forward_batch(&mut sess, &packed);
        sess.tape.len()
    };

    let n = items.len() as f64;
    let (h1, m1) = engine.cache_stats();
    let lookups = (h1 - h0) + (m1 - m0);
    let wait = stats::sorted(&queue_wait_ms);
    let wait_q = stats::tail_quantile(wait.len()).unwrap_or(0.5);
    m.put(
        "core.forward_ms_per_sample.nsfnet",
        t.total_ms("core.forward.nsfnet") / n,
        "ms",
    );
    m.put("core.tape_nodes_per_sample", tape_nodes as f64, "count");
    m.put("core.pack_ms_per_sample", t.total_ms("core.pack") / n, "ms");
    m.put(
        "core.plan_build_ms",
        stats::mean(&plan_build_ms).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "core.plan_misses",
        (cache.stats().1 - cache_m0) as f64,
        "count",
    );
    m.put("core.compile_ms", t.total_ms("core.compile") / n, "ms");
    m.put(
        "serve.plan_hit_ratio",
        (h1 - h0) as f64 / lookups.max(1) as f64,
        "ratio",
    );
    m.put(
        "serve.decode_us",
        t.total_ms("serve.decode") * 1e3 / n,
        "us",
    );
    m.put(
        "serve.encode_us",
        t.total_ms("serve.encode") * 1e3 / n,
        "us",
    );
    m.put(
        "serve.engine_ms_per_query",
        t.total_ms("serve.engine") / n,
        "ms",
    );
    m.put(
        "serve.queue_wait_ms_tail",
        stats::percentile(&wait, wait_q).unwrap_or(0.0),
        "ms",
    );
    std::fs::write(work.join("spans-serve.jsonl"), t.to_jsonl()).map_err(|e| e.to_string())?;
    eprintln!(
        "perfbench replay: {} queries in batches of {batch}; queue wait at p{:.0}",
        items.len(),
        wait_q * 100.0
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_ids_parse_from_the_line_prefix() {
        assert_eq!(response_id("{\"id\":42,\"predictions\":[]}"), Some(42));
        assert_eq!(response_id("{\"id\":7}"), Some(7));
        assert_eq!(response_id("{\"error\":\"x\"}"), None);
    }

    #[test]
    fn warm_up_and_workload_ids_map_into_the_pool() {
        assert_eq!(pool_index(WARM_ID + 5), 5);
        assert_eq!(pool_index(5), 5);
        assert_eq!(pool_index(SWEEP_POOL as u64 + 3), 3);
    }
}
