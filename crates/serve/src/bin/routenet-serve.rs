//! The serving daemon: load a model once, answer NDJSON what-if queries
//! over TCP and/or stdin with micro-batched RouteNet inference.
//!
//! ```text
//! cargo run -p routenet-serve --release --bin routenet-serve -- \
//!     --model model.json --listen 127.0.0.1:0 --port-file serve.port \
//!     [--stdin] [--queue-cap 256] [--max-batch 32] [--batch-window-us 1000] \
//!     [--cache-cap 8] [--telemetry serve.telemetry.jsonl]
//! ```
//!
//! With `--listen`, the resolved port (useful with `:0`) is written to
//! `--port-file` once the socket is bound, so scripts can start the daemon
//! on an ephemeral port and discover it race-free. With `--stdin`, queries
//! are read from stdin and responses written to stdout until EOF or a
//! `{"cmd": "shutdown"}` line. Both can run at once; either's shutdown
//! stops the daemon.
//!
//! The model is loaded once and shared by one batcher worker per available
//! core; each worker keeps its own plan cache of `--cache-cap` topologies.

use routenet_faults::FsHandle;
use routenet_obs::Telemetry;
use routenet_serve::server::{serve_pipe, serve_tcp};
use routenet_serve::{Engine, Server, ServerConfig};
use std::io::Write as _;
use std::net::TcpListener;
use std::path::Path;
use std::time::Duration;

/// Minimal `--key value` / `--flag` parser (same contract as the bench
/// harness's; replicated here because depending on the bench crate from
/// the daemon would invert the workspace layering).
struct Args(Vec<String>);

impl Args {
    fn from_env() -> Self {
        Args(std::env::args().skip(1).collect())
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == &format!("--{key}"))
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == &format!("--{key}"))
    }

    fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

fn main() {
    let args = Args::from_env();
    let Some(model_path) = args.get("model") else {
        eprintln!(
            "usage: routenet-serve --model <model.json|ckpt> [--listen <addr>] \
             [--port-file <path>] [--stdin] [--queue-cap N] [--max-batch N] \
             [--batch-window-us N] [--cache-cap N] [--telemetry <jsonl>]"
        );
        std::process::exit(2);
    };
    let cfg = ServerConfig {
        queue_cap: args.get_or("queue-cap", 256),
        max_batch: args.get_or("max-batch", 32),
        batch_window: Duration::from_micros(args.get_or("batch-window-us", 1000)),
        ..ServerConfig::default()
    };
    let use_stdin = args.has("stdin");
    let listen = args.get("listen");
    if !use_stdin && listen.is_none() {
        eprintln!("routenet-serve: nothing to serve (pass --listen and/or --stdin)");
        std::process::exit(2);
    }

    let fs = FsHandle::default();
    let engine = Engine::load(&fs, Path::new(model_path), args.get_or("cache-cap", 8))
        .unwrap_or_else(|e| {
            eprintln!("routenet-serve: {model_path}: {e}");
            std::process::exit(1);
        });
    eprintln!(
        "routenet-serve: model loaded ({} params, T={}), queue_cap={} max_batch={} window={}us \
         workers={}",
        engine.model().n_parameters(),
        engine.model().config().t_iterations,
        cfg.queue_cap,
        cfg.max_batch,
        cfg.batch_window.as_micros(),
        cfg.workers,
    );

    let tel = match args.get("telemetry") {
        Some(path) => Telemetry::to_file("routenet-serve", model_path, path),
        None => Telemetry::disabled(),
    };
    let server = Server::start(engine, cfg, tel);

    // Bind the TCP front-end (if requested) before announcing readiness:
    // the port file appears only once the socket accepts connections.
    let listener = listen.map(|addr| {
        let listener = TcpListener::bind(addr).unwrap_or_else(|e| {
            eprintln!("routenet-serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        });
        let local = listener.local_addr().expect("bound socket has an address");
        eprintln!("routenet-serve: listening on {local}");
        if let Some(pf) = args.get("port-file") {
            // The port file is control-plane plumbing for scripts, not data
            // the IO seam needs to see; write-then-rename keeps it atomic.
            let tmp = format!("{pf}.tmp");
            let write = std::fs::File::create(&tmp)
                .and_then(|mut f| writeln!(f, "{}", local.port()).and_then(|()| f.flush()))
                .and_then(|()| std::fs::rename(&tmp, pf));
            if let Err(e) = write {
                eprintln!("routenet-serve: cannot write port file {pf}: {e}");
                std::process::exit(1);
            }
        }
        listener
    });

    match (listener, use_stdin) {
        (Some(listener), true) => {
            // Both front-ends at once: TCP on a scoped thread, stdin here.
            let server_ref = &server;
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    if let Err(e) = serve_tcp(listener, server_ref) {
                        eprintln!("routenet-serve: accept loop failed: {e}");
                    }
                });
                let stdin = std::io::stdin();
                if let Err(e) = serve_pipe(stdin.lock(), std::io::stdout(), server_ref) {
                    eprintln!("routenet-serve: stdin loop failed: {e}");
                }
            });
        }
        (Some(listener), false) => {
            if let Err(e) = serve_tcp(listener, &server) {
                eprintln!("routenet-serve: accept loop failed: {e}");
            }
        }
        (None, _) => {
            let stdin = std::io::stdin();
            if let Err(e) = serve_pipe(stdin.lock(), std::io::stdout(), &server) {
                eprintln!("routenet-serve: stdin loop failed: {e}");
            }
        }
    }

    let tel = server.telemetry().clone();
    if let Err(e) = server.finish() {
        eprintln!("routenet-serve: telemetry flush failed: {e}");
        std::process::exit(1);
    }
    let table = tel.summary_table();
    if !table.is_empty() {
        eprintln!("{table}");
    }
}
