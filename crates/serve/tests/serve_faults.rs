//! Fault-tolerance of the serving daemon: injected filesystem faults at
//! load time surface as typed [`ServeError`]s (never panics), and hostile
//! TCP peers — garbage bytes, invalid UTF-8, mid-line disconnects, lines
//! that never end — only ever cost their own connection while the daemon
//! keeps serving.

use routenet_core::features::Normalizer;
use routenet_core::{RouteNet, RouteNetConfig, Scenario};
use routenet_faults::{FaultKind, FaultPlan, FaultRule, FsHandle, OpKind};
use routenet_netgraph::routing::shortest_path_routing;
use routenet_netgraph::topology::nsfnet;
use routenet_netgraph::TrafficMatrix;
use routenet_obs::Telemetry;
use routenet_serve::server::{serve_tcp, MAX_LINE_BYTES};
use routenet_serve::{Engine, Request, Response, ServeError, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

fn model() -> RouteNet {
    let mut m = RouteNet::new(RouteNetConfig {
        link_state_dim: 4,
        path_state_dim: 4,
        readout_hidden: 8,
        t_iterations: 2,
        predict_jitter: false,
        predict_drops: false,
        seed: 5,
    });
    m.set_normalizer(Normalizer {
        capacity_scale: 10_000.0,
        traffic_scale: 200.0,
        ..Normalizer::default()
    });
    m
}

fn scenario() -> Scenario {
    let g = nsfnet();
    let routing = shortest_path_routing(&g).unwrap();
    let mut traffic = TrafficMatrix::zeros(g.n_nodes());
    for (s, d) in g.node_pairs() {
        traffic.set_demand(s, d, 80.0 + (s.0 * 14 + d.0) as f64);
    }
    Scenario {
        graph: g,
        routing,
        traffic,
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "routenet-serve-faults-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn load_faults_are_typed_never_panics() {
    let dir = tmpdir("load");

    // EIO on every read through the seam -> ServeError::Io.
    let good = dir.join("model.json");
    std::fs::write(&good, model().to_json()).unwrap();
    let plan = FaultPlan::new().rule(FaultRule::every(1, FaultKind::Eio).on_op(OpKind::Read));
    let (fs, _plan) = FsHandle::faulty(plan);
    let err = Engine::load(&fs, &good, 2)
        .err()
        .expect("injected EIO must fail");
    assert!(matches!(err, ServeError::Io(_)), "{err}");

    // A file that *claims* to be a checkpoint but is truncated garbage ->
    // ServeError::Checkpoint, not a panic.
    let bogus_ckpt = dir.join("bogus.ckpt");
    std::fs::write(
        &bogus_ckpt,
        "ROUTENET-CKPT garbage that is not a checkpoint\n",
    )
    .unwrap();
    let fs = FsHandle::default();
    let err = Engine::load(&fs, &bogus_ckpt, 2)
        .err()
        .expect("bogus checkpoint must fail");
    assert!(matches!(err, ServeError::Checkpoint(_)), "{err}");

    // Non-checkpoint, non-model JSON -> ServeError::Model.
    let bogus_json = dir.join("bogus.json");
    std::fs::write(&bogus_json, "{\"not\": \"a model\"}").unwrap();
    let err = Engine::load(&fs, &bogus_json, 2)
        .err()
        .expect("bogus JSON must fail");
    assert!(matches!(err, ServeError::Model(_)), "{err}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn hostile_peers_only_cost_their_own_connection() {
    let server = Server::start(
        Engine::from_model(model(), 4),
        ServerConfig::default(),
        Telemetry::in_memory("serve-test", "faults"),
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let server_ref = &server;
        scope.spawn(move || serve_tcp(listener, server_ref).unwrap());

        // Peer 1: invalid UTF-8 garbage, then hangs up. The read loop
        // breaks on the decode error; the daemon must survive.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&[0xff, 0xfe, 0x00, 0x80, b'\n']).unwrap();
            drop(s);
        }

        // Peer 2: a valid query with NO trailing newline, then a mid-line
        // disconnect. The partial line is either answered (BufRead yields
        // the final fragment at EOF) or dropped — never a daemon crash.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            let req = serde_json::to_string(&Request {
                id: 1,
                scenario: Some(scenario()),
                cmd: None,
            })
            .unwrap();
            s.write_all(&req.as_bytes()[..req.len() / 2]).unwrap();
            drop(s);
        }

        // Peer 3: sends a query then disconnects WITHOUT reading the
        // response; the batcher's send into the dead connection is
        // discarded, not propagated.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            let req = serde_json::to_string(&Request {
                id: 2,
                scenario: Some(scenario()),
                cmd: None,
            })
            .unwrap();
            s.write_all(req.as_bytes()).unwrap();
            s.write_all(b"\n").unwrap();
            s.flush().unwrap();
            drop(s);
        }

        // A well-behaved peer is still served after all of the above.
        let stream = TcpStream::connect(addr).unwrap();
        let mut out = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let req = serde_json::to_string(&Request {
            id: 42,
            scenario: Some(scenario()),
            cmd: None,
        })
        .unwrap();
        out.write_all(req.as_bytes()).unwrap();
        out.write_all(b"\n").unwrap();
        out.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp: Response = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(resp.id, 42);
        let preds = resp.predictions.expect("healthy peer gets its prediction");
        assert_eq!(preds.len(), scenario().n_pairs());

        server.stop();
    });
    server.finish().unwrap();
}

/// Write `n` filler bytes (no newline among them) in bounded chunks.
fn write_filler(out: &mut TcpStream, mut n: usize) {
    let chunk = vec![b'x'; 1 << 16];
    while n > 0 {
        let k = n.min(chunk.len());
        out.write_all(&chunk[..k]).unwrap();
        n -= k;
    }
    out.flush().unwrap();
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    serde_json::from_str(line.trim()).unwrap()
}

#[test]
fn oversized_request_line_gets_typed_error_and_closes_only_its_connection() {
    let server = Server::start(
        Engine::from_model(model(), 4),
        ServerConfig::default(),
        Telemetry::in_memory("serve-test", "line-cap"),
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let server_ref = &server;
        scope.spawn(move || serve_tcp(listener, server_ref).unwrap());
        // A healthy peer, connected before the hostile one and kept open
        // through it.
        let healthy = TcpStream::connect(addr).unwrap();

        let hostile = TcpStream::connect(addr).unwrap();
        let mut out = hostile.try_clone().unwrap();
        let mut reader = BufReader::new(hostile);
        // A line of exactly the cap is read (and rejected as bad JSON, not
        // as too long); the connection stays open.
        let writer = scope.spawn(move || {
            write_filler(&mut out, MAX_LINE_BYTES);
            out.write_all(b"\n").unwrap();
            out
        });
        let resp = read_response(&mut reader);
        let mut out = writer.join().unwrap();
        let err = resp.error.expect("filler is not a request");
        assert!(err.contains("bad request"), "{err}");
        // One byte more and no newline: a typed error, then the daemon
        // closes this connection.
        let writer = scope.spawn(move || write_filler(&mut out, MAX_LINE_BYTES + 1));
        let resp = read_response(&mut reader);
        writer.join().unwrap();
        assert_eq!(resp.id, 0);
        assert!(resp.predictions.is_none());
        let err = resp.error.expect("oversized line must be answered");
        assert!(err.contains("request line too long"), "{err}");
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "connection closed");

        // The healthy peer is still served.
        let mut out = healthy.try_clone().unwrap();
        let mut reader = BufReader::new(healthy);
        let req = serde_json::to_string(&Request {
            id: 7,
            scenario: Some(scenario()),
            cmd: None,
        })
        .unwrap();
        out.write_all(req.as_bytes()).unwrap();
        out.write_all(b"\n").unwrap();
        out.flush().unwrap();
        let resp = read_response(&mut reader);
        assert_eq!(resp.id, 7);
        assert!(resp.predictions.is_some(), "{:?}", resp.error);

        server.stop();
    });
    let tel = server.telemetry().clone();
    server.finish().unwrap();
    // Both rejections and the healthy answer are query responses.
    assert_eq!(tel.counter("serve.responses"), 3);
}
