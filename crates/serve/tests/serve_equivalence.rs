//! End-to-end serving equivalence: predictions served over TCP by the
//! micro-batching daemon are BYTE-identical to the offline
//! [`KpiPredictor::predict_batch`] path on the same queries — the serving
//! counterpart of the batched-training equivalence contract
//! (`crates/core/tests/batched_equivalence.rs`). Concurrent clients make
//! the micro-batch composition nondeterministic on purpose: the answers
//! must not depend on it, nor on how many batcher workers share the model.

use routenet_core::features::Normalizer;
use routenet_core::{KpiPredictor, RouteNet, RouteNetConfig, Scenario};
use routenet_netgraph::routing::shortest_path_routing;
use routenet_netgraph::topology::nsfnet;
use routenet_netgraph::{generate, TrafficMatrix};
use routenet_obs::Telemetry;
use routenet_serve::server::serve_tcp;
use routenet_serve::{Engine, Request, Response, Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

fn model() -> RouteNet {
    let mut m = RouteNet::new(RouteNetConfig {
        link_state_dim: 6,
        path_state_dim: 6,
        readout_hidden: 12,
        t_iterations: 3,
        predict_jitter: true,
        predict_drops: false,
        seed: 29,
    });
    m.set_normalizer(Normalizer {
        capacity_scale: 10_000.0,
        traffic_scale: 250.0,
        ..Normalizer::default()
    });
    m
}

fn scenario_on(g: routenet_netgraph::Graph, salt: u64) -> Scenario {
    let routing = shortest_path_routing(&g).unwrap();
    let n = g.n_nodes();
    let mut traffic = TrafficMatrix::zeros(n);
    for (s, d) in g.node_pairs() {
        let demand = 60.0 + ((salt * 31 + (s.0 * n + d.0) as u64 * 7) % 200) as f64;
        traffic.set_demand(s, d, demand);
    }
    Scenario {
        graph: g,
        routing,
        traffic,
    }
}

/// The query corpus: three topology families, traffic varying per query.
fn corpus() -> Vec<Scenario> {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(77);
    (0..12)
        .map(|i| match i % 3 {
            0 => scenario_on(nsfnet(), i),
            1 => scenario_on(generate::full_mesh(5), i),
            _ => scenario_on(generate::synthetic(8, &mut rng), i / 3),
        })
        .collect()
}

#[test]
fn tcp_served_predictions_are_byte_identical_to_offline() {
    // Two workers run even on a one-core host: the contract is about the
    // bytes, not the speed-up.
    for workers in [1, 2] {
        served_matches_offline(workers);
    }
}

fn served_matches_offline(workers: usize) {
    let queries = corpus();
    // Offline reference: the KpiPredictor sweep path, serialized through
    // the SAME wire encoder the daemon uses.
    let reference = {
        let m = model();
        let refs: Vec<&Scenario> = queries.iter().collect();
        let preds = m.predict_batch(&refs);
        preds
            .into_iter()
            .enumerate()
            .map(|(id, p)| (id as u64, Response::ok(id as u64, p).to_line()))
            .collect::<BTreeMap<u64, String>>()
    };

    let server = Server::start(
        Engine::from_model(model(), 4),
        ServerConfig {
            queue_cap: 64,
            max_batch: 8,
            batch_window: Duration::from_millis(2),
            workers,
        },
        Telemetry::in_memory("serve-test", "equivalence"),
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let served: BTreeMap<u64, String> = std::thread::scope(|scope| {
        let server_ref = &server;
        scope.spawn(move || serve_tcp(listener, server_ref).unwrap());
        // Three concurrent clients, interleaved ids: the batch composition
        // the daemon sees is timing-dependent; the answers must not be.
        let mut clients = Vec::new();
        for c in 0..3usize {
            let queries = &queries;
            clients.push(scope.spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut out = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let my: Vec<u64> = (0..queries.len() as u64)
                    .filter(|id| *id as usize % 3 == c)
                    .collect();
                for &id in &my {
                    let req = Request {
                        id,
                        scenario: Some(queries[id as usize].clone()),
                        cmd: None,
                    };
                    let line = serde_json::to_string(&req).unwrap();
                    out.write_all(line.as_bytes()).unwrap();
                    out.write_all(b"\n").unwrap();
                }
                out.flush().unwrap();
                let mut got = Vec::new();
                for _ in 0..my.len() {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    let resp: Response = serde_json::from_str(line.trim()).unwrap();
                    assert!(resp.error.is_none(), "{:?}", resp.error);
                    got.push((resp.id, line.trim().to_string()));
                }
                got
            }));
        }
        let mut all = BTreeMap::new();
        for c in clients {
            for (id, line) in c.join().unwrap() {
                all.insert(id, line);
            }
        }
        server.stop(); // ends the accept loop
        all
    });

    assert_eq!(served.len(), reference.len());
    for (id, line) in &reference {
        assert_eq!(
            served.get(id),
            Some(line),
            "served response for query {id} must be byte-identical to offline \
             ({workers} workers)"
        );
    }

    let tel = server.telemetry().clone();
    server.finish().unwrap();
    assert_eq!(tel.counter("serve.queries"), queries.len() as u64);
    assert_eq!(tel.counter("serve.shed"), 0);
    // The digest event is present and self-consistent.
    let records = tel.records();
    let serve_event = records
        .iter()
        .find(|r| r.event.kind() == "Serve")
        .expect("Serve digest emitted");
    if let routenet_obs::Event::Serve {
        queries: q,
        responses,
        batches,
        max_batch,
        workers: w,
        ..
    } = &serve_event.event
    {
        assert_eq!(*w, workers);
        assert_eq!(*q, 12);
        assert_eq!(*responses, 12);
        assert!(
            *batches >= 2,
            "12 queries over max_batch 8 need >= 2 batches"
        );
        assert!(*max_batch <= 8);
    } else {
        unreachable!();
    }
}
