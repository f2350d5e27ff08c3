//! End-to-end serving tests: a real [`nexus::serve::Server`] on a Unix
//! socket (and TCP loopback), a blocking [`nexus::serve::Client`], and the
//! tentpole guarantees of the resident server:
//!
//! * a cache hit returns a payload **byte-identical** to the cold run;
//! * the hit is ≥10× cheaper, asserted via the server's own counters —
//!   the cold run scores ≥10 pool tasks, the hit scores **zero** (the
//!   pipeline never executes) — not via wall-clock;
//! * the served explanation matches a direct in-process `Nexus` run.

use std::time::Duration;

use nexus::kg::{KnowledgeGraph, PropertyValue};
use nexus::serve::wire::{decode_frame, encode_frame, Frame, MAGIC, MAX_VERSION};
use nexus::serve::{explanation_to_wire, Client, ExplainCall, Server, ServerOptions, Session};
use nexus::table::{Column, Table};
use nexus::{parse, ExplainRequest, Nexus, NexusOptions, RunControl};

const SQL: &str = "SELECT Country, avg(Salary) FROM t GROUP BY Country";

/// A compact world: 18 countries, development drives salary, inequality
/// perturbs it, plus KG distractors (same shape as `end_to_end.rs`).
fn world() -> (Table, KnowledgeGraph) {
    let mut kg = KnowledgeGraph::new();
    let mut countries = Vec::new();
    let mut genders = Vec::new();
    let mut salaries = Vec::new();
    for c in 0..18 {
        let name = format!("Country_{c:02}");
        let dev = (c % 3) as f64;
        let ineq = ((c / 3) % 2) as f64;
        let id = kg.add_entity(name.clone(), "Country");
        kg.set_literal(id, "hdi", 0.4 + 0.2 * dev);
        kg.set_literal(id, "gini", 30.0 + 8.0 * ineq);
        kg.set_literal(id, "wiki id", format!("Q{c:05}"));
        let g1 = kg.add_entity(format!("Group_{c}_a"), "Ethnic");
        let g2 = kg.add_entity(format!("Group_{c}_b"), "Ethnic");
        kg.set_literal(g1, "population", 100.0 + c as f64);
        kg.set_literal(g2, "population", 300.0 + c as f64);
        kg.set_property(id, "ethnic group", PropertyValue::EntityList(vec![g1, g2]));
        for i in 0..30 {
            countries.push(name.clone());
            genders.push(if i % 5 == 0 { "f" } else { "m" });
            salaries.push(30.0 + 20.0 * dev - 4.0 * ineq + (i % 3) as f64 * 0.2);
        }
    }
    let table = Table::new(vec![
        ("Country", Column::from_strs(&countries)),
        ("Gender", Column::from_strs(&genders)),
        ("Salary", Column::from_f64(salaries)),
    ])
    .unwrap();
    (table, kg)
}

fn resident_server() -> Server {
    let (table, kg) = world();
    let server = Server::new(ServerOptions::default());
    server
        .add_dataset("world", table, kg, vec!["Country".into()])
        .expect("dataset loads");
    server
}

#[test]
fn unix_socket_round_trip_with_cache_guarantees() {
    let dir = std::env::temp_dir().join(format!("nexus-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("nexus.sock");

    let server = resident_server();
    let daemon = {
        let server = server.clone();
        let socket = socket.clone();
        std::thread::spawn(move || server.serve_unix(&socket))
    };
    // Wait for the socket to appear.
    for _ in 0..500 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut client = Client::connect_unix(&socket).expect("connect");
    client.ping().expect("ping");

    // Cold run: misses the cache and scores candidates on the pool.
    let cold = client
        .call(&ExplainCall::new("world", SQL))
        .expect("cold explain");
    assert!(!cold.stats.cache_hit);
    assert!(
        cold.stats.scored_tasks >= 10,
        "cold run should score at least 10 pool tasks, got {}",
        cold.stats.scored_tasks
    );

    // Repeat: byte-identical payload, and ≥10× cheaper by the server's own
    // counters — the hit scores zero tasks (pipeline skipped), versus ≥10
    // cold. No wall-clock involved.
    let hot = client
        .call(&ExplainCall::new("world", SQL))
        .expect("hot explain");
    assert!(hot.stats.cache_hit);
    assert_eq!(
        hot.stats.scored_tasks, 0,
        "cache hit must not run candidate scoring"
    );
    assert!(cold.stats.scored_tasks >= 10 * (hot.stats.scored_tasks + 1));
    assert_eq!(
        cold.explanation_bytes, hot.explanation_bytes,
        "cache hit must be byte-identical to the cold response"
    );
    assert!(hot.stats.cache_hits >= 1);
    assert_eq!(hot.stats.cache_misses, cold.stats.cache_misses);

    // The served result equals a direct in-process run on the same data.
    let (table, kg) = world();
    let query = parse(SQL).unwrap();
    let request = ExplainRequest::new()
        .table(&table)
        .knowledge_graph(&kg)
        .extraction_column("Country")
        .query(&query);
    let (direct, _) = Nexus::new(NexusOptions::default())
        .run_controlled(&request, RunControl::none())
        .expect("direct run");
    assert_eq!(
        explanation_to_wire(&direct).encode(),
        cold.explanation_bytes,
        "served payload must equal a direct pipeline run"
    );
    assert!(explanation_to_wire(&direct)
        .attributes
        .iter()
        .any(|a| a.name == "Country::hdi"));

    // Server-side stats agree with what the client observed.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.datasets, 1);
    assert!(stats.cache_hits >= 1 && stats.cache_misses >= 1);
    assert!(stats.requests_served >= 2);

    // Unknown dataset is an error reply, not a dropped connection.
    let err = client
        .call(&ExplainCall::new("nope", SQL))
        .expect_err("unknown dataset");
    assert!(err.to_string().contains("nope"));
    client.ping().expect("connection survives an error reply");

    // Graceful shutdown: acknowledged, daemon exits, socket removed.
    client.shutdown().expect("shutdown");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
    assert!(!socket.exists(), "socket file should be cleaned up");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_round_trip_and_concurrent_clients() {
    let server = resident_server();
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let daemon = {
        let server = server.clone();
        std::thread::spawn(move || {
            server.serve_tcp("127.0.0.1:0", move |addr| {
                addr_tx.send(addr).unwrap();
            })
        })
    };
    let addr = addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server binds")
        .to_string();

    // Several clients submit the same query concurrently; every reply must
    // carry the same payload bytes regardless of who warmed the cache.
    let payloads: Vec<Vec<u8>> = {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect_tcp(&addr).expect("connect");
                    client
                        .call(&ExplainCall::new("world", SQL))
                        .expect("explain")
                        .explanation_bytes
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    };
    for p in &payloads[1..] {
        assert_eq!(&payloads[0], p, "all clients must see identical bytes");
    }

    let mut client = Client::connect_tcp(&addr).expect("connect");
    assert!(
        client
            .call(&ExplainCall::new("world", SQL))
            .expect("explain")
            .stats
            .cache_hit
    );
    client.shutdown().expect("shutdown");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
}

#[test]
fn server_answers_unsupported_for_foreign_frames() {
    use std::io::{Read, Write};

    let server = resident_server();
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let daemon = {
        let server = server.clone();
        std::thread::spawn(move || {
            server.serve_tcp("127.0.0.1:0", move |addr| {
                addr_tx.send(addr).unwrap();
            })
        })
    };
    let addr = addr_rx.recv_timeout(Duration::from_secs(10)).expect("bind");

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");

    // A frame from a future protocol version: well-formed envelope, higher
    // version number, valid CRC. The server must answer Unsupported and
    // keep the connection alive.
    let mut future = encode_frame(&Frame::Ping);
    future[8..10].copy_from_slice(&7u16.to_le_bytes());
    let body_end = future.len() - 4;
    let crc = nexus::serve::wire::crc32(&future[..body_end]).to_le_bytes();
    future[body_end..].copy_from_slice(&crc);
    stream.write_all(&future).unwrap();

    let mut reply = vec![0u8; 1024];
    let n = stream.read(&mut reply).unwrap();
    match decode_frame(&reply[..n]) {
        Ok((Frame::Unsupported(u), _)) => {
            assert_eq!(u.version, 7);
            assert_eq!(u.max_supported, MAX_VERSION, "the server speaks up to v2");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }

    // The same connection still answers a v1 Ping afterwards.
    stream.write_all(&encode_frame(&Frame::Ping)).unwrap();
    let n = stream.read(&mut reply).unwrap();
    assert!(matches!(decode_frame(&reply[..n]), Ok((Frame::Pong, _))));

    // Garbage (bad magic) drops the connection without killing the server.
    let mut garbage = encode_frame(&Frame::Ping);
    garbage[..8].copy_from_slice(b"NOTMAGIC");
    assert_ne!(garbage[..8], MAGIC);
    stream.write_all(&garbage).unwrap();
    let n = stream.read(&mut reply).unwrap_or(0);
    assert_eq!(n, 0, "server should drop the connection on bad magic");

    let mut client = Client::connect_tcp(&addr.to_string()).expect("reconnect");
    client.ping().expect("server survives");
    client.shutdown().expect("shutdown");
    daemon.join().unwrap().expect("clean exit");
}

#[test]
fn v2_session_pipelines_over_tcp_with_typed_calls() {
    let server = resident_server();
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let daemon = {
        let server = server.clone();
        std::thread::spawn(move || {
            server.serve_tcp("127.0.0.1:0", move |addr| {
                addr_tx.send(addr).unwrap();
            })
        })
    };
    let addr = addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server binds")
        .to_string();

    let session = Session::connect_tcp(&addr).expect("v2 handshake");
    assert!(session.max_inflight() >= 8);

    // Eight identical calls plus one with a per-call override (a v2-only
    // feature a v1 Client refuses), all in flight on one connection.
    let call = ExplainCall::new("world", SQL);
    let tickets: Vec<_> = (0..8)
        .map(|_| session.submit(&call).expect("submit"))
        .collect();
    let capped = session
        .submit(&call.clone().top_k(1))
        .expect("submit with overrides");

    // The inline pong overtakes every in-flight explain.
    session.ping().expect("ping mid-pipeline");

    // Collect out of submission order; replies must be byte-identical.
    let last_first = tickets.last().unwrap().wait().expect("last ticket");
    for ticket in &tickets {
        let reply = ticket.wait().expect("pipelined reply");
        assert_eq!(
            reply.explanation_bytes, last_first.explanation_bytes,
            "pipelined replies must be byte-identical"
        );
    }
    let capped_reply = capped.wait().expect("override reply");
    assert!(capped_reply.explanation.attributes.len() <= 1, "top_k=1");
    assert!(
        !capped.partials().is_empty() || capped_reply.explanation.attributes.is_empty(),
        "a cold run streams one partial per selected attribute"
    );

    // The v1 client path still refuses override calls loudly.
    let mut v1 = Client::connect_tcp(&addr).expect("v1 connect");
    assert!(matches!(
        v1.call(&call.clone().top_k(1)),
        Err(nexus::serve::ClientError::NeedsSession)
    ));
    drop(v1);

    let stats = session.stats().expect("stats over the session");
    assert!(
        stats.inflight_peak >= 8,
        "the pipeline must overlap at least its eight identical calls; peak {}",
        stats.inflight_peak
    );
    assert!(
        stats.ooo_replies >= 1,
        "the overtaking pong is an out-of-order completion"
    );

    drop(tickets);
    drop(capped);
    drop(session);
    let mut controller = Client::connect_tcp(&addr).expect("controller");
    controller.shutdown().expect("shutdown");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
}
