//! Wire-level lifecycle tests: one loaded graph, ≥64 concurrent mixed
//! queries, answers bit-identical to the direct API on both backends, and
//! the cancel / deadline / shutdown paths of the protocol.

use julienne::prelude::{Backend, Engine, QueryCtx};
use julienne_algorithms::registry::{GraphStore, ParamMap, Registry};
use julienne_graph::generators::{rmat, RmatParams};
use julienne_graph::transform::assign_weights;
use julienne_server::json::Json;
use julienne_server::{
    query_request, Client, SchedPolicy, SchedulerConfig, Server, ShutdownHandle, MAX_PRECANCELLED,
    MAX_REQUEST_BYTES,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

/// The served graph: weighted + symmetric so every algorithm in the mix
/// (k-core needs symmetry, Δ-stepping needs weights) runs on one store.
fn store(backend: Backend) -> GraphStore {
    let g = assign_weights(&rmat(8, 8, RmatParams::default(), 5, true), 1, 64, 9);
    GraphStore::from_weighted(g, backend)
}

fn start(backend: Backend) -> (String, thread::JoinHandle<()>, ShutdownHandle) {
    start_with(backend, SchedulerConfig::default())
}

fn start_with(
    backend: Backend,
    config: SchedulerConfig,
) -> (String, thread::JoinHandle<()>, ShutdownHandle) {
    let server =
        Server::bind_with("127.0.0.1:0", &Engine::default(), store(backend), config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let join = thread::spawn(move || server.serve().unwrap());
    (addr, join, handle)
}

/// The mixed workload of the acceptance criterion: k-core, Δ-stepping,
/// weighted BFS, and set cover, all against the same session.
const MIX: &[(&str, &[(&str, &str)])] = &[
    ("kcore", &[("top", "3")]),
    ("sssp", &[("algo", "delta"), ("src", "1"), ("delta", "16")]),
    ("sssp", &[("algo", "wbfs"), ("src", "2")]),
    (
        "setcover",
        &[
            ("sets", "64"),
            ("elements", "2048"),
            ("mult", "2"),
            ("seed", "3"),
        ],
    ),
];

fn direct_answer(direct: &GraphStore, algo: &str, params: &[(&str, &str)]) -> String {
    let pm = ParamMap::from_pairs(params.iter().map(|(k, v)| (k.to_string(), v.to_string())));
    Registry::standard()
        .run(algo, direct, &pm, &QueryCtx::default())
        .unwrap()
}

fn direct_answers(backend: Backend) -> Vec<String> {
    let direct = store(backend);
    MIX.iter()
        .map(|(algo, params)| direct_answer(&direct, algo, params))
        .collect()
}

#[test]
fn sixty_four_concurrent_mixed_queries_match_direct_api() {
    for backend in [Backend::Csr, Backend::Compressed] {
        let expect = direct_answers(backend);
        let (addr, join, handle) = start(backend);

        // 8 connections x 8 pipelined queries = 64 in flight at once.
        let mut conns = Vec::new();
        for c in 0..8usize {
            let addr = addr.clone();
            let expect = expect.clone();
            conns.push(thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                for q in 0..8usize {
                    let (algo, params) = MIX[(c + q) % MIX.len()];
                    client
                        .send(&query_request(
                            &format!("q{c}-{q}"),
                            algo,
                            params,
                            None,
                            false,
                        ))
                        .unwrap();
                }
                // Responses come back in completion order; correlate by id.
                let mut got: HashMap<String, String> = HashMap::new();
                for _ in 0..8 {
                    let resp = client.recv().unwrap();
                    assert_eq!(
                        resp.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "query failed: {}",
                        resp.to_json()
                    );
                    got.insert(
                        resp.get("id").unwrap().as_str().unwrap().to_string(),
                        resp.get("output").unwrap().as_str().unwrap().to_string(),
                    );
                }
                for q in 0..8usize {
                    let idx = (c + q) % MIX.len();
                    assert_eq!(
                        got[&format!("q{c}-{q}")],
                        expect[idx],
                        "served answer must be bit-identical to the direct API \
                         ({} on {backend:?})",
                        MIX[idx].0
                    );
                }
            }));
        }
        for conn in conns {
            conn.join().unwrap();
        }
        handle.stop();
        join.join().unwrap();
    }
}

#[test]
fn expired_deadline_is_a_deadline_error_and_session_survives() {
    let (addr, join, handle) = start(Backend::Csr);
    let mut client = Client::connect(&addr).unwrap();

    let resp = client
        .roundtrip(&query_request("late", "kcore", &[], Some(0), false))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("error").unwrap().get("code").unwrap().as_str(),
        Some("deadline")
    );

    // The session keeps answering after a query died on its deadline.
    let resp = client
        .roundtrip(&query_request("after", "kcore", &[], None, false))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));

    handle.stop();
    join.join().unwrap();
}

#[test]
fn cancelling_an_id_pre_cancels_the_query_that_reuses_it() {
    let (addr, join, handle) = start(Backend::Csr);
    let mut client = Client::connect(&addr).unwrap();

    // Cancel first: deterministic no matter how fast the query would run.
    let ack = client
        .roundtrip(&Json::parse(r#"{"cancel":"doomed"}"#).unwrap())
        .unwrap();
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));

    let resp = client
        .roundtrip(&query_request("doomed", "kcore", &[], None, false))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("error").unwrap().get("code").unwrap().as_str(),
        Some("cancelled")
    );

    // A fresh id on the same connection is unaffected.
    let resp = client
        .roundtrip(&query_request("fine", "sssp", &[("src", "0")], None, false))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));

    handle.stop();
    join.join().unwrap();
}

#[test]
fn cancel_works_across_connections() {
    let (addr, join, handle) = start(Backend::Csr);

    // Query ids are a server-wide namespace: a cancel sent on its own
    // short-lived connection (as `julienne query cancel=...` does) lands on
    // queries submitted from any other connection.
    let mut canceller = Client::connect(&addr).unwrap();
    let ack = canceller
        .roundtrip(&Json::parse(r#"{"cancel":"elsewhere"}"#).unwrap())
        .unwrap();
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    drop(canceller);

    let mut client = Client::connect(&addr).unwrap();
    let resp = client
        .roundtrip(&query_request("elsewhere", "kcore", &[], None, false))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("error").unwrap().get("code").unwrap().as_str(),
        Some("cancelled")
    );

    handle.stop();
    join.join().unwrap();
}

#[test]
fn protocol_errors_carry_wire_codes() {
    let (addr, join, handle) = start(Backend::Csr);
    let mut client = Client::connect(&addr).unwrap();

    let cases: &[(&str, &str)] = &[
        (r#"{"id":"u1","algo":"frobnicate"}"#, "usage"),
        (
            r#"{"id":"u2","algo":"sssp","params":{"delta":"0"}}"#,
            "usage",
        ),
        (
            r#"{"id":"u3","algo":"sssp","params":{"src":"999999"}}"#,
            "input",
        ),
        (
            r#"{"id":"u4","algo":"kcore","params":{"bogus":"1"}}"#,
            "usage",
        ),
        (r#"{"id":"u5"}"#, "usage"),
        (r#"this is not json"#, "parse"),
    ];
    for (line, code) in cases {
        client.send_raw(line).unwrap();
        let resp = client.recv().unwrap();
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(false),
            "{line}"
        );
        assert_eq!(
            resp.get("error").unwrap().get("code").unwrap().as_str(),
            Some(*code),
            "{line} -> {}",
            resp.to_json()
        );
    }

    handle.stop();
    join.join().unwrap();
}

#[test]
fn stats_queries_embed_a_per_query_trace() {
    let (addr, join, handle) = start(Backend::Csr);
    let mut client = Client::connect(&addr).unwrap();

    let resp = client
        .roundtrip(&query_request("s1", "kcore", &[], None, true))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let output = resp.get("output").unwrap().as_str().unwrap();
    assert!(
        output.contains("\"algorithm\":\"kcore\""),
        "stats trace missing from: {output}"
    );

    handle.stop();
    join.join().unwrap();
}

#[test]
fn wire_shutdown_drains_the_server() {
    let (addr, join, _handle) = start(Backend::Csr);
    let mut client = Client::connect(&addr).unwrap();

    let resp = client
        .roundtrip(&Json::parse(r#"{"shutdown":true}"#).unwrap())
        .unwrap();
    assert_eq!(resp.get("shutdown").and_then(Json::as_bool), Some(true));

    // serve() returns: all connection and worker threads joined.
    join.join().unwrap();
}

#[test]
fn refused_requests_never_wait_out_a_delayed_ack() {
    // A reply written as two segments (body, then "\n") on a socket without
    // TCP_NODELAY holds the second segment until the peer's delayed ACK:
    // ~40 ms on every reply after a connection's first. A refused request
    // does no work, so its round trip is the wire floor.
    let (addr, join, handle) = start(Backend::Csr);
    let mut client = Client::connect(&addr).unwrap();
    let mut trips = Vec::new();
    for i in 0..20 {
        let sent = Instant::now();
        client
            .send_raw(&format!(r#"{{"id":"r{i}","algo":"nope"}}"#))
            .unwrap();
        let resp = client.recv().unwrap();
        trips.push(sent.elapsed());
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    }
    let mut later = trips[1..].to_vec();
    later.sort();
    let median = later[later.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median refused round trip {median:?} (all: {trips:?})"
    );
    handle.stop();
    join.join().unwrap();
}

#[test]
fn reply_bytes_are_golden() {
    // The four reply shapes, byte for byte as they leave the socket.
    let config = SchedulerConfig {
        batch_window: Duration::from_millis(250),
        cache_bytes: 1 << 20,
        policy: SchedPolicy::Fifo,
    };
    let (addr, join, handle) = start_with(Backend::Csr, config);
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // Sends the request lines in one write, reads one reply line for each.
    let mut exchange = |requests: &[&str]| -> Vec<String> {
        stream
            .write_all((requests.join("\n") + "\n").as_bytes())
            .unwrap();
        requests
            .iter()
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                line
            })
            .collect()
    };
    let direct = store(Backend::Csr);
    let output = |algo: &str, params: &[(&str, &str)]| {
        Json::Str(direct_answer(&direct, algo, params)).to_json()
    };

    let kcore = output("kcore", &[("top", "3")]);
    assert_eq!(
        exchange(&[r#"{"id":"g1","algo":"kcore","params":{"top":"3"}}"#]),
        [format!(r#"{{"id":"g1","ok":true,"output":{kcore}}}"#) + "\n"]
    );
    assert_eq!(
        exchange(&[r#"{"id":"g2","algo":"nope"}"#]),
        [concat!(
            r#"{"id":"g2","ok":false,"error":{"code":"usage","#,
            r#""message":"unknown algorithm \"nope\""}}"#,
            "\n"
        )]
    );
    // Two pipelined wBFS queries land in one batch window and fuse.
    let wbfs = |id: &str, src: &str| {
        let out = output("sssp", &[("algo", "wbfs"), ("src", src)]);
        format!(r#"{{"id":"{id}","ok":true,"output":{out},"batched":true}}"#) + "\n"
    };
    let mut fused = exchange(&[
        r#"{"id":"g3","algo":"sssp","params":{"algo":"wbfs","src":"1"}}"#,
        r#"{"id":"g4","algo":"sssp","params":{"algo":"wbfs","src":"2"}}"#,
    ]);
    fused.sort();
    assert_eq!(fused, [wbfs("g3", "1"), wbfs("g4", "2")]);
    assert_eq!(
        exchange(&[r#"{"id":"g5","algo":"kcore","params":{"top":"3"}}"#]),
        [format!(r#"{{"id":"g5","ok":true,"output":{kcore},"cached":true}}"#) + "\n"]
    );

    handle.stop();
    join.join().unwrap();
}

#[test]
fn an_over_long_request_line_is_refused_and_the_server_keeps_serving() {
    let (addr, join, handle) = start(Backend::Csr);
    let mut stream = TcpStream::connect(&addr).unwrap();
    // A server that kept reading would never answer a line of blanks.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // Twice the cap before the newline. The server stops reading one byte
    // past the cap, so the tail of this write may fail once it has closed.
    let sender = thread::spawn(move || {
        let mut line = vec![b' '; 2 * MAX_REQUEST_BYTES];
        line.push(b'\n');
        let _ = stream.write_all(&line);
    });
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let resp = Json::parse(reply.trim()).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("error").unwrap().get("code").unwrap().as_str(),
        Some("parse"),
        "{reply}"
    );
    // The connection is closed after the refusal (reset, when the server's
    // unread input was still queued), not left open.
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("connection still open: {other:?} {rest:?}"),
    }
    sender.join().unwrap();

    // A fresh connection is served as before.
    let mut client = Client::connect(&addr).unwrap();
    let resp = client
        .roundtrip(&query_request(
            "after",
            "kcore",
            &[("top", "3")],
            None,
            false,
        ))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));

    handle.stop();
    join.join().unwrap();
}

#[test]
fn pre_cancel_tokens_are_bounded_and_real_cancels_still_land() {
    // A batch window holds each query in flight long enough to cancel it.
    let config = SchedulerConfig {
        batch_window: Duration::from_millis(300),
        cache_bytes: 0,
        policy: SchedPolicy::Fifo,
    };
    let (addr, join, handle) = start_with(Backend::Csr, config);
    let mut client = Client::connect(&addr).unwrap();
    let cancel = |id: &str| Json::Obj(vec![("cancel".into(), Json::Str(id.into()))]);
    let code = |resp: &Json| {
        resp.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };

    for i in 0..MAX_PRECANCELLED {
        let ack = client.roundtrip(&cancel(&format!("flood-{i}"))).unwrap();
        assert_eq!(
            ack.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            ack.to_json()
        );
    }
    // One past the cap is refused, not stored.
    let refused = client.roundtrip(&cancel("flood-over")).unwrap();
    assert_eq!(
        refused.get("cancel").and_then(Json::as_str),
        Some("flood-over")
    );
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        code(&refused).as_deref(),
        Some("overloaded"),
        "{}",
        refused.to_json()
    );

    // A fresh query is still answered, and the refused id was not stored.
    for id in ["fresh", "flood-over"] {
        let resp = client
            .roundtrip(&query_request(id, "sssp", &[("src", "0")], None, false))
            .unwrap();
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            resp.to_json()
        );
    }

    // A cancel for an id in flight lands at the cap: the connection admits
    // the query before it reads the cancel pipelined behind it.
    client
        .send(&query_request("held", "sssp", &[("src", "1")], None, false))
        .unwrap();
    client.send(&cancel("held")).unwrap();
    let ack = client.recv().unwrap();
    assert_eq!(ack.get("cancel").and_then(Json::as_str), Some("held"));
    assert_eq!(
        ack.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        ack.to_json()
    );
    let resp = client.recv().unwrap();
    assert_eq!(resp.get("id").and_then(Json::as_str), Some("held"));
    assert_eq!(
        code(&resp).as_deref(),
        Some("cancelled"),
        "{}",
        resp.to_json()
    );

    // A stored token is used up by the query that reuses its id, which
    // makes room for one more pre-cancel.
    let resp = client
        .roundtrip(&query_request(
            "flood-0",
            "sssp",
            &[("src", "0")],
            None,
            false,
        ))
        .unwrap();
    assert_eq!(
        code(&resp).as_deref(),
        Some("cancelled"),
        "{}",
        resp.to_json()
    );
    let ack = client.roundtrip(&cancel("late")).unwrap();
    assert_eq!(
        ack.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        ack.to_json()
    );

    handle.stop();
    join.join().unwrap();
}
