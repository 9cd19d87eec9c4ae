//! Wire-level tests for the serve pipeline's new behaviours: batched
//! coalescing (`"batched": true` with payloads byte-identical to solo
//! serving), the result cache (`"cached": true` round-trip), NaN
//! rejection at admission, per-member cancellation inside a fused batch,
//! and the priority dispatch policy.

use julienne::prelude::{Backend, Engine};
use julienne_algorithms::registry::GraphStore;
use julienne_graph::generators::rmat;
use julienne_graph::generators::RmatParams;
use julienne_graph::transform::assign_weights;
use julienne_server::json::Json;
use julienne_server::{
    query_request, Client, SchedPolicy, SchedulerConfig, Server, ShutdownHandle,
};
use std::collections::HashMap;
use std::thread;
use std::time::Duration;

fn store(backend: Backend) -> GraphStore {
    let g = assign_weights(&rmat(8, 8, RmatParams::default(), 5, true), 1, 64, 9);
    GraphStore::from_weighted(g, backend)
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

/// A window long enough that a pipelined burst always lands inside it,
/// even on a loaded single-core CI machine.
fn batching() -> SchedulerConfig {
    SchedulerConfig {
        batch_window: Duration::from_millis(250),
        cache_bytes: 0,
        policy: SchedPolicy::Fifo,
    }
}

#[test]
fn homogeneous_sssp_burst_batches_with_payloads_identical_to_solo() {
    for backend in [Backend::Csr, Backend::Compressed] {
        // Solo server: batching off — the reference wire payloads.
        let (solo_addr, solo_join, solo_stop) = start_with(backend, SchedulerConfig::default());
        let mut solo = Client::connect(&solo_addr).unwrap();
        let mut expect: HashMap<String, String> = HashMap::new();
        for q in 0..8usize {
            let src = (q * 31) % 256;
            let resp = solo
                .roundtrip(&query_request(
                    &format!("q{q}"),
                    "sssp",
                    &[("algo", "wbfs"), ("src", &src.to_string())],
                    None,
                    false,
                ))
                .unwrap();
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
            assert!(
                resp.get("batched").is_none(),
                "unbatched server must not flag responses: {}",
                resp.to_json()
            );
            expect.insert(
                format!("q{q}"),
                resp.get("output").unwrap().as_str().unwrap().to_string(),
            );
        }
        solo_stop.stop();
        solo_join.join().unwrap();

        // Batched server: the same burst pipelined inside one window.
        let (addr, join, stop) = start_with(backend, batching());
        let mut client = Client::connect(&addr).unwrap();
        for q in 0..8usize {
            let src = (q * 31) % 256;
            client
                .send(&query_request(
                    &format!("q{q}"),
                    "sssp",
                    &[("algo", "wbfs"), ("src", &src.to_string())],
                    None,
                    false,
                ))
                .unwrap();
        }
        for _ in 0..8 {
            let resp = client.recv().unwrap();
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(true),
                "{}",
                resp.to_json()
            );
            assert_eq!(
                resp.get("batched").and_then(Json::as_bool),
                Some(true),
                "burst member missed the batch window: {}",
                resp.to_json()
            );
            let id = resp.get("id").unwrap().as_str().unwrap();
            assert_eq!(
                resp.get("output").unwrap().as_str().unwrap(),
                expect[id],
                "fused payload diverged from solo serving ({id} on {backend:?})"
            );
        }
        stop.stop();
        join.join().unwrap();
    }
}

#[test]
fn whole_graph_queries_fan_out_one_run() {
    let (addr, join, stop) = start_with(Backend::Csr, batching());
    let mut client = Client::connect(&addr).unwrap();
    for q in 0..4usize {
        client
            .send(&query_request(
                &format!("k{q}"),
                "kcore",
                &[("top", "3")],
                None,
                false,
            ))
            .unwrap();
    }
    let mut outputs = Vec::new();
    for _ in 0..4 {
        let resp = client.recv().unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            resp.get("batched").and_then(Json::as_bool),
            Some(true),
            "{}",
            resp.to_json()
        );
        outputs.push(resp.get("output").unwrap().as_str().unwrap().to_string());
    }
    assert!(
        outputs.windows(2).all(|w| w[0] == w[1]),
        "fan-out answers must be identical"
    );
    stop.stop();
    join.join().unwrap();
}

#[test]
fn cache_hit_answers_with_cached_flag_and_identical_output() {
    let config = SchedulerConfig {
        batch_window: Duration::ZERO,
        cache_bytes: 1 << 20,
        policy: SchedPolicy::Fifo,
    };
    let (addr, join, stop) = start_with(Backend::Csr, config);
    let mut client = Client::connect(&addr).unwrap();

    let first = client
        .roundtrip(&query_request("c1", "kcore", &[("top", "3")], None, false))
        .unwrap();
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
    assert!(first.get("cached").is_none(), "{}", first.to_json());

    // Same algorithm, same canonical params (spelled differently) → hit.
    let second = client
        .roundtrip(&query_request("c2", "kcore", &[("top", "3")], None, false))
        .unwrap();
    assert_eq!(second.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        second.get("cached").and_then(Json::as_bool),
        Some(true),
        "{}",
        second.to_json()
    );
    assert_eq!(
        first.get("output").unwrap().as_str().unwrap(),
        second.get("output").unwrap().as_str().unwrap()
    );

    // Different params miss.
    let third = client
        .roundtrip(&query_request("c3", "kcore", &[("top", "5")], None, false))
        .unwrap();
    assert!(third.get("cached").is_none(), "{}", third.to_json());

    stop.stop();
    join.join().unwrap();
}

#[test]
fn float_params_canonicalize_into_one_cache_entry() {
    let config = SchedulerConfig {
        batch_window: Duration::ZERO,
        cache_bytes: 1 << 20,
        policy: SchedPolicy::Fifo,
    };
    let (addr, join, stop) = start_with(Backend::Csr, config);
    let mut client = Client::connect(&addr).unwrap();

    let first = client
        .roundtrip(&query_request(
            "p1",
            "pagerank",
            &[("damping", "0.85")],
            None,
            false,
        ))
        .unwrap();
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));

    // 0.850 canonicalizes to the same key as 0.85.
    let second = client
        .roundtrip(&query_request(
            "p2",
            "pagerank",
            &[("damping", "0.850")],
            None,
            false,
        ))
        .unwrap();
    assert_eq!(
        second.get("cached").and_then(Json::as_bool),
        Some(true),
        "{}",
        second.to_json()
    );
    assert_eq!(
        first.get("output").unwrap().as_str().unwrap(),
        second.get("output").unwrap().as_str().unwrap()
    );

    stop.stop();
    join.join().unwrap();
}

#[test]
fn nan_param_is_rejected_at_admission_with_input_code() {
    // NaN must be refused even on a default (no cache, no batching)
    // server: admission canonicalizes floats unconditionally.
    let (addr, join, stop) = start_with(Backend::Csr, SchedulerConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    let resp = client
        .roundtrip(&query_request(
            "n1",
            "pagerank",
            &[("damping", "NaN")],
            None,
            false,
        ))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("error").unwrap().get("code").unwrap().as_str(),
        Some("input"),
        "{}",
        resp.to_json()
    );
    stop.stop();
    join.join().unwrap();
}

#[test]
fn pre_cancelled_member_detaches_without_poisoning_the_batch() {
    let (addr, join, stop) = start_with(Backend::Csr, batching());
    let mut client = Client::connect(&addr).unwrap();

    let ack = client
        .roundtrip(&Json::parse(r#"{"cancel":"doomed"}"#).unwrap())
        .unwrap();
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));

    // Both queries land in one fused batch; the pre-cancelled member is
    // answered `cancelled`, its sibling completes normally.
    client
        .send(&query_request(
            "doomed",
            "sssp",
            &[("algo", "wbfs"), ("src", "2")],
            None,
            false,
        ))
        .unwrap();
    client
        .send(&query_request(
            "fine",
            "sssp",
            &[("algo", "wbfs"), ("src", "3")],
            None,
            false,
        ))
        .unwrap();
    let mut by_id = HashMap::new();
    for _ in 0..2 {
        let resp = client.recv().unwrap();
        by_id.insert(resp.get("id").unwrap().as_str().unwrap().to_string(), resp);
    }
    let doomed = &by_id["doomed"];
    assert_eq!(doomed.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        doomed.get("error").unwrap().get("code").unwrap().as_str(),
        Some("cancelled"),
        "{}",
        doomed.to_json()
    );
    let fine = &by_id["fine"];
    assert_eq!(
        fine.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        fine.to_json()
    );

    stop.stop();
    join.join().unwrap();
}

#[test]
fn priority_policy_serves_the_standard_contract() {
    let config = SchedulerConfig {
        batch_window: Duration::ZERO,
        cache_bytes: 0,
        policy: SchedPolicy::Priority,
    };
    let (addr, join, stop) = start_with(Backend::Csr, config);
    let mut client = Client::connect(&addr).unwrap();
    // A mixed burst across cost classes all completes correctly.
    for (id, algo, params) in [
        ("a", "triangles", Vec::<(&str, &str)>::new()),
        ("b", "kcore", vec![("top", "3")]),
        ("c", "components", vec![]),
    ] {
        client
            .send(&query_request(id, algo, &params, None, false))
            .unwrap();
    }
    for _ in 0..3 {
        let resp = client.recv().unwrap();
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            resp.to_json()
        );
    }
    stop.stop();
    join.join().unwrap();
}

/// Serves `store` under `config` (for graphs other than [`store`]'s).
fn start_on(
    store: GraphStore,
    config: SchedulerConfig,
) -> (String, thread::JoinHandle<()>, ShutdownHandle) {
    let server = Server::bind_with("127.0.0.1:0", &Engine::default(), store, config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let join = thread::spawn(move || server.serve().unwrap());
    (addr, join, handle)
}

/// Sends every request in one pipelined burst and returns each reply's
/// full wire line by id.
fn burst(addr: &str, requests: &[Json]) -> HashMap<String, String> {
    let mut client = Client::connect(addr).unwrap();
    for r in requests {
        client.send(r).unwrap();
    }
    (0..requests.len())
        .map(|_| {
            let resp = client.recv().unwrap();
            let id = resp.get("id").unwrap().as_str().unwrap().to_string();
            (id, resp.to_json())
        })
        .collect()
}

/// Each request on its own, one roundtrip at a time, on a default server.
fn solo_replies(store: GraphStore, requests: &[Json]) -> HashMap<String, String> {
    let (addr, join, stop) = start_on(store, SchedulerConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    let replies = requests
        .iter()
        .map(|r| {
            let resp = client.roundtrip(r).unwrap();
            let id = resp.get("id").unwrap().as_str().unwrap().to_string();
            (id, resp.to_json())
        })
        .collect();
    stop.stop();
    join.join().unwrap();
    replies
}

#[test]
fn fused_burst_member_with_bad_source_gets_its_solo_error() {
    // Sources 0..3 are in range; 100000 is not (the graph has 256 vertices).
    let requests: Vec<Json> = ["0", "7", "100000", "31"]
        .iter()
        .enumerate()
        .map(|(q, src)| {
            query_request(
                &format!("w{q}"),
                "sssp",
                &[("algo", "wbfs"), ("src", src)],
                None,
                false,
            )
        })
        .collect();
    let solo = solo_replies(store(Backend::Csr), &requests);
    let (addr, join, stop) = start_with(Backend::Csr, batching());
    let fused = burst(&addr, &requests);
    stop.stop();
    join.join().unwrap();

    assert!(solo["w2"].contains("\"code\":\"input\""), "{}", solo["w2"]);
    assert_eq!(
        fused["w2"], solo["w2"],
        "a bad lane must answer as it would solo"
    );
    for id in ["w0", "w1", "w3"] {
        let (f, s) = (
            Json::parse(&fused[id]).unwrap(),
            Json::parse(&solo[id]).unwrap(),
        );
        assert_eq!(
            f.get("batched").and_then(Json::as_bool),
            Some(true),
            "{}",
            fused[id]
        );
        assert_eq!(
            f.get("output"),
            s.get("output"),
            "{id} diverged from its solo body"
        );
    }
}

#[test]
fn failed_fan_out_run_answers_every_member_with_the_solo_error() {
    // kcore needs a symmetric graph; on a directed one its one shared run
    // fails, and every waiter gets the error a solo run would give.
    let directed =
        || GraphStore::from_graph(rmat(8, 8, RmatParams::default(), 5, false), Backend::Csr);
    let requests: Vec<Json> = (0..3)
        .map(|q| query_request(&format!("k{q}"), "kcore", &[("top", "3")], None, false))
        .collect();
    let solo = solo_replies(directed(), &requests);
    let (addr, join, stop) = start_on(directed(), batching());
    let fanned = burst(&addr, &requests);
    stop.stop();
    join.join().unwrap();

    for id in ["k0", "k1", "k2"] {
        assert!(solo[id].contains("\"ok\":false"), "{}", solo[id]);
        assert_eq!(fanned[id], solo[id], "{id} must get the solo error reply");
    }
}
