//! End-to-end HTTP test for the metrics service: bind an ephemeral
//! port, drive a tiny scenario through `run_blocking`, and assert all
//! three endpoints answer 200 with JSON that passes the crate's own
//! validator — while the run is in flight and after it completes.

use dclue_scenario::service::{self, ScenarioInfo};
use dclue_scenario::{compile, json, parse};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const SRC: &str = "\
scenario = http-test
description = service endpoint test
[engine]
exact = true
seeds = 1
warmup = 1s
measure = 2s
[topology]
nodes = [2]
affinity = 0.8
[workload]
clients_per_node = 10
think_time = 1s
";

/// One raw HTTP/1.1 GET; returns (status line, body).
fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

fn assert_json_200(addr: SocketAddr, path: &str) -> String {
    let (status, body) = get(addr, path);
    assert!(status.contains("200"), "{path}: {status}");
    json::validate(&body).unwrap_or_else(|e| panic!("{path} body is not valid JSON: {e}\n{body}"));
    body
}

const KNEE_SRC: &str = "\
scenario = http-knee-test
description = knee probes stream as rows mid-search
[engine]
exact = true
seeds = 1
warmup = 1s
measure = 2s
[topology]
affinity = 0.4
[workload]
clients_per_node = 20
think_time = 1s
[sweep]
mode = knee
min = 2
max = 12
step = 1
threshold = 0.5
";

#[test]
fn knee_probes_stream_rows_while_the_search_runs() {
    let plan = compile(&parse(KNEE_SRC).unwrap()).unwrap();
    let svc = service::start(&plan, "127.0.0.1:0", Vec::new()).expect("bind");
    let addr = svc.addr();

    // Watch /metrics while the bisection narrows: the rows array must
    // gain entries before the verdict lands (state still "running").
    let probe = std::thread::spawn(move || {
        let mut rows_while_running = 0usize;
        for _ in 0..2000 {
            let status = assert_json_200(addr, "/status");
            if !status.contains("\"running\"") {
                if status.contains("\"done\"") {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let metrics = assert_json_200(addr, "/metrics");
            rows_while_running = rows_while_running.max(metrics.matches("\"coords\":").count());
            std::thread::sleep(Duration::from_millis(1));
        }
        rows_while_running
    });

    svc.run_blocking(&plan);
    let rows_while_running = probe.join().unwrap();
    assert!(
        rows_while_running >= 1,
        "no probe row was visible on /metrics while the knee search was still running"
    );

    // After completion the verdict is published alongside the curve,
    // and every probe row carries the guaranteed knee columns.
    let body = assert_json_200(addr, "/metrics");
    assert!(body.contains("\"knee\":{"), "verdict missing: {body}");
    assert!(body.contains("\"kneed\":"), "{body}");
    let rows_total = body.matches("\"coords\":").count();
    assert!(
        rows_total >= 3,
        "expected at least 3 evaluated probes, saw {rows_total}: {body}"
    );
    assert!(body.contains("\"tpmc_scaled\":"), "{body}");
    assert!(body.contains("\"nodes\":"), "{body}");

    let status = assert_json_200(addr, "/status");
    assert!(status.contains("\"done\""), "{status}");
}

#[test]
fn endpoints_answer_valid_json_during_and_after_a_run() {
    let plan = compile(&parse(SRC).unwrap()).unwrap();
    let scenarios = vec![ScenarioInfo {
        name: "http-test".into(),
        description: "service endpoint test".into(),
        source: "test".into(),
    }];
    // Port 0: the OS picks a free port, so parallel test runs never race.
    let svc = service::start(&plan, "127.0.0.1:0", scenarios).expect("bind");
    let addr = svc.addr();

    // Before the run starts the endpoints are already live.
    let body = assert_json_200(addr, "/status");
    assert!(body.contains("\"starting\""), "{body}");
    assert_json_200(addr, "/metrics");
    let body = assert_json_200(addr, "/scenarios");
    assert!(body.contains("http-test"), "{body}");

    // Query /status from another thread while the run is in flight.
    let probe = std::thread::spawn(move || {
        let mut saw_running = false;
        for _ in 0..200 {
            let body = assert_json_200(addr, "/status");
            if body.contains("\"running\"") {
                saw_running = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        saw_running
    });

    svc.run_blocking(&plan);

    assert!(
        probe.join().unwrap(),
        "/status never reported state \"running\" while the run was in flight"
    );

    // After completion: status is done, one point recorded, metrics
    // registry populated by the instrumented run.
    let body = assert_json_200(addr, "/status");
    assert!(body.contains("\"done\""), "{body}");
    assert!(
        body.contains("\"points_done\": 1") || body.contains("\"points_done\":1"),
        "{body}"
    );
    let body = assert_json_200(addr, "/metrics");
    assert!(body.contains("\"rows\""), "{body}");

    // Unknown paths 404 with a JSON error body; non-GET is rejected.
    let (status, body) = get(addr, "/nope");
    assert!(status.contains("404"), "{status}");
    json::validate(&body).expect("404 body is JSON");
}

#[test]
fn oversized_request_head_is_rejected_and_the_service_keeps_answering() {
    let plan = compile(&parse(SRC).unwrap()).unwrap();
    let svc = service::start(&plan, "127.0.0.1:0", Vec::new()).expect("bind");
    let addr = svc.addr();

    // 64 KiB with no newline, socket held open: the head cap, not the
    // per-read timeout or the peer closing, must end the read.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&vec![b'A'; 64 * 1024]).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let mut buf = [0u8; 512];
    let n = stream
        .read(&mut buf)
        .expect("no response within 3 s to an oversized request head");
    let head = String::from_utf8_lossy(&buf[..n]);
    assert!(head.starts_with("HTTP/1.1 431"), "{head}");

    // A malformed request line is a 400, not a 404.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");

    assert_json_200(addr, "/status");
}
