//! Integration tests of the shared TCP transport, driven through a real
//! server and a real router: hostile wire lines (deep JSON, deep TACO,
//! deep C) get typed errors and leave the connection usable, and routed
//! requests are not held back by the replica's acceptor.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use gtl::StaggConfig;
use gtl_search::SearchBudget;
use gtl_serve::{
    serve_listener, ErrorCode, Event, LiftClient, LiftRequest, LiftRouter, LiftServer, Request,
    RouterConfig, ServerConfig,
};

fn quick_base() -> StaggConfig {
    StaggConfig::top_down().with_budget(SearchBudget {
        time_limit: Duration::from_secs(30),
        ..SearchBudget::default()
    })
}

/// A lift server on an ephemeral port behind the real TCP transport.
fn spawn_server() -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind server");
    let addr = listener.local_addr().expect("addr").to_string();
    let thread = std::thread::spawn(move || {
        let server = LiftServer::start(ServerConfig {
            workers: 1,
            base: quick_base(),
            ..ServerConfig::default()
        });
        serve_listener(listener, "test-server", || server.handle());
        server.shutdown();
    });
    (addr, thread)
}

/// A router in front of `replica`, behind the same TCP transport.
fn spawn_router(replica: &str) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let addr = listener.local_addr().expect("addr").to_string();
    let config = RouterConfig {
        replicas: vec![replica.to_string()],
        base: quick_base(),
        ..RouterConfig::default()
    };
    let thread = std::thread::spawn(move || {
        let router = LiftRouter::new(config);
        serve_listener(listener, "test-router", || router.handle());
        router.drain();
    });
    (addr, thread)
}

/// Sends `shutdown` to `addr` and joins its serving thread. A router
/// forwards the shutdown to its replicas.
fn stop(addr: &str, thread: std::thread::JoinHandle<()>) {
    let mut client = LiftClient::connect(addr).expect("connect");
    client.shutdown().expect("send shutdown");
    thread.join().expect("serving thread");
}

/// Writes one raw line and returns the next event line, decoded.
fn exchange(stream: &mut TcpStream, reader: &mut impl BufRead, line: &str) -> Event {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write line");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    Event::parse_line(reply.trim()).expect("reply is an event")
}

#[test]
fn deep_nesting_is_bad_json_and_the_connection_survives() {
    // One line of nested brackets used to recurse the JSON parser off
    // the end of the stack and abort the whole process.
    let (server, server_thread) = spawn_server();
    let (router, router_thread) = spawn_router(&server);
    let deep = "[".repeat(200_000);
    for addr in [&server, &router] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        match exchange(&mut stream, &mut reader, &deep) {
            Event::Error { code, .. } => assert_eq!(code, ErrorCode::BadJson, "{addr}"),
            other => panic!("{addr}: expected bad_json, got {other:?}"),
        }
        let stats = exchange(&mut stream, &mut reader, &Request::Stats.to_line());
        assert!(matches!(stats, Event::Stats { .. }), "{addr}: {stats:?}");
    }
    stop(&router, router_thread);
    server_thread.join().expect("server thread");
}

/// Two `lift` lines that parse as JSON but nest 100,000 deep in TACO
/// (the ground truth) and in C (the loop body).
fn deep_lift_lines() -> [String; 2] {
    let n = 100_000;
    let params = r#"[{"name":"n","kind":"size","symbol":"n"},{"name":"a","kind":"array_in","dims":["n"],"nonzero":false},{"name":"b","kind":"array_in","dims":["n"],"nonzero":false},{"name":"out","kind":"array_out","dims":[]}]"#;
    let kernel = |body: &str| {
        format!("void dot(int n, int *a, int *b, int *out) {{ *out = 0; for (int i = 0; i < n; i++) *out += {body} * b[i]; }}")
    };
    let deep_truth = format!("out = {}a(i){} * b(i)", "(".repeat(n), ")".repeat(n));
    let deep_body = format!("{}a[i]{}", "(".repeat(n), ")".repeat(n));
    [
        format!(
            r#"{{"type":"lift","id":"deep_truth","source":"{}","params":{params},"ground_truth":"{deep_truth}"}}"#,
            kernel("a[i]")
        ),
        format!(
            r#"{{"type":"lift","id":"deep_c","source":"{}","params":{params}}}"#,
            kernel(&deep_body)
        ),
    ]
}

#[test]
fn deep_sources_are_bad_source_and_the_connection_survives() {
    // A TACO ground truth or a C kernel nested 100,000 deep used to
    // recurse its parser off the end of the stack and abort the process.
    let (server, server_thread) = spawn_server();
    let (router, router_thread) = spawn_router(&server);
    for addr in [&server, &router] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for line in deep_lift_lines() {
            match exchange(&mut stream, &mut reader, &line) {
                Event::Error { code, .. } => assert_eq!(code, ErrorCode::BadSource, "{addr}"),
                other => panic!("{addr}: expected bad_source, got {other:?}"),
            }
        }
        let stats = exchange(&mut stream, &mut reader, &Request::Stats.to_line());
        assert!(matches!(stats, Event::Stats { .. }), "{addr}: {stats:?}");
    }
    stop(&router, router_thread);
    server_thread.join().expect("server thread");
}

#[test]
fn routed_round_trips_do_not_wait_on_the_replica_acceptor() {
    // The router opens a fresh replica connection per forwarded lift.
    // An acceptor that polls a non-blocking listener and sleeps 50 ms
    // when idle made every routed cache hit wait for that sleep: 20
    // round trips took about a second.
    let (server, server_thread) = spawn_server();
    let (router, router_thread) = spawn_router(&server);
    let mut client = LiftClient::connect(&router).expect("connect");
    // The cold lift fills the replica's result cache; the timed lifts hit.
    let warm = client
        .lift(LiftRequest::benchmark("warm", "blas_dot"))
        .expect("lift");
    assert!(matches!(warm.last(), Some(Event::Done { .. })), "{warm:?}");
    let started = Instant::now();
    for n in 0..20 {
        let events = client
            .lift(LiftRequest::benchmark(format!("hit-{n}"), "blas_dot"))
            .expect("lift");
        assert!(
            matches!(events.last(), Some(Event::Done { .. })),
            "{events:?}"
        );
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "20 routed cached round trips took {elapsed:?}"
    );
    drop(client);
    stop(&router, router_thread);
    server_thread.join().expect("server thread");
}
