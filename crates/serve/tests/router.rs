//! Integration tests of the lift router: consistent-hash routing to a
//! live replica set over real TCP, the failover matrix (replica down at
//! connect, replica dying mid-stream, every replica down), cancel
//! routing, and replica lift-sharing end to end.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gtl::{LiftQuery, StaggConfig};
use gtl_benchsuite::{all_benchmarks, by_name};
use gtl_search::SearchBudget;
use gtl_serve::{
    request_key, serve_listener, ErrorCode, Event, EventSink, HashRing, LiftRequest,
    LiftRouter, LiftServer, Request, RouterConfig, RouterHandle, ServerConfig,
};

fn quick_base() -> StaggConfig {
    StaggConfig::top_down().with_budget(SearchBudget {
        time_limit: Duration::from_secs(30),
        ..SearchBudget::default()
    })
}

fn replica_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 16,
        base: quick_base(),
        progress_interval: Duration::from_millis(20),
        result_cache_capacity: 128,
        ..ServerConfig::default()
    }
}

/// A lift server listening on an ephemeral port, driven by the real TCP
/// transport — exactly what `lift_server --listen` runs.
struct Replica {
    addr: String,
    thread: Option<std::thread::JoinHandle<()>>,
}

fn spawn_replica(config: ServerConfig) -> Replica {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind replica");
    let addr = listener.local_addr().expect("local addr").to_string();
    let thread = std::thread::spawn(move || {
        let server = LiftServer::start(config);
        serve_listener(listener, "test-replica", || server.handle());
        server.shutdown();
    });
    Replica {
        addr,
        thread: Some(thread),
    }
}

impl Replica {
    fn stop(mut self) {
        if let Ok(mut stream) = TcpStream::connect(&self.addr) {
            let _ = writeln!(stream, "{}", Request::Shutdown.to_line());
            let _ = stream.flush();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// An address nothing listens on (bound once to reserve it, then
/// dropped), for connect-failure scenarios.
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.local_addr().expect("local addr").to_string()
}

/// A replica that admits one lift (`queued`) and then drops the
/// connection without a terminal event — the mid-stream death case.
fn spawn_flaky_replica() -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind flaky");
    let addr = listener.local_addr().expect("local addr").to_string();
    let thread = std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            let id = match Request::parse_line(line.trim()) {
                Ok(Request::Lift(request)) => request.id,
                _ => String::from("?"),
            };
            let mut writer = stream;
            let event = Event::Queued {
                id,
                position: 1,
                trace_id: None,
            };
            let _ = writeln!(writer, "{}", event.to_line());
            let _ = writer.flush();
            // Dropping the stream here is the mid-stream death.
        }
    });
    (addr, thread)
}

fn router_config(replicas: Vec<String>) -> RouterConfig {
    RouterConfig {
        replicas,
        vnodes: 64,
        connect_timeout: Duration::from_millis(1500),
        base: quick_base(),
    }
}

/// The routing key of a suite benchmark under `base` — the same value
/// the router and the replicas compute.
fn key_for(name: &str, base: &StaggConfig) -> u64 {
    let b = by_name(name).expect("suite benchmark");
    let query = LiftQuery {
        label: b.name.to_string(),
        source: b.source.to_string(),
        task: b.lift_task(),
        ground_truth: Some(b.parse_ground_truth()),
    };
    request_key(&query, base)
}

/// A benchmark whose hash makes `target` the primary replica, preferring
/// fast-solving kernels. The ring is deterministic, so searching the
/// suite always finds one (77 benchmarks versus a handful of replicas).
fn benchmark_routed_to(ring: &HashRing, target: &str, base: &StaggConfig) -> String {
    let preferred = ["blas_dot", "blas_axpy", "blas_scal", "sa_add_scalar", "blas_gemv"];
    let rest = all_benchmarks()
        .into_iter()
        .map(|b| b.name.to_string())
        .filter(|name| !preferred.contains(&name.as_str()));
    preferred
        .iter()
        .map(|s| s.to_string())
        .chain(rest)
        .find(|name| ring.primary(key_for(name, base)) == Some(target))
        .expect("some benchmark routes to the target replica")
}

fn sink_channel() -> (EventSink, Receiver<Event>) {
    let (tx, rx) = channel::<Event>();
    let sink: EventSink = Arc::new(move |event: &Event| {
        let _ = tx.send(event.clone());
    });
    (sink, rx)
}

fn collect_stream(rx: &Receiver<Event>) -> Vec<Event> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut events = Vec::new();
    loop {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .expect("stream did not terminate within 60s");
        match rx.recv_timeout(remaining) {
            Ok(event) => {
                let terminal = event.is_terminal();
                events.push(event);
                if terminal {
                    return events;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("stream did not terminate; got so far: {events:?}")
            }
            Err(RecvTimeoutError::Disconnected) => {
                panic!("sink dropped before terminal event; got: {events:?}")
            }
        }
    }
}

fn lift_via(handle: &RouterHandle, request: &LiftRequest) -> Vec<Event> {
    let (sink, rx) = sink_channel();
    let line = Request::Lift(request.clone()).to_line();
    handle.handle_line(&line, &sink);
    collect_stream(&rx)
}

#[test]
fn lifts_route_by_hash_and_repeats_hit_the_owners_cache() {
    let a = spawn_replica(replica_config());
    let b = spawn_replica(replica_config());
    let router = LiftRouter::new(router_config(vec![a.addr.clone(), b.addr.clone()]));
    let handle = router.handle();

    // One benchmark per replica, so both receive traffic.
    let base = quick_base();
    let ring = HashRing::new(vec![a.addr.clone(), b.addr.clone()], 64);
    let on_a = benchmark_routed_to(&ring, &a.addr, &base);
    let on_b = benchmark_routed_to(&ring, &b.addr, &base);

    for (n, name) in [&on_a, &on_b].into_iter().enumerate() {
        let first = lift_via(&handle, &LiftRequest::benchmark(format!("first-{n}"), name));
        assert!(
            matches!(first.first(), Some(Event::Queued { .. })),
            "stream must open with queued: {first:?}"
        );
        let Some(Event::Done { cached: false, .. }) = first.last() else {
            panic!("{name}: expected an uncached done, got {:?}", first.last());
        };
        // The repeat hashes to the same replica — the one that cached
        // the answer — so it must be a hit (the echoed attempt count is
        // the original run's; no fresh search happens).
        let again = lift_via(&handle, &LiftRequest::benchmark(format!("again-{n}"), name));
        match again.last() {
            Some(Event::Done { cached: true, .. }) => {}
            other => panic!("{name}: repeat must be a cached done: {other:?}"),
        }
    }

    router.drain();
    a.stop();
    b.stop();
}

#[test]
fn connect_failure_fails_over_to_the_next_candidate() {
    let live = spawn_replica(replica_config());
    let dead = dead_addr();
    let base = quick_base();
    // The dead replica must be the primary, or the test would never
    // exercise failover.
    let ring = HashRing::new(vec![dead.clone(), live.addr.clone()], 64);
    let name = benchmark_routed_to(&ring, &dead, &base);

    let router = LiftRouter::new(router_config(vec![dead, live.addr.clone()]));
    let handle = router.handle();
    let events = lift_via(&handle, &LiftRequest::benchmark("failover", &name));
    assert!(
        matches!(events.first(), Some(Event::Queued { .. })),
        "failover stream still opens with queued: {events:?}"
    );
    assert!(
        matches!(events.last(), Some(Event::Done { .. })),
        "the surviving replica must answer: {events:?}"
    );
    router.drain();
    live.stop();
}

#[test]
fn mid_stream_death_fails_over_without_duplicate_queued() {
    let live = spawn_replica(replica_config());
    let (flaky, flaky_thread) = spawn_flaky_replica();
    let base = quick_base();
    let ring = HashRing::new(vec![flaky.clone(), live.addr.clone()], 64);
    let name = benchmark_routed_to(&ring, &flaky, &base);

    let router = LiftRouter::new(router_config(vec![flaky, live.addr.clone()]));
    let handle = router.handle();
    let events = lift_via(&handle, &LiftRequest::benchmark("midstream", &name));
    let queued = events
        .iter()
        .filter(|e| matches!(e, Event::Queued { .. }))
        .count();
    assert_eq!(
        queued, 1,
        "failover re-admission must not duplicate queued: {events:?}"
    );
    assert!(
        matches!(events.last(), Some(Event::Done { .. })),
        "the lift must finish on the surviving replica: {events:?}"
    );
    let _ = flaky_thread.join();
    router.drain();
    live.stop();
}

#[test]
fn exhausting_every_replica_yields_replica_unavailable() {
    let router = LiftRouter::new(router_config(vec![dead_addr(), dead_addr()]));
    let handle = router.handle();
    let events = lift_via(&handle, &LiftRequest::benchmark("doomed", "blas_dot"));
    match events.as_slice() {
        [Event::Error { id, code, message, .. }] => {
            assert_eq!(id.as_deref(), Some("doomed"), "error must carry the id");
            assert_eq!(*code, ErrorCode::ReplicaUnavailable);
            assert!(
                message.contains("2 candidate replica(s)"),
                "message should count the candidates: {message}"
            );
        }
        other => panic!("expected exactly one replica_unavailable error: {other:?}"),
    }
    router.drain();
}

#[test]
fn resolution_errors_never_touch_replicas() {
    // Both replicas are dead, but an unknown benchmark is rejected
    // locally — typed, and with no connect delay.
    let router = LiftRouter::new(router_config(vec![dead_addr()]));
    let handle = router.handle();
    let events = lift_via(&handle, &LiftRequest::benchmark("nope", "no_such_kernel"));
    match events.as_slice() {
        [Event::Error { code, .. }] => assert_eq!(*code, ErrorCode::UnknownBenchmark),
        other => panic!("expected unknown_benchmark: {other:?}"),
    }
    router.drain();
}

#[test]
fn cancel_routes_to_the_replica_running_the_lift() {
    let replica = spawn_replica(replica_config());
    let router = LiftRouter::new(router_config(vec![replica.addr.clone()]));
    let handle = router.handle();

    // The unsolved 4-D kernel with an enormous budget runs long enough
    // to cancel deterministically.
    let request = LiftRequest {
        overrides: gtl_serve::ConfigOverrides {
            max_attempts: Some(50_000_000),
            max_nodes: Some(u64::MAX / 2),
            time_limit_ms: Some(120_000),
            ..Default::default()
        },
        ..LiftRequest::benchmark("long", "sa_4d_add")
    };
    let (sink, rx) = sink_channel();
    handle.handle_line(&Request::Lift(request).to_line(), &sink);
    // Wait until the lift demonstrably runs on the replica.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .expect("no search_progress within 30s");
        let event = rx.recv_timeout(remaining).expect("stream stalled");
        if matches!(event, Event::SearchProgress { .. }) {
            break;
        }
        assert!(!event.is_terminal(), "terminated before cancel: {event:?}");
    }
    handle.handle_line(&Request::Cancel { id: "long".into() }.to_line(), &sink);
    let mut tail = Vec::new();
    loop {
        let event = rx
            .recv_timeout(Duration::from_secs(15))
            .expect("no terminal event after cancel");
        let terminal = event.is_terminal();
        tail.push(event);
        if terminal {
            break;
        }
    }
    assert!(
        matches!(
            tail.last(),
            Some(Event::Failed { reason, .. }) if reason == "cancelled"
        ),
        "cancel must reach the replica: {tail:?}"
    );

    // An id the router never saw is rejected locally.
    let (sink2, rx2) = sink_channel();
    handle.handle_line(&Request::Cancel { id: "ghost".into() }.to_line(), &sink2);
    match rx2.recv_timeout(Duration::from_secs(5)) {
        Ok(Event::Error { code, .. }) => assert_eq!(code, ErrorCode::UnknownRequest),
        other => panic!("expected unknown_request: {other:?}"),
    }
    router.drain();
    replica.stop();
}

#[test]
fn stats_fan_out_and_sum_across_replicas() {
    let a = spawn_replica(replica_config());
    let b = spawn_replica(replica_config());
    let router = LiftRouter::new(router_config(vec![a.addr.clone(), b.addr.clone()]));
    let handle = router.handle();

    let events = lift_via(&handle, &LiftRequest::benchmark("one", "blas_dot"));
    assert!(matches!(events.last(), Some(Event::Done { .. })), "{events:?}");

    let (sink, rx) = sink_channel();
    handle.handle_line(&Request::Stats.to_line(), &sink);
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(Event::Stats { stats }) => {
            assert_eq!(stats.received, 1, "one lift across the set");
            assert_eq!(stats.completed, 1);
            assert_eq!(stats.workers, 4, "2 workers x 2 replicas");
        }
        other => panic!("expected summed stats: {other:?}"),
    }
    router.drain();
    a.stop();
    b.stop();
}

#[test]
fn tcp_disconnect_without_cancel_releases_fairness_slots() {
    // A client at its inflight cap that vanishes without cancelling
    // must not pin its slots forever: the transport's disconnect hook
    // cancels its lifts, which decrements the per-client counters.
    let replica = spawn_replica(ServerConfig {
        workers: 1,
        max_inflight_per_client: 1,
        ..replica_config()
    });
    let long = |id: &str| {
        let mut r = LiftRequest::benchmark(id, "sa_4d_add");
        r.overrides.max_attempts = Some(50_000_000);
        r.overrides.max_nodes = Some(u64::MAX / 2);
        r.overrides.time_limit_ms = Some(120_000);
        r
    };

    let mut doomed = gtl_serve::LiftClient::connect(&replica.addr).expect("connect");
    doomed.send(&Request::Lift(long("pinned"))).expect("send lift");
    match doomed.next_event().expect("queued") {
        Some(Event::Queued { .. }) => {}
        other => panic!("expected queued: {other:?}"),
    }
    // At the cap: a second submission on the same connection bounces.
    doomed.send(&Request::Lift(long("excess"))).expect("send second");
    match doomed.next_event().expect("reject") {
        Some(Event::Error { code, .. }) => assert_eq!(code, ErrorCode::RateLimited),
        other => panic!("expected rate_limited: {other:?}"),
    }
    drop(doomed); // Disconnect without any cancel request.

    // The server notices the dead connection and releases everything.
    let mut observer = gtl_serve::LiftClient::connect(&replica.addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = observer.stats().expect("stats");
        if stats.cancelled >= 1 && stats.active == 0 && stats.queued == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect never released the slots: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    replica.stop();
}

#[test]
fn solved_lifts_propagate_to_peers_so_any_replica_serves_repeats() {
    // One-directional topology so arrival is observable: A pushes to B,
    // B accepts shares and persists them to a store whose
    // `store_appended` counter tells us exactly when the push landed —
    // before B has ever seen a lift itself.
    let mut store_path = std::env::temp_dir();
    store_path.push(format!("gtl-router-share-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&store_path);
    let listener_a = TcpListener::bind("127.0.0.1:0").expect("bind a");
    let listener_b = TcpListener::bind("127.0.0.1:0").expect("bind b");
    let addr_a = listener_a.local_addr().expect("addr").to_string();
    let addr_b = listener_b.local_addr().expect("addr").to_string();
    let thread_a = {
        let peer = addr_b.clone();
        std::thread::spawn(move || {
            let server = LiftServer::start(ServerConfig {
                peers: vec![peer],
                ..replica_config()
            });
            serve_listener(listener_a, "replica-a", || server.handle());
            server.shutdown();
        })
    };
    let thread_b = {
        let store = store_path.clone();
        std::thread::spawn(move || {
            let store = gtl_store::LiftStore::open(&store).expect("open b store");
            let server = LiftServer::start(ServerConfig {
                accept_shared_lifts: true,
                store: Some(Arc::new(store)),
                ..replica_config()
            });
            serve_listener(listener_b, "replica-b", || server.handle());
            server.shutdown();
        })
    };

    // Solve on A directly.
    let mut client_a = gtl_serve::LiftClient::connect(&addr_a).expect("connect a");
    let events = client_a
        .lift(LiftRequest::benchmark("solve", "blas_dot"))
        .expect("lift on a");
    let Some(Event::Done { solution, cached: false, .. }) = events.last() else {
        panic!("expected an uncached done on A: {events:?}");
    };
    let solution = solution.clone();

    // The push is asynchronous and best-effort; wait for it to land in
    // B's store before submitting anything to B.
    let mut client_b = gtl_serve::LiftClient::connect(&addr_b).expect("connect b");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = client_b.stats().expect("stats from b");
        if stats.store_appended >= 1 {
            assert_eq!(
                stats.received, 0,
                "B must not have run any lift of its own yet"
            );
            break;
        }
        assert!(Instant::now() < deadline, "share never reached B's store");
        std::thread::sleep(Duration::from_millis(50));
    }

    // B has never searched this kernel, yet answers the repeat as a
    // cache hit with A's exact solution.
    let repeat = client_b
        .lift(LiftRequest::benchmark("repeat", "blas_dot"))
        .expect("repeat on b");
    match repeat.last() {
        Some(Event::Done {
            solution: hit,
            cached: true,
            ..
        }) => assert_eq!(hit, &solution, "B must serve A's exact solution"),
        other => panic!("repeat on B must be a cached done: {other:?}"),
    }
    let stats = client_b.stats().expect("stats from b");
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 0, "no search may run on B");

    // Idempotence end to end: re-push the exact record from B's store
    // over the wire; the ack must say it was already present.
    let record = gtl_store::LiftStore::open(&store_path)
        .expect("reopen b store")
        .get(key_for("blas_dot", &quick_base()))
        .expect("the shared record");
    let share = Request::ShareLift {
        id: "repush".into(),
        record: record.clone(),
    };
    let mut stream = TcpStream::connect(&addr_b).expect("connect b raw");
    writeln!(stream, "{}", share.to_line()).expect("send share");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("read ack");
    match Event::parse_line(ack.trim()) {
        Ok(Event::Shared { stored: false, .. }) => {}
        other => panic!("re-push must dedup to stored=false: {other:?}"),
    }

    // A does not accept shares: the same push at A is a typed reject.
    let mut stream = TcpStream::connect(&addr_a).expect("connect a raw");
    writeln!(stream, "{}", share.to_line()).expect("send share to a");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("read ack from a");
    match Event::parse_line(ack.trim()) {
        Ok(Event::Error { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("A must reject shares with bad_request: {other:?}"),
    }

    drop(client_a);
    drop(client_b);
    for addr in [&addr_a, &addr_b] {
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let _ = writeln!(stream, "{}", Request::Shutdown.to_line());
        }
    }
    let _ = thread_a.join();
    let _ = thread_b.join();
    let _ = std::fs::remove_file(&store_path);
}
