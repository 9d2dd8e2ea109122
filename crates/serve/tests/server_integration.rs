//! In-process integration tests of the lift server: concurrent clients
//! with ordered event streams, result-cache hits, cancellation and
//! timeout semantics, queue-slot accounting and graceful shutdown.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gtl::StaggConfig;
use gtl_search::SearchBudget;
use gtl_serve::{
    serve_listener, ConfigOverrides, ErrorCode, Event, EventSink, KernelSpec, LiftClient,
    LiftRequest, LiftServer, ServerConfig, ServerHandle,
};

/// A small-budget base config so tests stay fast.
fn quick_base() -> StaggConfig {
    StaggConfig::top_down().with_budget(SearchBudget {
        time_limit: Duration::from_secs(30),
        ..SearchBudget::default()
    })
}

fn quick_server(workers: usize) -> LiftServer {
    LiftServer::start(ServerConfig {
        workers,
        queue_capacity: 16,
        base: quick_base(),
        progress_interval: Duration::from_millis(20),
        default_timeout: None,
        result_cache_capacity: 64,
        ..ServerConfig::default()
    })
}

/// Submits through a channel sink; panics on admission errors.
fn submit(handle: &ServerHandle, request: LiftRequest) -> Receiver<Event> {
    let (rx, result) = try_submit(handle, request);
    result.expect("admission failed");
    rx
}

fn try_submit(
    handle: &ServerHandle,
    request: LiftRequest,
) -> (Receiver<Event>, Result<usize, gtl_serve::WireError>) {
    let (tx, rx) = channel::<Event>();
    let sink: EventSink = Arc::new(move |event: &Event| {
        let _ = tx.send(event.clone());
    });
    let result = handle.submit(request, sink);
    (rx, result)
}

/// Drains a stream until its terminal event (with a generous deadline).
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

/// Asserts the protocol's per-request ordering contract.
fn assert_well_ordered(id: &str, events: &[Event]) {
    assert!(
        matches!(events.first(), Some(Event::Queued { .. })),
        "{id}: stream must open with `queued`: {events:?}"
    );
    let terminal_count = events.iter().filter(|e| e.is_terminal()).count();
    assert_eq!(terminal_count, 1, "{id}: exactly one terminal: {events:?}");
    assert!(
        events.last().unwrap().is_terminal(),
        "{id}: terminal must be last: {events:?}"
    );
    for event in events {
        if let Some(event_id) = event.id() {
            assert_eq!(event_id, id, "{id}: foreign id in stream: {events:?}");
        }
    }
    if let Some(pos) = events
        .iter()
        .position(|e| matches!(e, Event::Verified { .. }))
    {
        assert!(
            matches!(events.get(pos + 1), Some(Event::Done { .. })),
            "{id}: `verified` must immediately precede `done`: {events:?}"
        );
    }
}

#[test]
fn three_concurrent_clients_get_ordered_streams() {
    let server = quick_server(3);
    let benchmarks = ["blas_dot", "blas_axpy", "sa_add_scalar"];
    std::thread::scope(|scope| {
        for (n, name) in benchmarks.iter().enumerate() {
            let handle = server.handle();
            scope.spawn(move || {
                let id = format!("client{n}-req");
                let rx = submit(&handle, LiftRequest::benchmark(&id, *name));
                let events = collect_stream(&rx);
                assert_well_ordered(&id, &events);
                match events.last().unwrap() {
                    Event::Done { solution, .. } => {
                        assert!(!solution.is_empty(), "{name}: empty solution")
                    }
                    Event::Failed { reason, .. } => {
                        // Every chosen benchmark solves under the default
                        // budget; a failure here is a regression.
                        panic!("{name}: unexpected failure `{reason}`")
                    }
                    other => panic!("{name}: unexpected terminal {other:?}"),
                }
            });
        }
    });
    let stats = server.handle().stats();
    assert_eq!(stats.received, 3);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.active, 0);
    server.shutdown();
}

#[test]
fn repeated_request_is_answered_from_the_result_cache() {
    let server = quick_server(2);
    let handle = server.handle();

    let first = handle.lift_blocking(LiftRequest::benchmark("a", "blas_dot"));
    assert_well_ordered("a", &first);
    let Event::Done {
        solution: first_solution,
        cached: false,
        ..
    } = first.last().unwrap()
    else {
        panic!("first lift must be an uncached done: {first:?}");
    };
    let hits_before = handle.stats().cache_hits;

    let second = handle.lift_blocking(LiftRequest::benchmark("b", "blas_dot"));
    assert_well_ordered("b", &second);
    match second.last().unwrap() {
        Event::Done {
            solution,
            cached: true,
            ..
        } => assert_eq!(solution, first_solution),
        other => panic!("second lift must be a cached done: {other:?}"),
    }
    assert_eq!(
        handle.stats().cache_hits,
        hits_before + 1,
        "hit counter must increment"
    );
    assert!(
        !second
            .iter()
            .any(|e| matches!(e, Event::SearchProgress { .. })),
        "a cache hit must not run a search: {second:?}"
    );

    // A config change is a different key: no hit.
    let overridden = handle.lift_blocking(LiftRequest {
        id: "c".into(),
        kernel: KernelSpec::Benchmark {
            name: "blas_dot".into(),
        },
        oracle: None,
        overrides: ConfigOverrides {
            max_attempts: Some(7777),
            ..ConfigOverrides::default()
        },
        trace_id: None,
    });
    match overridden.last().unwrap() {
        Event::Done { cached, .. } => assert!(!cached, "override must miss the cache"),
        other => panic!("expected done: {other:?}"),
    }
    server.shutdown();
}

/// A lift that runs long enough to cancel: the unsolved 4-D kernel with
/// an enormous budget.
fn long_request(id: &str) -> LiftRequest {
    LiftRequest {
        id: id.into(),
        kernel: KernelSpec::Benchmark {
            name: "sa_4d_add".into(),
        },
        oracle: None,
        overrides: ConfigOverrides {
            max_attempts: Some(50_000_000),
            max_nodes: Some(u64::MAX / 2),
            time_limit_ms: Some(120_000),
            ..ConfigOverrides::default()
        },
        trace_id: None,
    }
}

fn wait_for_progress(rx: &Receiver<Event>) -> Vec<Event> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut seen = Vec::new();
    loop {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .expect("no search_progress within 30s");
        let event = rx.recv_timeout(remaining).expect("stream stalled");
        let is_progress = matches!(event, Event::SearchProgress { .. });
        seen.push(event);
        if is_progress {
            return seen;
        }
    }
}

#[test]
fn mid_search_cancel_stops_workers_and_releases_state() {
    let server = quick_server(1);
    let handle = server.handle();

    let rx = submit(&handle, long_request("long"));
    // The job is demonstrably mid-search once progress streams.
    wait_for_progress(&rx);
    let cancelled_at = Instant::now();
    assert!(handle.cancel("long"), "job must be cancellable while running");

    // The stream terminates promptly with `failed`/`cancelled`.
    let mut tail = Vec::new();
    loop {
        let event = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("no terminal event after cancel");
        let terminal = event.is_terminal();
        tail.push(event);
        if terminal {
            break;
        }
    }
    assert!(
        cancelled_at.elapsed() < Duration::from_secs(10),
        "cancellation took {:?}",
        cancelled_at.elapsed()
    );
    match tail.last().unwrap() {
        Event::Failed { reason, cached, .. } => {
            assert_eq!(reason, "cancelled");
            assert!(!cached);
        }
        other => panic!("expected failed/cancelled: {other:?}"),
    }

    // State is released: nothing queued or active, id reusable.
    let stats = handle.stats();
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.active, 0);
    assert_eq!(stats.cancelled, 1);

    // The worker and its shared caches are not poisoned: the same
    // worker immediately serves a fresh lift to completion, and the
    // cancelled request was never cached as a result.
    let after = handle.lift_blocking(LiftRequest::benchmark("after", "blas_dot"));
    assert!(
        matches!(after.last(), Some(Event::Done { .. })),
        "worker must stay healthy after a cancel: {after:?}"
    );
    let again = submit(&handle, long_request("long"));
    let opening = wait_for_progress(&again);
    assert!(
        !opening.iter().any(|e| e.is_terminal()),
        "cancelled outcome must not have been cached: {opening:?}"
    );
    assert!(handle.cancel("long"));
    collect_stream(&again);
    server.shutdown();
}

#[test]
fn cancelling_a_queued_job_frees_its_slot_immediately() {
    let server = LiftServer::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        base: quick_base(),
        progress_interval: Duration::from_millis(20),
        default_timeout: None,
        result_cache_capacity: 64,
        ..ServerConfig::default()
    });
    let handle = server.handle();

    // `running` occupies the one worker; `queued` fills the one slot.
    let running_rx = submit(&handle, long_request("running"));
    wait_for_progress(&running_rx);
    let queued_rx = submit(&handle, LiftRequest::benchmark("queued", "blas_dot"));

    // The queue is full now.
    let (_rx, rejected) = try_submit(&handle, LiftRequest::benchmark("third", "blas_axpy"));
    assert_eq!(rejected.unwrap_err().code, ErrorCode::QueueFull);

    // Cancelling the queued job closes its stream and frees the slot.
    assert!(handle.cancel("queued"));
    let queued_events = collect_stream(&queued_rx);
    assert_well_ordered("queued", &queued_events);
    assert!(
        matches!(
            queued_events.last(),
            Some(Event::Failed { reason, .. }) if reason == "cancelled"
        ),
        "queued job must fail as cancelled: {queued_events:?}"
    );
    let replacement_rx = submit(&handle, LiftRequest::benchmark("fourth", "blas_scal"));

    // Unblock the worker; the replacement then completes.
    assert!(handle.cancel("running"));
    collect_stream(&running_rx);
    let replacement = collect_stream(&replacement_rx);
    assert!(
        matches!(replacement.last(), Some(Event::Done { .. })),
        "replacement lift must complete: {replacement:?}"
    );
    server.shutdown();
}

#[test]
fn request_timeout_fails_with_timeout_reason() {
    let server = quick_server(1);
    let handle = server.handle();
    let request = LiftRequest {
        overrides: ConfigOverrides {
            timeout_ms: Some(250),
            ..long_request("slow").overrides
        },
        ..long_request("slow")
    };
    let rx = submit(&handle, request);
    let events = collect_stream(&rx);
    assert_well_ordered("slow", &events);
    match events.last().unwrap() {
        Event::Failed { reason, .. } => assert_eq!(reason, "timeout"),
        other => panic!("expected failed/timeout: {other:?}"),
    }
    server.shutdown();
}

#[test]
fn admission_errors_are_synchronous_and_typed() {
    let server = quick_server(1);
    let handle = server.handle();

    let (_rx, unknown) = try_submit(&handle, LiftRequest::benchmark("u", "no_such_kernel"));
    assert_eq!(unknown.unwrap_err().code, ErrorCode::UnknownBenchmark);

    let running_rx = submit(&handle, long_request("dup"));
    wait_for_progress(&running_rx);
    let (_rx, duplicate) = try_submit(&handle, long_request("dup"));
    assert_eq!(duplicate.unwrap_err().code, ErrorCode::DuplicateId);
    assert!(handle.cancel("dup"));
    collect_stream(&running_rx);

    assert!(!handle.cancel("never-submitted"));
    let stats = handle.stats();
    assert_eq!(stats.rejected, 2);
    server.shutdown();
}

#[test]
fn client_disconnect_cancels_all_in_flight_lifts() {
    // `cancel_all` is the disconnect path of the TCP transport: a
    // vanished client's running and queued lifts must all stop.
    let server = quick_server(1);
    let gone = server.handle();
    let running_rx = submit(&gone, long_request("running"));
    wait_for_progress(&running_rx);
    let queued_rx = submit(&gone, LiftRequest::benchmark("queued", "blas_dot"));

    assert_eq!(gone.cancel_all(), 2);
    for rx in [&running_rx, &queued_rx] {
        let events = collect_stream(rx);
        assert!(
            matches!(
                events.last(),
                Some(Event::Failed { reason, .. }) if reason == "cancelled"
            ),
            "disconnect must cancel: {events:?}"
        );
    }

    // Other clients are untouched and the pool stays healthy.
    let other = server.handle();
    let events = other.lift_blocking(LiftRequest::benchmark("other", "blas_axpy"));
    assert!(matches!(events.last(), Some(Event::Done { .. })), "{events:?}");
    server.shutdown();
}

#[test]
fn cancel_from_another_client_reaches_the_lift() {
    // A wire-level cancel arrives on a fresh connection (fresh client
    // namespace); the cross-client fallback must still stop the lift.
    let server = quick_server(1);
    let submitter = server.handle();
    let rx = submit(&submitter, long_request("shared-id"));
    wait_for_progress(&rx);

    let other = server.handle();
    assert!(!other.cancel("shared-id"), "own-namespace miss");
    assert!(other.cancel_any_client("shared-id"), "cross-client hit");
    let events = collect_stream(&rx);
    assert!(
        matches!(
            events.last(),
            Some(Event::Failed { reason, .. }) if reason == "cancelled"
        ),
        "{events:?}"
    );
    assert!(!other.cancel_any_client("shared-id"), "already finished");
    server.shutdown();
}

#[test]
fn drain_waits_for_outstanding_lifts() {
    let server = quick_server(2);
    let handle = server.handle();
    let rx_a = submit(&handle, LiftRequest::benchmark("a", "blas_dot"));
    let rx_b = submit(&handle, LiftRequest::benchmark("b", "blas_gemv"));
    server.drain();
    // After drain both streams must already hold their terminal events.
    for rx in [rx_a, rx_b] {
        let mut saw_terminal = false;
        while let Ok(event) = rx.try_recv() {
            saw_terminal |= event.is_terminal();
        }
        assert!(saw_terminal, "drain returned before a stream terminated");
    }
    assert_eq!(handle.stats().completed, 2);
    server.shutdown();
}

#[test]
fn shutdown_drains_queued_jobs_with_shutting_down() {
    let server = LiftServer::start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        base: quick_base(),
        progress_interval: Duration::from_millis(20),
        default_timeout: None,
        result_cache_capacity: 64,
        ..ServerConfig::default()
    });
    let handle = server.handle();
    let running_rx = submit(&handle, long_request("running"));
    wait_for_progress(&running_rx);
    let queued_rx = submit(&handle, LiftRequest::benchmark("waiting", "blas_dot"));

    server.shutdown();

    let running = collect_stream(&running_rx);
    assert!(
        matches!(
            running.last(),
            Some(Event::Failed { reason, .. }) if reason == "shutting_down"
        ),
        "running lift must be cancelled by shutdown: {running:?}"
    );
    let queued = collect_stream(&queued_rx);
    assert!(
        matches!(
            queued.last(),
            Some(Event::Failed { reason, .. }) if reason == "shutting_down"
        ),
        "queued lift must drain with shutting_down: {queued:?}"
    );
}

#[test]
fn tcp_round_trips_are_not_held_back_by_nagle() {
    // Each event must leave the server as one segment. An event line
    // written as two sends (the JSON, then its newline) leaves the
    // newline queued behind Nagle's algorithm until the client's delayed
    // ACK, about 40 ms per event on Linux loopback: 20 round trips took
    // at least 800 ms that way.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = quick_server(1);
    let thread = std::thread::spawn(move || {
        serve_listener(listener, "nagle-server", || server.handle());
        server.shutdown();
    });
    let mut client = LiftClient::connect(&addr).expect("connect");
    // The cold lift fills the result cache; the timed lifts are hits.
    let warm = client.lift(LiftRequest::benchmark("warm", "blas_dot")).expect("lift");
    assert!(matches!(warm.last(), Some(Event::Done { .. })), "{warm:?}");
    let started = Instant::now();
    for n in 0..20 {
        let events = client
            .lift(LiftRequest::benchmark(format!("hit-{n}"), "blas_dot"))
            .expect("lift");
        assert!(matches!(events.last(), Some(Event::Done { .. })), "{events:?}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "20 cached round trips took {elapsed:?}"
    );
    client.shutdown().expect("send shutdown");
    thread.join().expect("server thread");
}
