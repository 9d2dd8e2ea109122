//! The persistence contract of `--store` serving: a restarted server
//! answers repeat lifts from the store as result-cache hits with zero
//! search attempts and an answer identical to the original in every
//! deterministic field; the store's index is the only map of solved
//! lifts, so a full in-memory cache never drops one, while failures
//! stay in memory; and per-client fairness caps admissions with a typed
//! `rate_limited` error.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use gtl::{LiftQuery, StaggConfig};
use gtl_benchsuite::by_name;
use gtl_search::SearchBudget;
use gtl_serve::{
    request_key, ErrorCode, Event, LiftRequest, LiftServer, ServerConfig, ServerHandle, WireError,
};
use gtl_store::{LiftRecord, LiftStore};

fn quick_base() -> StaggConfig {
    StaggConfig::top_down().with_budget(SearchBudget {
        time_limit: Duration::from_secs(30),
        ..SearchBudget::default()
    })
}

fn stored_server(store: Arc<LiftStore>, workers: usize) -> LiftServer {
    stored_server_with(store, workers, 64, false)
}

fn stored_server_with(
    store: Arc<LiftStore>,
    workers: usize,
    result_cache_capacity: usize,
    accept_shared_lifts: bool,
) -> LiftServer {
    LiftServer::start(ServerConfig {
        workers,
        queue_capacity: 16,
        base: quick_base(),
        progress_interval: Duration::from_millis(20),
        default_timeout: None,
        result_cache_capacity,
        store: Some(store),
        accept_shared_lifts,
        ..ServerConfig::default()
    })
}

fn tmp_store(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gtl-serve-store-{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// The terminal `done` of a blocking lift, or a panic with the stream.
fn done_of(handle: &ServerHandle, request: LiftRequest) -> (String, u64, u64, bool) {
    let events = handle.lift_blocking(request);
    match events.last() {
        Some(Event::Done {
            solution,
            attempts,
            nodes,
            cached,
            ..
        }) => (solution.clone(), *attempts, *nodes, *cached),
        other => panic!("expected done, got {other:?}"),
    }
}

#[test]
fn restart_round_trip_serves_repeats_with_zero_search() {
    let path = tmp_store("restart");

    // Run 1: solve two benchmarks, persisting as they complete.
    let (dot, gemv) = {
        let store = Arc::new(LiftStore::open(&path).unwrap());
        let server = stored_server(store, 2);
        let handle = server.handle();
        let dot = done_of(&handle, LiftRequest::benchmark("r1", "blas_dot"));
        let gemv = done_of(&handle, LiftRequest::benchmark("r2", "blas_gemv"));
        assert!(!dot.3 && !gemv.3, "first sight must not be cached");
        let stats = handle.stats();
        assert_eq!(stats.store_appended, 2);
        assert_eq!(stats.store_loaded, 0);
        server.shutdown();
        (dot, gemv)
    };

    // Run 2: a fresh server on the same file — the "restart". Repeat
    // lifts must be result-cache hits: no search (zero fresh attempts
    // anywhere — the echoed numbers are the *original* run's), and the
    // identical solution.
    {
        let store = Arc::new(LiftStore::open(&path).unwrap());
        assert_eq!(store.counters().loaded, 2);
        let server = stored_server(store, 2);
        let handle = server.handle();
        let stats = handle.stats();
        assert_eq!(stats.store_loaded, 2);
        assert_eq!(stats.store_appended, 0);

        let dot2 = done_of(&handle, LiftRequest::benchmark("r1", "blas_dot"));
        let gemv2 = done_of(&handle, LiftRequest::benchmark("r2", "blas_gemv"));
        assert!(dot2.3 && gemv2.3, "repeats must be cache hits");
        assert_eq!((&dot2.0, dot2.1, dot2.2), (&dot.0, dot.1, dot.2));
        assert_eq!((&gemv2.0, gemv2.1, gemv2.2), (&gemv.0, gemv.1, gemv.2));

        let stats = handle.stats();
        assert_eq!(stats.cache_hits, 2, "both answered from the cache");
        assert_eq!(
            stats.oracles.len(),
            0,
            "zero lifts driven: no oracle was ever consulted"
        );
        assert_eq!(stats.store_appended, 0, "hits are not re-persisted");
        server.shutdown();
    }

    // Run 3: compaction between restarts must not change any answer.
    {
        let store = Arc::new(LiftStore::open(&path).unwrap());
        store.compact().unwrap();
        let server = stored_server(Arc::clone(&store), 1);
        let handle = server.handle();
        let dot3 = done_of(&handle, LiftRequest::benchmark("r1", "blas_dot"));
        assert!(dot3.3);
        assert_eq!((&dot3.0, dot3.1, dot3.2), (&dot.0, dot.1, dot.2));
        assert_eq!(handle.stats().store_compactions, 1);
        server.shutdown();
    }
    let _ = std::fs::remove_file(&path);
}

/// The terminal `failed` of a blocking lift: (reason, cached).
fn failed_of(handle: &ServerHandle, request: LiftRequest) -> (String, bool) {
    let events = handle.lift_blocking(request);
    match events.last() {
        Some(Event::Failed { reason, cached, .. }) => (reason.clone(), *cached),
        other => panic!("expected failed, got {other:?}"),
    }
}

/// A suite benchmark under a budget too small to solve it.
fn starved(id: &str) -> LiftRequest {
    let mut request = LiftRequest::benchmark(id, "blas_axpy");
    request.overrides.max_attempts = Some(1);
    request
}

/// Lifts driven so far, summed over every oracle spec.
fn lifts_driven(handle: &ServerHandle) -> u64 {
    handle.stats().oracles.iter().map(|o| o.lifts).sum()
}

#[test]
fn stored_solves_survive_a_full_result_cache() {
    let path = tmp_store("evict");
    let store = Arc::new(LiftStore::open(&path).unwrap());
    let server = stored_server_with(store, 1, 2, false);
    let handle = server.handle();
    let dot = done_of(&handle, LiftRequest::benchmark("r1", "blas_dot"));
    for (id, name) in [("r2", "blas_gemv"), ("r3", "blas_axpy")] {
        assert!(!done_of(&handle, LiftRequest::benchmark(id, name)).3);
    }
    assert_eq!(handle.stats().store_appended, 3);
    assert_eq!(lifts_driven(&handle), 3);

    // Three solves overfill a two-entry cache; the first must still hit.
    let again = done_of(&handle, LiftRequest::benchmark("r4", "blas_dot"));
    assert!(again.3, "a stored solve must survive a full cache");
    assert_eq!(again, (dot.0, dot.1, dot.2, true));
    let stats = handle.stats();
    assert_eq!(stats.store_appended, 3, "a hit is not re-persisted");
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 3));
    assert_eq!(lifts_driven(&handle), 3, "no oracle consulted for the hit");
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn failures_are_cached_in_memory_only() {
    let path = tmp_store("failure");
    {
        let store = Arc::new(LiftStore::open(&path).unwrap());
        let server = stored_server(store, 1);
        let handle = server.handle();
        let (reason, cached) = failed_of(&handle, starved("f1"));
        assert!(!cached);
        assert_eq!(failed_of(&handle, starved("f2")), (reason, true));
        assert_eq!(handle.stats().store_appended, 0, "failures are not persisted");
        server.shutdown();
    }
    // A restart forgets the failure: the same request runs again.
    let store = Arc::new(LiftStore::open(&path).unwrap());
    assert!(store.is_empty());
    let server = stored_server(store, 1);
    let handle = server.handle();
    assert!(!failed_of(&handle, starved("f3")).1);
    assert_eq!(handle.stats().cache_misses, 1);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_solve_supersedes_a_cached_failure_of_its_key() {
    let path = tmp_store("supersede");
    let store = Arc::new(LiftStore::open(&path).unwrap());
    let server = stored_server_with(Arc::clone(&store), 1, 64, true);
    let handle = server.handle();
    let (solution, ..) = done_of(&handle, LiftRequest::benchmark("r1", "blas_axpy"));
    assert!(!failed_of(&handle, starved("f1")).1);

    // A peer shares a solve under the starved request's own key.
    let b = by_name("blas_axpy").unwrap();
    let query = LiftQuery {
        label: b.name.to_string(),
        source: b.source.to_string(),
        task: b.lift_task(),
        ground_truth: Some(b.parse_ground_truth()),
    };
    let key = request_key(&query, &starved("f2").overrides.apply(&quick_base()));
    let record = LiftRecord {
        key,
        label: b.name.to_string(),
        solution: Some(solution.clone()),
        reason: None,
        detail: None,
        attempts: 7,
        nodes: 9,
        seconds: 0.25,
    };
    let Event::Shared { stored: true, .. } = handle.share("s1", record) else {
        panic!("the share must be stored");
    };

    // The repeat reads the store first: the solve, not the failure.
    assert_eq!(
        done_of(&handle, starved("f3")),
        (solution, 7, 9, true),
        "the stored solve answers"
    );
    assert_eq!(store.len(), 2);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn config_scoped_keys_do_not_cross_store_entries() {
    // A stored outcome is keyed by the full configuration: the same
    // benchmark under a different search mode must miss and run fresh.
    let path = tmp_store("scoped");
    {
        let store = Arc::new(LiftStore::open(&path).unwrap());
        let server = stored_server(store, 1);
        let handle = server.handle();
        done_of(&handle, LiftRequest::benchmark("r1", "blas_dot"));
        server.shutdown();
    }
    {
        let store = Arc::new(LiftStore::open(&path).unwrap());
        let server = LiftServer::start(ServerConfig {
            workers: 1,
            base: StaggConfig::bottom_up().with_budget(SearchBudget {
                time_limit: Duration::from_secs(30),
                ..SearchBudget::default()
            }),
            store: Some(store),
            ..ServerConfig::default()
        });
        let handle = server.handle();
        let (_, _, _, cached) = done_of(&handle, LiftRequest::benchmark("r1", "blas_dot"));
        assert!(!cached, "a different config must not hit the stored entry");
        server.shutdown();
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unreadable_store_is_a_typed_error_not_a_panic() {
    let path = tmp_store("corrupt");
    std::fs::write(&path, "this is not a store\n").unwrap();
    let err = LiftStore::open(&path).unwrap_err();
    assert!(
        matches!(err, gtl_store::StoreError::Version { .. }),
        "expected a Version error, got {err:?}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn per_client_inflight_cap_rejects_with_rate_limited() {
    let server = LiftServer::start(ServerConfig {
        workers: 1,
        queue_capacity: 16,
        base: quick_base(),
        progress_interval: Duration::from_millis(20),
        max_inflight_per_client: 2,
        ..ServerConfig::default()
    });
    let handle = server.handle();
    let sink: gtl_serve::EventSink = Arc::new(|_| {});

    // Two slow admissions fill the client's allowance…
    let slow = |id: &str| {
        let mut r = LiftRequest::benchmark(id, "sa_4d_add");
        r.overrides.max_attempts = Some(50_000);
        r.overrides.time_limit_ms = Some(20_000);
        r
    };
    handle.submit(slow("a"), Arc::clone(&sink)).unwrap();
    handle.submit(slow("b"), Arc::clone(&sink)).unwrap();

    // …the third is rejected with the typed admission error.
    let err: WireError = handle.submit(slow("c"), Arc::clone(&sink)).unwrap_err();
    assert_eq!(err.code, ErrorCode::RateLimited);
    assert_eq!(err.id.as_deref(), Some("c"));
    assert_eq!(err.code.wire_name(), "rate_limited");

    // A *different* client is unaffected — the cap is per client, not
    // global.
    let other = server.handle();
    other.submit(slow("a"), Arc::clone(&sink)).unwrap();

    // Freeing a slot re-admits the first client. Cancel the *queued*
    // job: its slot releases synchronously (a running job's release
    // waits for its worker to notice the flag).
    assert!(handle.cancel("b"));
    handle.submit(slow("d"), Arc::clone(&sink)).unwrap();
    assert_eq!(handle.stats().rejected, 1);
    server.shutdown();
}
