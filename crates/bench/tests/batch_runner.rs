//! The batch suite runner must be a pure parallelisation: per-benchmark
//! outcomes identical to a sequential run on every route, results in
//! input order, one warm start shared by the routes, well-formed JSON.

use gtl_bench::{batch_json, run_batch, BatchResult, Method, Route};
use gtl_benchsuite::{by_name, Benchmark};
use gtl_store::LiftStore;

fn small_set() -> Vec<Benchmark> {
    ["blas_dot", "mf_vadd", "blas_copy", "sa_add_scalar", "ds_vdiv", "blas_gemv"]
        .iter()
        .map(|n| by_name(n).unwrap())
        .collect()
}

/// One worker calling the pipeline in input order: the reference every
/// other shape of batch must match.
fn sequential(method: &Method, set: &[Benchmark]) -> BatchResult {
    run_batch(method, set, 1, &Route::Pipeline, None)
}

fn assert_same_outcomes(got: &BatchResult, want: &BatchResult) {
    assert_eq!(got.suite.results.len(), want.suite.results.len());
    for (g, w) in got.suite.results.iter().zip(&want.suite.results) {
        assert_eq!(g.name, w.name, "batch must preserve input order");
        assert_eq!(g.solved, w.solved, "{}: classification diverged", g.name);
        assert_eq!(g.attempts, w.attempts, "{}: attempts diverged", g.name);
    }
}

#[test]
fn batch_outcomes_match_sequential_runner() {
    let set = small_set();
    let method = Method::stagg_td();
    let batch = run_batch(&method, &set, 4, &Route::Pipeline, None);
    assert_eq!(batch.jobs, 4);
    assert_eq!(batch.warm_hits, None, "no store, no warm-hit count");
    assert_same_outcomes(&batch, &sequential(&method, &set));
    let clamped = run_batch(&method, &set[..2], 8, &Route::Pipeline, None);
    assert_eq!(clamped.jobs, 2, "jobs clamped to set size");
}

#[test]
fn batch_with_one_job_equals_sequential_lifts() {
    let set = small_set();
    let method = Method::stagg_td();
    let batch = sequential(&method, &set);
    for (b, r) in set.iter().zip(&batch.suite.results) {
        let direct = method.run(&gtl_bench::query_for(b));
        assert_eq!(r.name, direct.name);
        assert_eq!(r.solved, direct.solved);
        assert_eq!(r.attempts, direct.attempts);
        assert_eq!(r.solution, direct.solution);
    }
}

#[test]
fn server_routed_batch_matches_direct_runner() {
    // The server route goes through the full serving layer (queue,
    // workers, result cache); outcome classification and attempt
    // counts must match the direct pipeline.
    let set = small_set();
    let method = Method::stagg_td();
    let served = run_batch(&method, &set, 3, &Route::Server, None);
    assert_eq!(served.jobs, 3);
    assert_eq!(served.suite.method, "STAGG_TD");
    assert_same_outcomes(&served, &sequential(&method, &set));
    // The served batch feeds the same JSON emitter.
    let json = batch_json(&served, &set, &[], None);
    assert_eq!(json.matches("\"benchmark\":").count(), set.len());
}

#[test]
fn stored_batch_warm_starts_the_second_run() {
    let mut path = std::env::temp_dir();
    path.push(format!("gtl-bench-store-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let set = small_set();
    let method = Method::stagg_td();

    // Cold run: nothing warm, everything lifted, solved outcomes stored.
    let store = LiftStore::open(&path).unwrap();
    let cold = run_batch(&method, &set, 2, &Route::Pipeline, Some(&store));
    assert_eq!(cold.warm_hits, Some(0));
    let solved = cold.suite.solved();
    assert!(solved > 0, "the small set has solvable benchmarks");
    assert_eq!(store.len(), solved, "one record per solved benchmark");
    drop(store);

    // Warm runs on a *reopened* store (the cross-process shape), on
    // both local routes: every solved benchmark is answered from the
    // store with identical numbers, only unsolved ones re-run.
    for route in [Route::Pipeline, Route::Server] {
        let store = LiftStore::open(&path).unwrap();
        let warm = run_batch(&method, &set, 2, &route, Some(&store));
        assert_eq!(warm.warm_hits, Some(solved), "{route:?}");
        assert_eq!(warm.jobs, cold.jobs, "{route:?}: a warm rerun reports the same jobs");
        for (w, c) in warm.suite.results.iter().zip(&cold.suite.results) {
            assert_eq!(w.name, c.name, "input order preserved");
            assert_eq!(w.solved, c.solved);
            assert_eq!(w.attempts, c.attempts);
            assert_eq!(w.nodes, c.nodes);
            assert_eq!(w.solution, c.solution);
            if w.solved {
                assert_eq!(w.seconds, c.seconds, "{}: warm hit echoes the original", w.name);
            }
        }
        // Replaying an identical suite must not have grown the log.
        assert_eq!(store.counters().appended, 0, "{route:?}");
    }

    // A different configuration shares the file but not the entries.
    let store = LiftStore::open(&path).unwrap();
    let cross = run_batch(&Method::stagg_bu(), &set, 2, &Route::Pipeline, Some(&store));
    assert_eq!(cross.warm_hits, Some(0), "keys are config-scoped");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn batch_json_is_well_formed_and_complete() {
    let set = small_set();
    let mut batch = run_batch(&Method::stagg_td(), &set, 2, &Route::Pipeline, None);
    batch.warm_hits = Some(2);
    let json = batch_json(&batch, &set, &["sa_4d_add".to_string()], Some(1.5));
    // Structural sanity: balanced braces/brackets,
    // one row per benchmark, every name present.
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "unbalanced braces:\n{json}"
    );
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert_eq!(json.matches("\"benchmark\":").count(), set.len());
    for b in &set {
        assert!(json.contains(b.name), "row for {} missing", b.name);
        assert!(json.contains(b.suite.cli_name()));
    }
    assert!(json.contains("\"jobs\": 2"));
    assert!(json.contains("\"wall_seconds\":"));
    assert!(json.contains("\"parallel_speedup\": 1.500000"));
    assert!(json.contains("\"warm_hits\": 2"));
    assert!(
        json.contains("\"skipped\": [\"sa_4d_add\"]"),
        "skipped benchmarks must be recorded:\n{json}"
    );
    // And a real parser accepts it.
    gtl_store::parse(&json).expect("batch JSON parses");
}
