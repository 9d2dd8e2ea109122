//! The batch suite runner must be a pure parallelisation: per-benchmark
//! outcomes identical to the sequential runner, results in input order,
//! well-formed JSON.

use gtl::StaggConfig;
use gtl_bench::{
    batch_json, run_batch_via_server, run_method_batch, run_method_batch_stored, run_method_on,
    BatchAnnotations, Method,
};
use gtl_benchsuite::{by_name, Benchmark};
use gtl_store::LiftStore;

fn small_set() -> Vec<Benchmark> {
    ["blas_dot", "mf_vadd", "blas_copy", "sa_add_scalar", "ds_vdiv", "blas_gemv"]
        .iter()
        .map(|n| by_name(n).unwrap())
        .collect()
}

#[test]
fn batch_outcomes_match_sequential_runner() {
    let set = small_set();
    let method = Method::stagg_td();
    let sequential = run_method_on(&method, &set);
    let batch = run_method_batch(&method, &set, 4);
    assert_eq!(batch.jobs.min(set.len()), batch.jobs, "jobs clamped to set size");
    assert_eq!(batch.suite.results.len(), sequential.results.len());
    for (p, s) in batch.suite.results.iter().zip(&sequential.results) {
        assert_eq!(p.name, s.name, "batch must preserve input order");
        assert_eq!(p.solved, s.solved, "{}: classification diverged", p.name);
        assert_eq!(p.attempts, s.attempts, "{}: attempts diverged", p.name);
    }
}

#[test]
fn batch_with_one_job_equals_run_method_on() {
    let set = small_set();
    let method = Method::stagg_td();
    let a = run_method_on(&method, &set);
    let b = run_method_batch(&method, &set, 1);
    for (x, y) in a.results.iter().zip(&b.suite.results) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.solved, y.solved);
        assert_eq!(x.attempts, y.attempts);
    }
}

#[test]
fn server_routed_batch_matches_direct_runner() {
    // The client-driven batch mode goes through the full serving layer
    // (queue, workers, result cache); outcome
    // classification and attempt counts must match the direct pipeline.
    let set = small_set();
    let direct = run_method_on(&Method::stagg_td(), &set);
    let served = run_batch_via_server("STAGG_TD", &StaggConfig::top_down(), &set, 3);
    assert_eq!(served.jobs, 3);
    assert_eq!(served.suite.results.len(), direct.results.len());
    for (s, d) in served.suite.results.iter().zip(&direct.results) {
        assert_eq!(s.name, d.name, "served batch must preserve input order");
        assert_eq!(s.solved, d.solved, "{}: classification diverged", s.name);
        assert_eq!(s.attempts, d.attempts, "{}: attempts diverged", s.name);
    }
    // The served batch feeds the same JSON emitter.
    let json = batch_json(&served, &set, &[], &BatchAnnotations::default());
    assert_eq!(json.matches("\"benchmark\":").count(), set.len());
}

#[test]
fn stored_batch_warm_starts_the_second_run() {
    let mut path = std::env::temp_dir();
    path.push(format!("gtl-bench-store-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let set = small_set();
    let method = Method::stagg_td();
    let config = StaggConfig::top_down();

    // Cold run: nothing warm, everything lifted, solved outcomes stored.
    let store = LiftStore::open(&path).unwrap();
    let (cold, warm_hits) = run_method_batch_stored(&method, &config, &set, 2, &store);
    assert_eq!(warm_hits, 0);
    let solved = cold.suite.solved();
    assert!(solved > 0, "the small set has solvable benchmarks");
    assert_eq!(store.len(), solved, "one record per solved benchmark");
    drop(store);

    // Warm run on a *reopened* store (the cross-process shape): every
    // solved benchmark is answered from the store with identical
    // numbers, only unsolved ones re-run.
    let store = LiftStore::open(&path).unwrap();
    let (warm, warm_hits) = run_method_batch_stored(&method, &config, &set, 2, &store);
    assert_eq!(warm_hits, solved);
    for (w, c) in warm.suite.results.iter().zip(&cold.suite.results) {
        assert_eq!(w.name, c.name, "input order preserved");
        assert_eq!(w.solved, c.solved);
        assert_eq!(w.attempts, c.attempts);
        assert_eq!(w.solution, c.solution);
        if w.solved {
            assert_eq!(w.seconds, c.seconds, "{}: warm hit echoes the original", w.name);
        }
    }
    // Replaying an identical suite must not have grown the log.
    assert_eq!(store.counters().appended, 0);

    // A different configuration shares the file but not the entries.
    let (_, cross_hits) = run_method_batch_stored(
        &Method::stagg_bu(),
        &StaggConfig::bottom_up(),
        &set,
        2,
        &store,
    );
    assert_eq!(cross_hits, 0, "keys are config-scoped");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn batch_json_is_well_formed_and_complete() {
    let set = small_set();
    let method = Method::stagg_td();
    let batch = run_method_batch(&method, &set, 2);
    let json = batch_json(
        &batch,
        &set,
        &["sa_4d_add".to_string()],
        &BatchAnnotations {
            parallel_speedup: Some(1.5),
            warm_hits: Some(2),
        },
    );
    // Structural sanity without a JSON parser: balanced braces/brackets,
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
}
