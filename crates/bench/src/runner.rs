//! Shared evaluation runner: applies one method to a set of benchmarks
//! and aggregates the statistics the paper's tables report.
//!
//! [`run_batch`] is the one batch runner: it fans a benchmark set out
//! over a worker pool (each worker runs whole lifts, so per-benchmark
//! results are identical to a sequential run — only completion order
//! differs) along a [`Route`], warm-starts from an optional store, and
//! records wall-clock time for throughput reporting.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use gtl::LiftQuery;
use gtl_benchsuite::Benchmark;
use gtl_serve::{
    request_key, ConfigOverrides, Event, LiftClient, LiftRequest, LiftServer, ServerConfig,
    ServerHandle,
};
use gtl_store::{Json, LiftRecord, LiftStore};
use gtl_trace::PhaseTimes;

use crate::methods::Method;

/// Builds the pipeline query for a benchmark.
pub fn query_for(b: &Benchmark) -> LiftQuery {
    LiftQuery {
        label: b.name.to_string(),
        source: b.source.to_string(),
        task: b.lift_task(),
        ground_truth: Some(b.parse_ground_truth()),
    }
}

/// Result of one method on one benchmark.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Benchmark name.
    pub name: String,
    /// Whether the method produced a (verified, for verifying methods)
    /// solution.
    pub solved: bool,
    /// End-to-end seconds.
    pub seconds: f64,
    /// Templates sent to validation.
    pub attempts: u64,
    /// The solution program, when solved — what `--store` persists so
    /// later runs (and `--store` servers) can answer without searching.
    pub solution: Option<String>,
    /// Search-queue pops (0 for baselines that report none).
    pub nodes: u64,
    /// Templates skipped by feasibility pre-checks (0 for baselines).
    pub pruned_infeasible: u64,
    /// Templates skipped as algebraically equivalent to one already
    /// checked (0 for baselines).
    pub pruned_equivalent: u64,
    /// Per-phase wall-time breakdown of the lift (all-zero for
    /// baselines and warm-started answers, which run no pipeline).
    pub phase_times: PhaseTimes,
}

/// Aggregated results of one method over a benchmark set.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Method display name.
    pub method: String,
    /// Per-benchmark outcomes, in suite order.
    pub results: Vec<MethodResult>,
}

impl SuiteResult {
    /// Number solved.
    pub fn solved(&self) -> usize {
        self.results.iter().filter(|r| r.solved).count()
    }

    /// Percentage solved.
    pub fn percent(&self) -> f64 {
        100.0 * self.solved() as f64 / self.results.len().max(1) as f64
    }

    /// Mean seconds over *solved* benchmarks (the paper's time columns).
    pub fn mean_seconds_solved(&self) -> f64 {
        let solved: Vec<&MethodResult> = self.results.iter().filter(|r| r.solved).collect();
        if solved.is_empty() {
            return 0.0;
        }
        solved.iter().map(|r| r.seconds).sum::<f64>() / solved.len() as f64
    }

    /// Mean attempts over solved benchmarks.
    pub fn mean_attempts_solved(&self) -> f64 {
        let solved: Vec<&MethodResult> = self.results.iter().filter(|r| r.solved).collect();
        if solved.is_empty() {
            return 0.0;
        }
        solved.iter().map(|r| r.attempts as f64).sum::<f64>() / solved.len() as f64
    }

    /// Whether a named benchmark was solved.
    pub fn solved_benchmark(&self, name: &str) -> bool {
        self.results.iter().any(|r| r.name == name && r.solved)
    }

    /// Restriction to the benchmarks solved by another method (the
    /// "Solved by C2TACO" / "Solved by Tenspiler" columns of Table 1).
    pub fn restricted_to(&self, other: &SuiteResult) -> SuiteResult {
        SuiteResult {
            method: self.method.clone(),
            results: self
                .results
                .iter()
                .filter(|r| other.solved_benchmark(&r.name))
                .cloned()
                .collect(),
        }
    }

    /// Restriction to benchmarks satisfying a name predicate (e.g. the
    /// real-world subset of a full-suite run).
    pub fn filtered(&self, keep: impl Fn(&str) -> bool) -> SuiteResult {
        SuiteResult {
            method: self.method.clone(),
            results: self
                .results
                .iter()
                .filter(|r| keep(&r.name))
                .cloned()
                .collect(),
        }
    }

    /// Sorted per-benchmark times of solved queries — the cactus-plot
    /// series (Figs. 9 and 12).
    pub fn cactus_series(&self) -> Vec<f64> {
        let mut times: Vec<f64> = self
            .results
            .iter()
            .filter(|r| r.solved)
            .map(|r| r.seconds)
            .collect();
        times.sort_by(f64::total_cmp);
        times
    }
}

/// Where a batch's lifts run.
#[derive(Debug, Clone)]
pub enum Route {
    /// Each worker calls the pipeline directly ([`Method::run`]).
    Pipeline,
    /// Through an in-process [`LiftServer`] with one worker per job:
    /// the path a remote `lift_client` takes (queue, worker pool,
    /// result cache), minus the socket. STAGG methods only.
    Server,
    /// Through an already-listening wire endpoint (a `lift_server
    /// --listen`, or a `lift_router` fronting a replica set), one TCP
    /// connection per job. `oracle` and `overrides` ride in every
    /// request, so the endpoint's base configuration plus these decide
    /// what runs.
    Endpoint {
        /// The endpoint's `host:port`.
        addr: String,
        /// A per-request oracle spec.
        oracle: Option<String>,
        /// Per-request configuration overrides.
        overrides: ConfigOverrides,
    },
}

/// The outcome of one batch run over a benchmark set.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-benchmark outcomes, in the input benchmark order (independent
    /// of completion order).
    pub suite: SuiteResult,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Worker count the batch ran with.
    pub jobs: usize,
    /// Benchmarks answered from the store without running a lift
    /// (`None` when the batch ran without a store).
    pub warm_hits: Option<usize>,
}

impl BatchResult {
    /// Sum of per-benchmark end-to-end seconds (the sequential-time
    /// estimate a speedup is measured against).
    pub fn cpu_seconds(&self) -> f64 {
        self.suite.results.iter().map(|r| r.seconds).sum()
    }
}

/// Runs `method` over `benchmarks` with `jobs` workers along `route`,
/// optionally warm-started from a persistent `store`.
///
/// Each worker claims whole benchmarks from a shared cursor, so lifts
/// share no mutable state and each is deterministic given its query.
/// Results come back in input order, and per-benchmark outcomes match
/// `jobs = 1` as long as wall-clock budgets are not the binding
/// constraint: oversubscribed cores inflate each lift's elapsed time,
/// and a lift that solves close to its `time_limit` alone can tip into
/// `BudgetExceeded` under contention.
///
/// With a store, benchmarks whose request key (scoped to the method's
/// own [`gtl::StaggConfig`]) already has a *solved* record are answered from
/// it with their original numbers and run no lift; every fresh solve
/// is appended afterwards, so a rerun skips what it has solved.
/// Failures are never stored, so a budget raise or a better oracle
/// gets its chance.
///
/// # Panics
///
/// Panics when a store or the [`Route::Server`] route is used with a
/// baseline method, and when a wire route loses a lift (an unreachable
/// endpoint, a rejected request or a dropped stream): those are setup
/// or serving-layer bugs, not properties of a benchmark.
pub fn run_batch(
    method: &Method,
    benchmarks: &[Benchmark],
    jobs: usize,
    route: &Route,
    store: Option<&LiftStore>,
) -> BatchResult {
    let started = Instant::now();
    let stagg_config = || {
        method.config().unwrap_or_else(|| {
            panic!("{}: stores and the server route need a STAGG method", method.name())
        })
    };
    // Warm start: answer stored solves before any lift runs.
    let mut results: Vec<Option<MethodResult>> = vec![None; benchmarks.len()];
    let mut keys = vec![0u64; benchmarks.len()];
    if let Some(store) = store {
        for ((b, slot), key) in benchmarks.iter().zip(&mut results).zip(&mut keys) {
            *key = request_key(&query_for(b), stagg_config());
            *slot = store.get(*key).filter(LiftRecord::solved).map(|record| MethodResult {
                name: b.name.to_string(),
                solved: true,
                seconds: record.seconds,
                attempts: record.attempts,
                solution: record.solution,
                nodes: record.nodes,
                // A warm hit did no pruning this run.
                pruned_infeasible: 0,
                pruned_equivalent: 0,
                phase_times: PhaseTimes::new(),
            });
        }
    }
    let cold: Vec<usize> = (0..benchmarks.len()).filter(|&i| results[i].is_none()).collect();
    let warm_hits = benchmarks.len() - cold.len();

    let server = matches!(route, Route::Server).then(|| {
        LiftServer::start(ServerConfig {
            workers: jobs.clamp(1, cold.len().max(1)),
            queue_capacity: cold.len().max(1),
            base: stagg_config().clone(),
            progress_interval: Duration::from_millis(250),
            default_timeout: None,
            result_cache_capacity: cold.len().max(1),
            ..ServerConfig::default()
        })
    });
    let new_worker = || match route {
        Route::Pipeline => Worker::Pipeline(method),
        Route::Server => Worker::Server(server.as_ref().expect("server started").handle()),
        Route::Endpoint {
            addr,
            oracle,
            overrides,
        } => Worker::Endpoint {
            client: LiftClient::connect(addr.as_str())
                .unwrap_or_else(|e| panic!("cannot reach {addr}: {e}")),
            addr,
            oracle,
            overrides,
        },
    };
    let fresh = run_pool(benchmarks, &cold, jobs, new_worker);
    if let Some(server) = server {
        server.shutdown();
    }

    // Persist fresh solves, then merge them back into input order.
    for (i, result) in cold.into_iter().zip(fresh) {
        if let (Some(store), true) = (store, result.solved) {
            let record = LiftRecord {
                key: keys[i],
                label: result.name.clone(),
                solution: result.solution.clone(),
                reason: None,
                detail: None,
                attempts: result.attempts,
                nodes: result.nodes,
                seconds: result.seconds,
            };
            if let Err(e) = store.append(record) {
                eprintln!("batch_suite: store append failed for {}: {e}", result.name);
            }
        }
        results[i] = Some(result);
    }
    BatchResult {
        suite: SuiteResult {
            method: method.name(),
            results: results
                .into_iter()
                .map(|r| r.expect("every benchmark has a result"))
                .collect(),
        },
        wall: started.elapsed(),
        // Clamped against the full input set, so a fully warm rerun
        // reports the same `jobs` as the cold run it repeats.
        jobs: jobs.clamp(1, benchmarks.len().max(1)),
        warm_hits: store.map(|_| warm_hits),
    }
}

/// One batch worker, built once per pool thread.
enum Worker<'a> {
    Pipeline(&'a Method),
    Server(ServerHandle),
    Endpoint {
        client: LiftClient,
        addr: &'a str,
        oracle: &'a Option<String>,
        overrides: &'a ConfigOverrides,
    },
}

impl Worker<'_> {
    fn lift(&mut self, b: &Benchmark) -> MethodResult {
        let request = || LiftRequest::benchmark(b.name, b.name);
        match self {
            Worker::Pipeline(method) => method.run(&query_for(b)),
            Worker::Server(handle) => decode(b.name, &handle.lift_blocking(request())),
            Worker::Endpoint {
                client,
                addr,
                oracle,
                overrides,
            } => {
                let mut request = request();
                request.oracle = oracle.clone();
                request.overrides = overrides.clone();
                let events = client
                    .lift(request)
                    .unwrap_or_else(|e| panic!("{}: lift via {addr} failed: {e}", b.name));
                decode(b.name, &events)
            }
        }
    }
}

/// Runs the benchmarks at `indices` on up to `jobs` workers pulling
/// from one cursor, and returns their results in `indices` order.
fn run_pool<'a>(
    benchmarks: &[Benchmark],
    indices: &[usize],
    jobs: usize,
    new_worker: impl Fn() -> Worker<'a> + Sync,
) -> Vec<MethodResult> {
    if indices.is_empty() {
        return Vec::new();
    }
    let workers = jobs.clamp(1, indices.len());
    if workers == 1 {
        let mut worker = new_worker();
        return indices.iter().map(|&i| worker.lift(&benchmarks[i])).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, MethodResult)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut worker = new_worker();
                    let mut out = Vec::new();
                    loop {
                        let n = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = indices.get(n) else { break out };
                        out.push((n, worker.lift(&benchmarks[i])));
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|&(n, _)| n);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Turns a wire route's event stream into the benchmark's result: a
/// terminal `done` or `failed` event carries the outcome. Wire events
/// carry no analysis counters or phase times (the server's aggregate
/// `stats` snapshot does), so those read 0.
fn decode(name: &str, events: &[Event]) -> MethodResult {
    let (solution, attempts, nodes, elapsed_ms) = match events.last() {
        Some(Event::Done {
            solution,
            attempts,
            nodes,
            elapsed_ms,
            ..
        }) => (Some(solution.clone()), *attempts, *nodes, *elapsed_ms),
        Some(Event::Failed {
            attempts,
            nodes,
            elapsed_ms,
            ..
        }) => (None, *attempts, *nodes, *elapsed_ms),
        Some(Event::Error { code, message, .. }) => {
            panic!("{name}: request rejected ({}): {message}", code.wire_name())
        }
        other => panic!("{name}: stream ended without a terminal event: {other:?}"),
    };
    MethodResult {
        name: name.to_string(),
        solved: solution.is_some(),
        seconds: elapsed_ms as f64 / 1000.0,
        attempts,
        solution,
        nodes,
        pruned_infeasible: 0,
        pruned_equivalent: 0,
        phase_times: PhaseTimes::new(),
    }
}

/// Renders a batch as one JSON document with per-benchmark
/// timing/outcome rows (the machine-readable feed for the fig9/fig10
/// tables). `benchmarks` must be the slice the batch ran over, in the
/// same order (it supplies the suite of each row); `skipped` lists
/// benchmarks excluded from the run (`--skip`), recorded so a
/// truncated suite is never mistaken for a full one;
/// `parallel_speedup` is sequential wall over parallel wall, when
/// `--compare-sequential` measured it. The warm-hit count is recorded
/// when the batch ran with a store.
pub fn batch_json(
    batch: &BatchResult,
    benchmarks: &[Benchmark],
    skipped: &[String],
    parallel_speedup: Option<f64>,
) -> String {
    assert_eq!(
        batch.suite.results.len(),
        benchmarks.len(),
        "benchmark slice must match the batch"
    );
    let mut out = String::from("{\n");
    let skipped_json = skipped
        .iter()
        .map(|s| Json::str(s).to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let pruned_infeasible: u64 = batch.suite.results.iter().map(|r| r.pruned_infeasible).sum();
    let pruned_equivalent: u64 = batch.suite.results.iter().map(|r| r.pruned_equivalent).sum();
    out.push_str(&format!(
        "  \"method\": {},\n  \"jobs\": {},\n  \"wall_seconds\": {:.6},\n  \"cpu_seconds\": {:.6},\n  \"solved\": {},\n  \"total\": {},\n  \"pruned_infeasible\": {pruned_infeasible},\n  \"pruned_equivalent\": {pruned_equivalent},\n  \"skipped\": [{skipped_json}],\n",
        Json::str(&batch.suite.method),
        batch.jobs,
        batch.wall.as_secs_f64(),
        batch.cpu_seconds(),
        batch.suite.solved(),
        batch.suite.results.len(),
    ));
    if let Some(speedup) = parallel_speedup {
        out.push_str(&format!("  \"parallel_speedup\": {speedup:.6},\n"));
    }
    if let Some(warm) = batch.warm_hits {
        out.push_str(&format!("  \"warm_hits\": {warm},\n"));
    }
    // Whole-batch per-phase totals, microseconds — where the suite's
    // wall time actually went (all-zero rows contribute nothing, so a
    // baseline batch reports an honest all-zero breakdown).
    let mut phase_totals = PhaseTimes::new();
    for r in &batch.suite.results {
        phase_totals.merge(&r.phase_times);
    }
    let phases = phase_totals
        .iter()
        .map(|(phase, us)| format!("\"{}\": {us}", phase.name()))
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str(&format!("  \"phase_times\": {{{phases}}},\n"));
    out.push_str("  \"results\": [\n");
    for (n, (r, b)) in batch.suite.results.iter().zip(benchmarks).enumerate() {
        let comma = if n + 1 < batch.suite.results.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"benchmark\": {}, \"suite\": \"{}\", \"solved\": {}, \"seconds\": {:.6}, \"attempts\": {}, \"pops\": {}, \"phase_us\": {}}}{comma}\n",
            Json::str(&r.name),
            b.suite.cli_name(),
            r.solved,
            r.seconds,
            r.attempts,
            r.nodes,
            r.phase_times.total_us(),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
