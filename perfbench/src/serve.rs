//! The `serve` workload: an in-process `LiftServer` (2 workers, result
//! cache, a `gtl_store` log in a scratch directory) reached over loopback
//! TCP with the JSON-lines protocol, driven by a closed loop on 2
//! connections.
//!
//! Each request lifts raw C source (`KernelSpec::Source`, with params and
//! the ground-truth hint) of a (kernel, oracle seed) pair from
//! `serve_pool.txt`. The workload seed shuffles the pool and deals each
//! connection half of it as its new pairs (cold lifts); between them, in
//! an order the seed draws, each connection repeats two of its own
//! earlier requests per new one (result-cache hits). Connections stop
//! sending when the run's time is up. One server serves the whole run; a
//! run that gets through every pair starts a fresh server and store for
//! the next shuffle (a *cycle*).

use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gtl_benchsuite::{by_name, Benchmark, ParamSpec};
use gtl_serve::{
    serve_listener, ConfigOverrides, Event, KernelSpec, LiftClient, LiftRequest, LiftServer, Phase,
    Request, ServerConfig, ServerStats, WireParam, WireParamKind,
};
use gtl_store::json::Json;
use gtl_store::LiftStore;

use crate::lifts::warm_up;
use crate::trace::Layers;
use crate::{check, peak_rss_mb, quantile, ratio, us_since, Args, Report, Rng};

const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// Repeats per new pair: two thirds of the requests are cache hits.
const REPEATS_PER_NEW: usize = 2;
/// Requests per connection at the start of cycle 0 that run whatever the
/// deadline, so their counters are always complete.
const COUNTED_PREFIX: usize = 30;
/// A request with no terminal event after this long counts as lost.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Two (kernel, oracle seed) pairs per suite kernel, each solving under
/// the default configuration; chosen from a `perfbench --scan` (see the
/// file's header and README.md).
const POOL: &str = include_str!("../serve_pool.txt");

struct PoolEntry {
    bench: Benchmark,
    oracle_seed: u64,
    request: LiftRequest,
}

impl PoolEntry {
    fn key(&self) -> String {
        format!("{}@{}", self.bench.name, self.oracle_seed)
    }
}

fn load_pool() -> Vec<PoolEntry> {
    POOL.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let mut fields = line.split_whitespace();
            let name = fields.next().expect("pool line names a kernel");
            let bench =
                by_name(name).unwrap_or_else(|| panic!("pool kernel {name} is not in the suite"));
            let oracle_seed = fields
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("pool line `{line}` has no oracle seed"));
            let request = request_for(&bench, oracle_seed);
            PoolEntry {
                bench,
                oracle_seed,
                request,
            }
        })
        .collect()
}

/// The wire request lifting `bench`'s C source under `synthetic:SEED`.
fn request_for(bench: &Benchmark, oracle_seed: u64) -> LiftRequest {
    let source = bench.compiled_source().expect("suite kernels parse");
    let strings = |dims: &[&str]| dims.iter().map(|d| (*d).to_string()).collect();
    let params = bench
        .params
        .iter()
        .zip(&source.program.kernel().params)
        .map(|(spec, param)| WireParam {
            name: param.name.clone(),
            kind: match spec {
                ParamSpec::Size(symbol) => WireParamKind::Size {
                    symbol: (*symbol).to_string(),
                },
                ParamSpec::ScalarIn { nonzero } => WireParamKind::ScalarIn { nonzero: *nonzero },
                ParamSpec::ArrayIn { dims, nonzero } => WireParamKind::ArrayIn {
                    dims: strings(dims),
                    nonzero: *nonzero,
                },
                ParamSpec::ArrayOut { dims } => WireParamKind::ArrayOut {
                    dims: strings(dims),
                },
            },
        })
        .collect();
    LiftRequest {
        id: String::new(),
        kernel: KernelSpec::Source {
            label: bench.name.to_string(),
            source: bench.source.to_string(),
            params,
            ground_truth: Some(bench.ground_truth.to_string()),
        },
        oracle: Some(format!("synthetic:{oracle_seed}")),
        overrides: ConfigOverrides::default(),
        trace_id: None,
    }
}

/// Cycle `cycle`'s request sequence per connection, as pool indices. The
/// connections deal disjoint new pairs, and a repeat names a pair its own
/// connection already completed, so every repeat is a result-cache hit.
fn plan_cycle(seed: u64, cycle: u64, pool_len: usize) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(seed ^ cycle.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut fresh: Vec<usize> = (0..pool_len).collect();
    rng.shuffle(&mut fresh);
    fresh
        .chunks(pool_len.div_ceil(CONNECTIONS))
        .map(|new_pairs| {
            let mut kinds = vec![false; new_pairs.len() * (1 + REPEATS_PER_NEW)];
            kinds[..new_pairs.len()].fill(true);
            rng.shuffle(&mut kinds[1..]);
            let mut new_pairs = new_pairs.iter();
            let mut issued: Vec<usize> = Vec::new();
            kinds
                .into_iter()
                .map(|new| {
                    if new {
                        let entry = *new_pairs.next().expect("one new pair per `new` slot");
                        issued.push(entry);
                        entry
                    } else {
                        issued[rng.below(issued.len())]
                    }
                })
                .collect()
        })
        .collect()
}

/// One request as the client saw it.
struct Sample {
    entry: usize,
    latency_us: f64,
    /// Send to `queued`, when the request was traced.
    admit_us: Option<f64>,
    cached: bool,
    /// `(solution, attempts, pops)` of a `done`, else what went wrong.
    result: Result<(String, u64, u64), String>,
}

struct Cycle {
    /// Per connection, its requests in order.
    samples: Vec<Vec<Sample>>,
    loop_us: f64,
    stats: Option<(ServerStats, ServerStats)>,
}

/// Starts a server with a fresh store in `dir`, runs `plan` until
/// `deadline`, and shuts the server down.
fn run_cycle(
    pool: &[PoolEntry],
    plan: &[Vec<usize>],
    dir: &Path,
    traced: bool,
    deadline: Instant,
    min_requests: usize,
) -> Result<Cycle, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let store = LiftStore::open(dir.join("lifts.log")).map_err(|e| format!("open store: {e}"))?;
    let server = LiftServer::start(ServerConfig {
        workers: WORKERS,
        store: Some(Arc::new(store)),
        ..ServerConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let result = std::thread::scope(|scope| {
        let acceptor = scope.spawn(|| serve_listener(listener, "perfbench", || server.handle()));
        let mut control = match LiftClient::connect(addr) {
            Ok(control) => control,
            Err(e) => {
                // Without a connection nothing can stop the listener.
                eprintln!("perfbench: cannot reach the server: {e}");
                std::process::exit(1);
            }
        };
        let result = drive(
            pool,
            plan,
            addr,
            traced.then_some(&mut control),
            deadline,
            min_requests,
        );
        if let Err(e) = control.shutdown() {
            eprintln!("perfbench: cannot stop the server: {e}");
            std::process::exit(1);
        }
        acceptor.join().expect("listener thread");
        result
    });
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    result
}

fn drive(
    pool: &[PoolEntry],
    plan: &[Vec<usize>],
    addr: SocketAddr,
    mut control: Option<&mut LiftClient>,
    deadline: Instant,
    min_requests: usize,
) -> Result<Cycle, String> {
    let traced = control.is_some();
    let mut stats = || -> Result<Option<ServerStats>, String> {
        match control.as_deref_mut() {
            None => Ok(None),
            Some(client) => client.stats().map(Some).map_err(|e| format!("stats: {e}")),
        }
    };
    // Connect before the clock starts; one `stats` round trip each proves
    // the listener has accepted the connection and is serving it.
    let mut clients = Vec::with_capacity(plan.len());
    for _ in plan {
        let mut client = LiftClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        client
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        client
            .stats()
            .map_err(|e| format!("first round trip: {e}"))?;
        clients.push(client);
    }
    let before = stats()?;
    let started = Instant::now();
    let samples: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let threads: Vec<_> = plan
            .iter()
            .zip(clients)
            .map(|(sequence, client)| {
                scope.spawn(move || {
                    run_connection(pool, sequence, client, traced, deadline, min_requests)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|thread| thread.join().expect("client thread"))
            .collect()
    });
    let loop_us = us_since(started);
    let after = stats()?;
    Ok(Cycle {
        samples,
        loop_us,
        stats: before.zip(after),
    })
}

/// One connection's closed loop: send, wait for the terminal event, next;
/// stop at `deadline` once `min_requests` are done. A traced run times
/// every second request's `queued` event as well.
fn run_connection(
    pool: &[PoolEntry],
    sequence: &[usize],
    mut client: LiftClient,
    traced: bool,
    deadline: Instant,
    min_requests: usize,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    for (i, &entry) in sequence.iter().enumerate() {
        if i >= min_requests && Instant::now() >= deadline {
            break;
        }
        let mut request = pool[entry].request.clone();
        request.id = i.to_string();
        let mut sample = Sample {
            entry,
            latency_us: 0.0,
            admit_us: None,
            cached: false,
            result: Err(String::new()),
        };
        let time_admission = traced && i % 2 == 1;
        let sent = Instant::now();
        sample.result = match client.send(&Request::Lift(request)) {
            Err(e) => Err(format!("stream lost: send: {e}")),
            Ok(()) => loop {
                match client.next_event() {
                    Ok(Some(Event::Queued { .. })) if time_admission => {
                        sample.admit_us = Some(us_since(sent));
                    }
                    Ok(Some(Event::Done {
                        solution,
                        attempts,
                        nodes,
                        cached,
                        ..
                    })) => {
                        sample.cached = cached;
                        break Ok((solution, attempts, nodes));
                    }
                    Ok(Some(Event::Failed { reason, detail, .. })) => {
                        break Err(format!("failed: {reason} {detail:?}"));
                    }
                    Ok(Some(Event::Error { code, message, .. })) => {
                        break Err(format!("error {code:?}: {message}"));
                    }
                    Ok(Some(_)) => {}
                    Ok(None) => {
                        break Err("stream lost: closed before a terminal event".to_string())
                    }
                    Err(e) => break Err(format!("stream lost: {e}")),
                }
            },
        };
        sample.latency_us = us_since(sent);
        let lost = matches!(&sample.result, Err(why) if why.starts_with("stream lost"));
        samples.push(sample);
        if lost {
            break;
        }
    }
    samples
}

/// Per-layer totals of the traced run.
#[derive(Default)]
struct ServeLayers {
    admit_us: Vec<f64>,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    /// Mean latency of requests with and without admission timing.
    timed_us: (f64, u64),
    plain_us: (f64, u64),
    queue_wait_us: u64,
    queue_waits: u64,
    service_us: u64,
    services: u64,
    cache_hits: u64,
    cache_lookups: u64,
    store_appends: u64,
    store_append_us: u64,
    cold_lifts: u64,
}

impl ServeLayers {
    fn add(&mut self, cycle: &Cycle) {
        for sample in cycle.samples.iter().flatten() {
            let latency_ms = sample.latency_us / 1e3;
            let sum = match sample.admit_us {
                Some(admit) => {
                    self.admit_us.push(admit);
                    &mut self.timed_us
                }
                None => &mut self.plain_us,
            };
            sum.0 += sample.latency_us;
            sum.1 += 1;
            if sample.cached {
                self.hit_ms.push(latency_ms);
            } else {
                self.miss_ms.push(latency_ms);
                self.cold_lifts += 1;
            }
        }
        if let Some((before, after)) = &cycle.stats {
            let queue_wait = after.queue_wait.diff(&before.queue_wait);
            let service = after.service_time.diff(&before.service_time);
            self.queue_wait_us += queue_wait.sum_us();
            self.queue_waits += queue_wait.count();
            self.service_us += service.sum_us();
            self.services += service.count();
            self.cache_hits += after.cache_hits - before.cache_hits;
            self.cache_lookups +=
                (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses);
            self.store_appends += after.store_appended - before.store_appended;
            self.store_append_us += after.phase_times.get(Phase::StoreAppend)
                - before.phase_times.get(Phase::StoreAppend);
        }
    }

    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("serve.admit_us", quantile(&self.admit_us, 0.5), "us"),
            ("serve.hit_ms", quantile(&self.hit_ms, 0.5), "ms"),
            ("serve.miss_ms", quantile(&self.miss_ms, 0.5), "ms"),
            (
                "serve.queue_wait_us",
                ratio(self.queue_wait_us as f64, self.queue_waits as f64),
                "us",
            ),
            (
                "serve.service_us",
                ratio(self.service_us as f64, self.services as f64),
                "us",
            ),
            (
                "serve.cache_hit_frac",
                ratio(self.cache_hits as f64, self.cache_lookups as f64),
                "frac",
            ),
            // Appends per cold lift: 1 when every solved lift is stored.
            (
                "store.appends",
                ratio(self.store_appends as f64, self.cold_lifts as f64),
                "count",
            ),
            (
                "store.append_us",
                ratio(self.store_append_us as f64, self.store_appends as f64),
                "us",
            ),
        ]
    }

    fn overhead_frac(&self) -> f64 {
        let mean = |(sum, n): (f64, u64)| ratio(sum, n as f64);
        ratio(mean(self.timed_us), mean(self.plain_us)) - 1.0
    }
}

/// The `serve.*` and `store.*` metrics of a workload without a server.
pub fn absent_layer_metrics() -> Vec<(&'static str, f64, &'static str)> {
    ServeLayers::default().metrics()
}

/// Runs the `serve` workload.
pub fn run(args: &Args) -> Option<Report> {
    let pool = load_pool();
    assert!(
        pool.len() >= CONNECTIONS * COUNTED_PREFIX,
        "the serve pool must cover the counted prefix"
    );
    warm_up();
    let dir = args.tmp.join(format!("serve-{}", std::process::id()));
    if args.setup_only {
        // Server start and store open, proven by one lift per connection.
        let plan: Vec<Vec<usize>> = (0..CONNECTIONS).map(|c| vec![c]).collect();
        if let Err(e) = run_cycle(&pool, &plan, &dir, false, Instant::now(), 1) {
            eprintln!("perfbench: serve set-up failed: {e}");
            std::process::exit(1);
        }
        return None;
    }

    let mut report = Report {
        attempted: 0,
        failed: 0,
        failed_frac: 0.0,
        problems: Vec::new(),
        pass_seconds: Vec::new(),
        metrics: Vec::new(),
        counters: Json::Null,
    };
    // Every outcome seen per pool entry: a pair must lift the same way
    // every time, cached or not.
    let mut outcomes: Vec<Option<(String, u64, u64)>> = vec![None; pool.len()];
    let mut occurrences = vec![0u64; pool.len()];
    let mut latencies_ms = Vec::new();
    let mut layers = ServeLayers::default();

    let deadline = Instant::now() + args.seconds;
    while report.pass_seconds.is_empty() || Instant::now() < deadline {
        let cycle_index = report.pass_seconds.len() as u64;
        let plan = plan_cycle(args.seed, cycle_index, pool.len());
        let min_requests = if cycle_index == 0 { COUNTED_PREFIX } else { 1 };
        let cycle = match run_cycle(&pool, &plan, &dir, args.trace, deadline, min_requests) {
            Ok(cycle) => cycle,
            Err(e) => {
                report.fail(1, || format!("cycle {cycle_index}: {e}"));
                break;
            }
        };
        if cycle_index == 0 {
            report.counters = counters(&pool, &cycle);
        }
        for sample in cycle.samples.iter().flatten() {
            report.attempted += 1;
            match &sample.result {
                Err(why) => report.fail(1, || format!("{}: {why}", pool[sample.entry].key())),
                Ok(outcome) => {
                    occurrences[sample.entry] += 1;
                    latencies_ms.push(sample.latency_us / 1e3);
                    match &outcomes[sample.entry] {
                        None => outcomes[sample.entry] = Some(outcome.clone()),
                        Some(seen) if seen != outcome => report.fail(1, || {
                            format!(
                                "{}: outcome changed: {seen:?} then {outcome:?}",
                                pool[sample.entry].key()
                            )
                        }),
                        Some(_) => {}
                    }
                }
            }
        }
        layers.add(&cycle);
        report.pass_seconds.push(cycle.loop_us / 1e6);
    }

    for ((entry, outcome), count) in pool.iter().zip(&outcomes).zip(&occurrences) {
        let Some((solution, _, _)) = outcome else {
            continue;
        };
        if let Err(e) = check::check_solution(&entry.bench, solution, args.seed) {
            report.fail(*count, || format!("{}: {solution}: {e}", entry.key()));
        }
    }
    // Every pool pair solves, so each failure above is a lift without a
    // verified and checked solution.
    report.failed_frac = ratio(report.failed as f64, report.attempted as f64).min(1.0);
    report.metrics = if args.trace {
        let mut metrics: Vec<_> = Layers::default().metrics();
        metrics.push(("lift.failed_frac", report.failed_frac, "frac"));
        metrics.extend(layers.metrics());
        metrics.push(("trace.overhead_frac", layers.overhead_frac(), "frac"));
        metrics
    } else {
        vec![
            (
                "lifts_per_s",
                ratio(latencies_ms.len() as f64, report.pass_seconds.iter().sum()),
                "1/s",
            ),
            ("lift_p50_ms", quantile(&latencies_ms, 0.5), "ms"),
            ("lift_p90_ms", quantile(&latencies_ms, 0.9), "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    };
    Some(report)
}

/// The deterministic counters of cycle 0's first `COUNTED_PREFIX`
/// requests per connection: what each cold lift did, and how many
/// requests the cache answered.
fn counters(pool: &[PoolEntry], cycle: &Cycle) -> Json {
    let mut per_lift = std::collections::BTreeMap::new();
    let (mut requests, mut hits, mut solved, mut attempts, mut pops) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for sample in cycle
        .samples
        .iter()
        .flat_map(|s| s.iter().take(COUNTED_PREFIX))
    {
        requests += 1;
        if sample.cached {
            hits += 1;
        } else if let Ok((_, a, p)) = &sample.result {
            solved += 1;
            attempts += a;
            pops += p;
            per_lift.insert(
                pool[sample.entry].key(),
                Json::obj([("attempts", Json::u64(*a)), ("pops", Json::u64(*p))]),
            );
        }
    }
    Json::obj([
        ("requests", Json::u64(requests)),
        ("hits", Json::u64(hits)),
        ("solved_cold", Json::u64(solved)),
        ("attempts", Json::u64(attempts)),
        ("pops", Json::u64(pops)),
        ("per_lift", Json::Obj(per_lift)),
    ])
}
