//! The multi-client lift server: a bounded job queue drained by a
//! persistent worker pool, streaming incremental events per request.
//!
//! ```text
//!  clients ──submit──▶ bounded queue ──pop──▶ workers
//!     ▲                                          │ Stagg::lift_with
//!     │                                          │   hooks: CancelFlag,
//!     └───────────── events (sink) ◀─────────────┘   SearchProgress, observer
//!                       ▲
//!            monitor ───┘  (progress ticks, timeout enforcement)
//! ```
//!
//! A request-level [`ResultCache`] sits in front of the pipeline and
//! answers repeated identical requests without running a search at
//! all. Cancellation (client `cancel`, request timeout, server
//! shutdown) rides the search engine's [`CancelFlag`] machinery end to
//! end.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gtl::{FailureReason, LiftHooks, LiftObserver, LiftQuery, OracleSpec, Stagg, StaggConfig};
use gtl_benchsuite::by_name;
use gtl_cfront::parse_c;
use gtl_oracle::OracleProvider;
use gtl_search::{CancelFlag, SearchHooks, SearchProgress};
use gtl_store::{LiftRecord, LiftStore};
use gtl_taco::{parse_program, TacoProgram};
use gtl_trace::{
    new_trace_id, LatencyHistogram, Phase, PhaseCollector, SpanJournal, SpanRecord,
};
use gtl_validate::{LiftTask, TaskParam, TaskParamKind};

use crate::cache::{request_key, CachedOutcome, ResultCache};
use crate::protocol::{
    ErrorCode, Event, KernelSpec, LiftRequest, OracleStat, Request, ServerStats, WireError,
    WireParamKind,
};

/// Where a request's events go. Called from worker and monitor threads;
/// implementations must be quick and must tolerate disconnected peers
/// (drop the event, don't panic).
pub type EventSink = Arc<dyn Fn(&Event) + Send + Sync>;

/// Server construction knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Lift worker threads (minimum 1).
    pub workers: usize,
    /// Bounded job-queue capacity; submissions beyond it are rejected
    /// with `queue_full` (minimum 1).
    pub queue_capacity: usize,
    /// The base pipeline configuration; per-request overrides apply on
    /// top of it.
    pub base: StaggConfig,
    /// Cadence of `search_progress` events and timeout checks.
    pub progress_interval: Duration,
    /// Default per-request timeout (from lift start); `None` means no
    /// timeout unless the request asks for one.
    pub default_timeout: Option<Duration>,
    /// Result-cache entry bound.
    pub result_cache_capacity: usize,
    /// Which oracle provider *kinds* requests may name in their
    /// `oracle` field (`synthetic`, `scripted`, `replay`, `record`).
    /// The default admits only `synthetic` — replay/record touch
    /// server-side files, so an operator opts in explicitly. The
    /// server's own base spec is always allowed (requests without an
    /// `oracle` field never hit the allowlist).
    pub oracle_allowlist: Vec<String>,
    /// The persistent lift store, when the server should survive
    /// restarts: the result cache is prefilled from it at startup and
    /// every *solved* lift is appended to it (failures are cached
    /// in-memory only — a wall-clock budget failure must not become
    /// permanent across restarts). This is the `lift_server --store`
    /// path; `None` keeps results in-memory only.
    pub store: Option<Arc<LiftStore>>,
    /// Per-client fairness: the maximum lifts one client may have
    /// queued or running at once. Submissions beyond it are rejected
    /// with `rate_limited`. `0` means unlimited.
    pub max_inflight_per_client: usize,
    /// Peer replica addresses (`host:port`). Every locally *solved*
    /// lift is pushed to each peer as a `share_lift` request,
    /// best-effort and in the background, so any replica answers a
    /// repeat of the kernel as a warm cache hit. Failures are logged
    /// and never affect the solving request's own stream.
    pub peers: Vec<String>,
    /// Whether this server accepts `share_lift` pushes. Off by default:
    /// a shared record enters the result cache (and the store) without
    /// a local search, so an operator opts in explicitly
    /// (`lift_server --accept-shares`).
    pub accept_shared_lifts: bool,
    /// Slow-request log threshold: a lift whose pipeline run takes at
    /// least this long is logged to stderr with its trace ID and
    /// per-phase breakdown (`lift_server --slow-lift-ms`). `None`
    /// disables the log.
    pub slow_lift_threshold: Option<Duration>,
    /// Bound on the span journal behind the `trace` request (total
    /// retained spans across all traces; the oldest are evicted).
    pub journal_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_capacity: 64,
            base: StaggConfig::top_down(),
            progress_interval: Duration::from_millis(100),
            default_timeout: None,
            result_cache_capacity: 1024,
            oracle_allowlist: vec!["synthetic".to_string()],
            store: None,
            max_inflight_per_client: 0,
            peers: Vec::new(),
            accept_shared_lifts: false,
            slow_lift_threshold: None,
            journal_capacity: 4096,
        }
    }
}

/// Why a job was terminated from outside the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TerminalCause {
    Cancelled,
    Timeout,
    Shutdown,
}

impl TerminalCause {
    fn reason(self) -> &'static str {
        match self {
            TerminalCause::Cancelled => "cancelled",
            TerminalCause::Timeout => "timeout",
            TerminalCause::Shutdown => "shutting_down",
        }
    }
}

const PHASE_QUEUED: u8 = 0;
const PHASE_RUNNING: u8 = 1;

/// Server-wide observability state shared by every job: the latency
/// histograms and per-phase totals that surface in `stats` and the
/// Prometheus `metrics` exposition.
#[derive(Default)]
struct ServingMetrics {
    /// Admission → terminal-event latency of every closed stream.
    service_time: Mutex<LatencyHistogram>,
    /// Admission → worker-pickup latency of every started job.
    queue_wait: Mutex<LatencyHistogram>,
    /// Per-phase pipeline totals summed over every lift served.
    phases: PhaseCollector,
}

/// Shared, externally visible state of one admitted job.
struct JobState {
    id: String,
    /// The request's trace ID: client-supplied or minted at admission.
    /// Stamped onto every event through the emit funnels below.
    trace_id: String,
    /// When the job was admitted (service-time / queue-wait baseline).
    admitted: Instant,
    /// The owning client (half of the active-registry key).
    client: u64,
    sink: EventSink,
    cancel: Arc<CancelFlag>,
    progress: Arc<SearchProgress>,
    cause: Mutex<Option<TerminalCause>>,
    phase: AtomicU8,
    /// Set when the worker starts the lift (progress/timeout baseline).
    started: Mutex<Option<Instant>>,
    deadline: Mutex<Option<Instant>>,
    /// `true` once the terminal event has been emitted. Doubles as the
    /// per-job emission lock that keeps the monitor's `search_progress`
    /// from interleaving into (or trailing) the terminal sequence.
    closed: Mutex<bool>,
    /// The server-wide count of admitted-but-not-yet-closed streams;
    /// decremented exactly once, after this job's terminal emission, so
    /// `drain` can wait for events to have actually reached sinks.
    outstanding: Arc<AtomicU64>,
    /// Server-wide terminal-event counters, bumped inside the one-close
    /// gate so they count events actually delivered (a lost race to
    /// close never counts).
    terminals: Arc<TerminalCounters>,
    /// Server-wide histograms; service time is recorded inside the
    /// one-close gate so every stream is counted exactly once.
    metrics: Arc<ServingMetrics>,
}

/// Counts of terminal (and share/error) events actually emitted on the
/// wire — the ground truth loadgen's exactly-one-terminal invariant
/// checks against. `done`/`failed` move strictly inside
/// [`JobState::emit_terminal`]'s single-close gate, so a finish path
/// that loses the close race is never counted.
#[derive(Debug, Default)]
struct TerminalCounters {
    done: AtomicU64,
    failed: AtomicU64,
    error: AtomicU64,
    shared: AtomicU64,
}

impl JobState {
    /// Records the external cause (first one wins) and raises the
    /// cancel flag. Returns the cause now in effect.
    fn terminate(&self, cause: TerminalCause) -> TerminalCause {
        let mut slot = self.cause.lock().expect("cause poisoned");
        let effective = *slot.get_or_insert(cause);
        drop(slot);
        self.cancel.cancel();
        effective
    }

    fn cause(&self) -> Option<TerminalCause> {
        *self.cause.lock().expect("cause poisoned")
    }

    /// Emits a non-terminal event unless the stream is already closed,
    /// stamping the job's trace ID. Every per-request event funnels
    /// through here or [`JobState::emit_terminal`], so no event of an
    /// admitted lift leaves the server unattributed.
    fn emit(&self, mut event: Event) {
        event.set_trace_id(&self.trace_id);
        let closed = self.closed.lock().expect("stream poisoned");
        if !*closed {
            (self.sink)(&event);
        }
    }

    /// Closes the stream with `events` (the last must be terminal);
    /// exactly one close wins, later attempts are dropped. The trace ID
    /// is stamped on every event, and the stream's service time is
    /// recorded inside the gate — exactly once per admitted job. The
    /// server-wide outstanding count drops only after the events have
    /// been handed to the sink.
    fn emit_terminal(&self, events: Vec<Event>) {
        let mut closed = self.closed.lock().expect("stream poisoned");
        if *closed {
            return;
        }
        *closed = true;
        let service_us = self
            .admitted
            .elapsed()
            .as_micros()
            .min(u64::MAX as u128) as u64;
        self.metrics
            .service_time
            .lock()
            .expect("service histogram poisoned")
            .record(service_us);
        for mut event in events {
            event.set_trace_id(&self.trace_id);
            (self.sink)(&event);
            match event {
                Event::Done { .. } => {
                    self.terminals.done.fetch_add(1, Ordering::Relaxed);
                }
                Event::Failed { .. } => {
                    self.terminals.failed.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
        }
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One queued job: the resolved query + configuration, ready to lift.
struct Job {
    state: Arc<JobState>,
    query: LiftQuery,
    config: StaggConfig,
    timeout: Option<Duration>,
    cache_key: u64,
}

/// The active-job registry: every admitted, unfinished job plus a
/// per-client inflight count maintained incrementally, so the fairness
/// check at admission is O(1) instead of a scan over every active job.
/// The counter moves strictly under the same lock as the map, so the
/// two can never disagree; every finish path (worker completion,
/// cancel, timeout, disconnect, shutdown drain) funnels through
/// [`Active::remove`] via `Inner::release`.
#[derive(Default)]
struct Active {
    jobs: HashMap<(u64, String), Arc<JobState>>,
    inflight: HashMap<u64, usize>,
}

impl Active {
    fn insert(&mut self, key: (u64, String), state: Arc<JobState>) {
        *self.inflight.entry(key.0).or_default() += 1;
        self.jobs.insert(key, state);
    }

    fn remove(&mut self, key: &(u64, String)) -> Option<Arc<JobState>> {
        let state = self.jobs.remove(key)?;
        match self.inflight.get_mut(&key.0) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                // Idle clients leave no residue: a serving process sees
                // a fresh client id per connection, and an entry per
                // ever-seen connection would grow without bound.
                self.inflight.remove(&key.0);
            }
        }
        Some(state)
    }

    fn inflight(&self, client: u64) -> usize {
        self.inflight.get(&client).copied().unwrap_or(0)
    }
}

#[derive(Default)]
struct Counters {
    received: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
    /// Static-analysis tier totals, summed over every lift driven by
    /// this process (cache hits excluded — no search ran).
    pruned_infeasible: AtomicU64,
    pruned_equivalent: AtomicU64,
}

struct Inner {
    config: ServerConfig,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    /// Streams admitted but not yet closed with a terminal event.
    outstanding: Arc<AtomicU64>,
    /// Every admitted, unfinished job, keyed by (client, request id),
    /// with per-client inflight counts for O(1) fairness checks.
    active: Mutex<Active>,
    results: ResultCache,
    counters: Counters,
    /// Lifts actually driven per oracle spec (cache hits excluded).
    oracle_counts: Mutex<BTreeMap<String, u64>>,
    /// One provider instance per distinct spec, shared by every worker
    /// (providers are `Send + Sync` by design). Sharing is load-bearing
    /// for `record:` specs: all workers must feed one `FixtureStore`,
    /// or concurrent recordings to the same path would clobber each
    /// other's labels.
    providers: Mutex<HashMap<OracleSpec, Arc<dyn OracleProvider>>>,
    /// Provider instances built since start (the cache misses once per
    /// distinct spec, never once per request).
    providers_built: AtomicU64,
    shutdown: AtomicBool,
    next_client: AtomicU64,
    /// High-water mark of the queue length, maxed under the queue lock
    /// at every admission — monotone, never lowered by drains.
    peak_queued: AtomicU64,
    /// One busy flag per worker (`1` while a job runs on it), indexed
    /// by worker number — the in-flight-per-worker gauge.
    worker_busy: Vec<AtomicU64>,
    /// Terminal/share/error event counts actually emitted (shared with
    /// every [`JobState`]).
    terminals: Arc<TerminalCounters>,
    /// Histograms + per-phase totals (shared with every [`JobState`]).
    metrics: Arc<ServingMetrics>,
    /// Bounded ring buffer of recent spans behind the `trace` request.
    journal: SpanJournal,
}

impl Inner {
    fn stats(&self) -> ServerStats {
        let queued = self.queue.lock().expect("queue poisoned").len() as u64;
        let total_active = self.active.lock().expect("active poisoned").jobs.len() as u64;
        let oracles = self
            .oracle_counts
            .lock()
            .expect("oracle counts poisoned")
            .iter()
            .map(|(spec, lifts)| OracleStat {
                spec: spec.clone(),
                lifts: *lifts,
            })
            .collect();
        let store = self
            .config
            .store
            .as_ref()
            .map(|s| s.counters())
            .unwrap_or_default();
        ServerStats {
            received: self.counters.received.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            cache_hits: self.results.hits(),
            cache_misses: self.results.misses(),
            queued,
            active: total_active.saturating_sub(queued),
            workers: self.config.workers as u64,
            providers_built: self.providers_built.load(Ordering::Relaxed),
            store_loaded: store.loaded,
            store_appended: store.appended,
            store_compactions: store.compactions,
            oracles,
            peak_queued: self.peak_queued.load(Ordering::Relaxed),
            worker_inflight: self
                .worker_busy
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            done_events: self.terminals.done.load(Ordering::Relaxed),
            failed_events: self.terminals.failed.load(Ordering::Relaxed),
            error_events: self.terminals.error.load(Ordering::Relaxed),
            shared_events: self.terminals.shared.load(Ordering::Relaxed),
            // Plain servers have no replica view; the router overrides.
            replicas: Vec::new(),
            pruned_infeasible: self.counters.pruned_infeasible.load(Ordering::Relaxed),
            pruned_equivalent: self.counters.pruned_equivalent.load(Ordering::Relaxed),
            service_time: self
                .metrics
                .service_time
                .lock()
                .expect("service histogram poisoned")
                .clone(),
            queue_wait: self
                .metrics
                .queue_wait
                .lock()
                .expect("queue-wait histogram poisoned")
                .clone(),
            phase_times: self.metrics.phases.snapshot(),
        }
    }

    /// Caches a deterministic terminal outcome and, when a store is
    /// configured and the lift *solved*, persists it so a restarted
    /// server answers the same request without running a search.
    /// Failures stay in-memory only: a budget can be exhausted by wall
    /// clock, so persisting one would make a transient failure
    /// permanent across restarts (and a restart is exactly when a
    /// faster box or a raised budget deserves a fresh try — the same
    /// rule the warm-started batch runner applies). Persistence is
    /// best-effort: the in-memory answer is already correct, and the
    /// next identical outcome supersedes cleanly.
    fn remember(
        &self,
        key: u64,
        label: &str,
        outcome: CachedOutcome,
        elapsed_ms: u64,
        trace: (&str, &str), // (trace_id, request_id) for the append span
    ) {
        self.results.insert(key, outcome.clone());
        if outcome.solution.is_none() {
            return;
        }
        let record = outcome.to_record(key, label, elapsed_ms as f64 / 1000.0);
        if let Some(store) = &self.config.store {
            let append_started = Instant::now();
            if let Err(e) = store.append(record.clone()) {
                eprintln!("lift_server: store append failed: {e}");
            }
            let append_us = append_started
                .elapsed()
                .as_micros()
                .min(u64::MAX as u128) as u64;
            self.metrics.phases.add(Phase::StoreAppend, append_us);
            self.journal.record(SpanRecord {
                trace_id: trace.0.to_string(),
                request_id: trace.1.to_string(),
                name: Phase::StoreAppend.name().to_string(),
                start_ms: self.journal.now_ms(),
                dur_us: append_us,
            });
        }
        self.push_to_peers(&record);
    }

    /// Pushes a locally solved lift to every configured peer replica,
    /// best-effort and off the worker thread: a slow or dead peer must
    /// not delay the solving request's own terminal events. Only
    /// *locally* solved lifts go out — records that arrived via
    /// `share_lift` are stored without re-pushing (see
    /// [`ServerHandle::share`]), so a fully-meshed replica set cannot
    /// ring-forward a record forever.
    fn push_to_peers(&self, record: &LiftRecord) {
        if self.config.peers.is_empty() {
            return;
        }
        let peers = self.config.peers.clone();
        let record = record.clone();
        let spawned = std::thread::Builder::new()
            .name("gtl-serve-share".into())
            .spawn(move || {
                for peer in peers {
                    if let Err(e) = push_share(&peer, &record) {
                        eprintln!(
                            "lift_server: share of {:016x} to {peer} failed: {e}",
                            record.key
                        );
                    }
                }
            });
        if let Err(e) = spawned {
            eprintln!("lift_server: could not spawn share thread: {e}");
        }
    }

    /// Removes a finished job from the active registry, releasing its
    /// fairness slot.
    fn release(&self, client: u64, id: &str) {
        self.active
            .lock()
            .expect("active poisoned")
            .remove(&(client, id.to_string()));
    }
}

/// Delivers one `share_lift` to a peer and waits for its one-line ack
/// (so a crash-looping peer surfaces as an error here, not silence).
fn push_share(peer: &str, record: &LiftRecord) -> std::io::Result<()> {
    use std::io::{BufRead, BufReader, Write};

    let timeout = Duration::from_secs(10);
    let addr = peer
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("`{peer}` resolves to no address"),
            )
        })?;
    let mut stream = std::net::TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let request = Request::ShareLift {
        id: format!("share-{:016x}", record.key),
        record: record.clone(),
    };
    stream.write_all(format!("{}\n", request.to_line()).as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut ack = String::new();
    reader.read_line(&mut ack)?;
    match Event::parse_line(&ack) {
        Ok(Event::Shared { .. }) => Ok(()),
        Ok(other) => Err(std::io::Error::other(format!(
            "peer rejected share: {}",
            other.to_line()
        ))),
        Err(e) => Err(std::io::Error::other(format!("bad share ack: {e}"))),
    }
}

/// Builds the pipeline query for a request, or a protocol error. Also
/// used by the router, which resolves queries locally to compute the
/// consistent-hash routing key without contacting a replica.
pub(crate) fn resolve_query(request: &LiftRequest) -> Result<LiftQuery, WireError> {
    match &request.kernel {
        KernelSpec::Benchmark { name } => {
            let b = by_name(name).ok_or_else(|| {
                WireError::new(
                    ErrorCode::UnknownBenchmark,
                    format!("no suite benchmark named `{name}`"),
                )
                .with_id(request.id.clone())
            })?;
            Ok(LiftQuery {
                label: b.name.to_string(),
                source: b.source.to_string(),
                task: b.lift_task(),
                ground_truth: Some(b.parse_ground_truth()),
            })
        }
        KernelSpec::Source {
            label,
            source,
            params,
            ground_truth,
        } => {
            let bad_source = |m: String| {
                WireError::new(ErrorCode::BadSource, m).with_id(request.id.clone())
            };
            let prog = parse_c(source).map_err(|e| bad_source(format!("C kernel: {e}")))?;
            let func = prog.kernel().clone();
            if func.params.len() != params.len() {
                return Err(bad_source(format!(
                    "kernel has {} parameters but {} param specs were given",
                    func.params.len(),
                    params.len()
                )));
            }
            let ground_truth = match ground_truth {
                // Optional: replay/scripted lifts work without a hint;
                // the synthetic oracle simply abstains.
                None => None,
                Some(gt) => Some(
                    parse_program(gt).map_err(|e| bad_source(format!("ground truth: {e}")))?,
                ),
            };
            let mut output = None;
            let task_params: Vec<TaskParam> = params
                .iter()
                .zip(&func.params)
                .enumerate()
                .map(|(i, (spec, p))| TaskParam {
                    name: p.name.clone(),
                    kind: match &spec.kind {
                        WireParamKind::Size { symbol } => {
                            TaskParamKind::Size(symbol.clone())
                        }
                        WireParamKind::ScalarIn { nonzero } => {
                            TaskParamKind::ScalarIn { nonzero: *nonzero }
                        }
                        WireParamKind::ArrayIn { dims, nonzero } => TaskParamKind::ArrayIn {
                            dims: dims.clone(),
                            nonzero: *nonzero,
                        },
                        WireParamKind::ArrayOut { dims } => {
                            output = Some(i);
                            TaskParamKind::ArrayOut { dims: dims.clone() }
                        }
                    },
                })
                .collect();
            let output = output
                .ok_or_else(|| bad_source("no `array_out` parameter".to_string()))?;
            let constants = func.int_constants();
            Ok(LiftQuery {
                label: label.clone(),
                source: source.clone(),
                task: LiftTask {
                    func,
                    params: task_params,
                    output,
                    constants,
                    ref_program: Default::default(),
                },
                ground_truth,
            })
        }
    }
}

/// Streams `candidate_found` events from inside the pipeline.
struct SinkObserver<'a> {
    id: &'a str,
    trace_id: &'a str,
    sink: &'a EventSink,
}

impl LiftObserver for SinkObserver<'_> {
    fn validated(&self, concrete: &TacoProgram) {
        (self.sink)(&Event::CandidateFound {
            id: self.id.to_string(),
            candidate: concrete.to_string(),
            trace_id: Some(self.trace_id.to_string()),
        });
    }
}

/// The wire reason for a pipeline failure.
fn wire_reason(failure: &FailureReason) -> (String, Option<String>) {
    match failure {
        FailureReason::NoUsableCandidates => ("no_usable_candidates".into(), None),
        FailureReason::SearchExhausted => ("search_exhausted".into(), None),
        FailureReason::BudgetExceeded => ("budget_exceeded".into(), None),
        FailureReason::BadQuery(m) => ("bad_query".into(), Some(m.clone())),
        FailureReason::Cancelled => ("cancelled".into(), None),
    }
}

fn worker_loop(inner: &Inner, worker: usize) {
    // Oracle providers are hoisted out of the workers — one instance
    // per spec per *server* (see `Inner::providers`) — so workers share
    // recording stores and replay fixtures instead of rebuilding them
    // per request.
    loop {
        let job = {
            let mut queue = inner.queue.lock().expect("queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = inner
                    .queue_cv
                    .wait(queue)
                    .expect("queue poisoned");
            }
        };
        inner.worker_busy[worker].store(1, Ordering::Release);
        process(inner, job);
        inner.worker_busy[worker].store(0, Ordering::Release);
    }
}

/// Resolves a job's provider from the server-wide cache, building (and
/// counting) it on first sight of the spec. The lock is held across
/// construction so two workers racing on a new `record:` spec cannot
/// both open (and truncate-merge) the same fixture path.
fn resolve_provider(
    inner: &Inner,
    spec: &OracleSpec,
) -> Result<Arc<dyn OracleProvider>, String> {
    let mut providers = inner.providers.lock().expect("providers poisoned");
    if let Some(provider) = providers.get(spec) {
        return Ok(Arc::clone(provider));
    }
    let provider = spec
        .provider()
        .map_err(|e| format!("oracle `{}`: {e}", spec.cli_name()))?;
    inner.providers_built.fetch_add(1, Ordering::Relaxed);
    providers.insert(spec.clone(), Arc::clone(&provider));
    Ok(provider)
}

fn process(inner: &Inner, job: Job) {
    let state = &job.state;
    let id = state.id.clone();
    let client = state.client;
    state.phase.store(PHASE_RUNNING, Ordering::Release);

    // Queue wait: admission → this pickup. Recorded whatever happens
    // next (a job cancelled while queued still waited).
    let queue_us = state
        .admitted
        .elapsed()
        .as_micros()
        .min(u64::MAX as u128) as u64;
    inner
        .metrics
        .queue_wait
        .lock()
        .expect("queue-wait histogram poisoned")
        .record(queue_us);
    inner.journal.record(SpanRecord {
        trace_id: state.trace_id.clone(),
        request_id: id.clone(),
        name: "queue_wait".to_string(),
        start_ms: inner.journal.now_ms(),
        dur_us: queue_us,
    });

    // Cancelled (or shut down) while still queued?
    if let Some(cause) = state.cause() {
        inner.release(client, &id);
        finish_failed(inner, state, cause.reason().to_string(), None, (0, 0, 0), false);
        return;
    }

    // Result cache: identical request already answered? (Bookkeeping
    // strictly precedes the terminal emission throughout: a client that
    // reacts to the terminal event must observe the slot released and
    // the counters settled.)
    if let Some(cached) = inner.results.lookup(job.cache_key) {
        inner.release(client, &id);
        match cached.solution {
            Some(solution) => {
                inner.counters.completed.fetch_add(1, Ordering::Relaxed);
                state.emit_terminal(vec![
                    Event::Verified {
                        id: id.clone(),
                        solution: solution.clone(),
                        trace_id: None,
                    },
                    Event::Done {
                        id: id.clone(),
                        solution,
                        attempts: cached.attempts,
                        nodes: cached.nodes,
                        elapsed_ms: 0,
                        cached: true,
                        trace_id: None,
                    },
                ]);
            }
            None => {
                let reason = cached
                    .reason
                    .unwrap_or_else(|| "search_exhausted".to_string());
                inner.counters.failed.fetch_add(1, Ordering::Relaxed);
                state.emit_terminal(vec![Event::Failed {
                    id: id.clone(),
                    reason,
                    detail: cached.detail,
                    attempts: cached.attempts,
                    nodes: cached.nodes,
                    elapsed_ms: 0,
                    cached: true,
                    trace_id: None,
                }]);
            }
        }
        return;
    }

    // Resolve the oracle provider from the shared cache (hoisted per
    // spec, not per request). A spec whose fixture went away between
    // admission and execution fails the job, not the worker.
    let provider = match resolve_provider(inner, &job.config.oracle) {
        Ok(provider) => provider,
        Err(detail) => {
            inner.release(client, &id);
            finish_failed(
                inner,
                state,
                "bad_query".to_string(),
                Some(detail),
                (0, 0, 0),
                false,
            );
            return;
        }
    };
    *inner
        .oracle_counts
        .lock()
        .expect("oracle counts poisoned")
        .entry(job.config.oracle.cli_name())
        .or_default() += 1;

    // Arm the lift: progress baseline + timeout deadline.
    let started = Instant::now();
    *state.started.lock().expect("started poisoned") = Some(started);
    if let Some(timeout) = job.timeout {
        *state.deadline.lock().expect("deadline poisoned") = Some(started + timeout);
    }

    let observer = SinkObserver {
        id: &id,
        trace_id: &state.trace_id,
        sink: &state.sink,
    };
    let hooks = LiftHooks {
        observer: Some(&observer),
        search: SearchHooks {
            cancel: Some(Arc::clone(&state.cancel)),
            progress: Some(Arc::clone(&state.progress)),
        },
    };
    let report = Stagg::new(provider, job.config.clone()).lift_with(&job.query, &hooks);
    let elapsed_ms = started.elapsed().as_millis() as u64;

    // Fold the lift's per-phase breakdown into the server totals and
    // journal one span per non-empty phase (plus the whole-lift span),
    // so a `trace` request replays where this request's time went.
    inner.metrics.phases.merge_times(&report.phase_times);
    let lift_end_ms = inner.journal.now_ms();
    for (phase, us) in report.phase_times.iter() {
        if us > 0 {
            inner.journal.record(SpanRecord {
                trace_id: state.trace_id.clone(),
                request_id: id.clone(),
                name: phase.name().to_string(),
                start_ms: lift_end_ms,
                dur_us: us,
            });
        }
    }
    inner.journal.record(SpanRecord {
        trace_id: state.trace_id.clone(),
        request_id: id.clone(),
        name: "lift".to_string(),
        start_ms: lift_end_ms,
        dur_us: started.elapsed().as_micros().min(u64::MAX as u128) as u64,
    });
    if let Some(threshold) = inner.config.slow_lift_threshold {
        if started.elapsed() >= threshold {
            eprintln!(
                "lift_server: slow lift `{}` (trace {}): {}ms, phases {}",
                job.query.label,
                state.trace_id,
                elapsed_ms,
                report
                    .phase_times
                    .iter()
                    .filter(|(_, us)| *us > 0)
                    .map(|(p, us)| format!("{}={}us", p.name(), us))
                    .collect::<Vec<_>>()
                    .join(" "),
            );
        }
    }

    // Static-analysis totals accumulate whatever the outcome — pruning
    // work done on a failed lift is still work saved.
    inner
        .counters
        .pruned_infeasible
        .fetch_add(report.pruned_infeasible, Ordering::Relaxed);
    inner
        .counters
        .pruned_equivalent
        .fetch_add(report.pruned_equivalent, Ordering::Relaxed);

    // An external cause (cancel / timeout / shutdown) overrides the
    // pipeline's own classification.
    if let Some(cause) = state.cause() {
        inner.release(client, &id);
        finish_failed(
            inner,
            state,
            cause.reason().to_string(),
            None,
            (report.attempts, report.nodes_expanded, elapsed_ms),
            false,
        );
        return;
    }

    match report.solution {
        Some(solution) => {
            let solution = solution.to_string();
            // Store before announcing: a client that reacts to `done` by
            // resubmitting the same kernel must find the entry in place
            // (and, with `--store`, already on disk).
            inner.remember(
                job.cache_key,
                &job.query.label,
                CachedOutcome {
                    solution: Some(solution.clone()),
                    reason: None,
                    detail: None,
                    attempts: report.attempts,
                    nodes: report.nodes_expanded,
                },
                elapsed_ms,
                (&state.trace_id, &id),
            );
            inner.release(client, &id);
            inner.counters.completed.fetch_add(1, Ordering::Relaxed);
            state.emit_terminal(vec![
                Event::Verified {
                    id: id.clone(),
                    solution: solution.clone(),
                    trace_id: None,
                },
                Event::Done {
                    id: id.clone(),
                    solution,
                    attempts: report.attempts,
                    nodes: report.nodes_expanded,
                    elapsed_ms,
                    cached: false,
                    trace_id: None,
                },
            ]);
        }
        None => {
            let failure = report
                .failure
                .unwrap_or(FailureReason::SearchExhausted);
            let (reason, detail) = wire_reason(&failure);
            // `Cancelled` without a recorded cause can only be a race
            // where the flag rose as the search finished; report it as a
            // plain cancel and do not cache.
            if !matches!(failure, FailureReason::Cancelled) {
                inner.remember(
                    job.cache_key,
                    &job.query.label,
                    CachedOutcome {
                        solution: None,
                        reason: Some(reason.clone()),
                        detail: detail.clone(),
                        attempts: report.attempts,
                        nodes: report.nodes_expanded,
                    },
                    elapsed_ms,
                    (&state.trace_id, &id),
                );
            }
            inner.release(client, &id);
            finish_failed(
                inner,
                state,
                reason,
                detail,
                (report.attempts, report.nodes_expanded, elapsed_ms),
                false,
            );
        }
    }
}

fn finish_failed(
    inner: &Inner,
    state: &JobState,
    reason: String,
    detail: Option<String>,
    stats: (u64, u64, u64), // (attempts, nodes, elapsed_ms)
    cached: bool,
) {
    let counter = match reason.as_str() {
        "cancelled" | "timeout" | "shutting_down" => &inner.counters.cancelled,
        _ => &inner.counters.failed,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    state.emit_terminal(vec![Event::Failed {
        id: state.id.clone(),
        reason,
        detail,
        attempts: stats.0,
        nodes: stats.1,
        elapsed_ms: stats.2,
        cached,
        trace_id: None,
    }]);
}

/// The monitor thread: every `progress_interval`, stream
/// `search_progress` for running jobs and enforce deadlines.
fn monitor_loop(inner: &Inner) {
    while !inner.shutdown.load(Ordering::Acquire) {
        std::thread::sleep(inner.config.progress_interval);
        let running: Vec<Arc<JobState>> = {
            let active = inner.active.lock().expect("active poisoned");
            active
                .jobs
                .values()
                .filter(|s| s.phase.load(Ordering::Acquire) == PHASE_RUNNING)
                .cloned()
                .collect()
        };
        let now = Instant::now();
        for state in running {
            let started = *state.started.lock().expect("started poisoned");
            let Some(started) = started else { continue };
            if state.cause().is_some() {
                continue; // already terminating; the worker reports
            }
            let deadline = *state.deadline.lock().expect("deadline poisoned");
            if deadline.is_some_and(|d| now >= d) {
                state.terminate(TerminalCause::Timeout);
                continue;
            }
            state.emit(Event::SearchProgress {
                id: state.id.clone(),
                nodes: state.progress.nodes(),
                attempts: state.progress.attempts(),
                elapsed_ms: started.elapsed().as_millis() as u64,
                trace_id: None,
            });
        }
    }
}

/// A handle for submitting work to a running [`LiftServer`]. Each
/// handle represents one client: request ids are scoped to it, so
/// independent clients can reuse ids without colliding.
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
    client: u64,
}

/// What a transport should do after [`ServerHandle::handle_line`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineAction {
    /// Keep reading requests.
    Continue,
    /// The client asked for server shutdown.
    Shutdown,
}

impl ServerHandle {
    /// Admits a lift request. On success the job is queued, a `queued`
    /// event has been emitted to `sink`, and the queue position (jobs in
    /// the queue at admission, this one included) is returned. All
    /// further events of the request arrive through `sink` from server
    /// threads.
    ///
    /// # Errors
    ///
    /// [`WireError`] with code `shutting_down`, `unknown_benchmark`,
    /// `bad_source`, `duplicate_id` or `queue_full`; no events have been
    /// emitted for the request in that case.
    pub fn submit(&self, request: LiftRequest, sink: EventSink) -> Result<usize, WireError> {
        let inner = &self.inner;
        let reject = |e: WireError| {
            inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
            Err(e)
        };
        if inner.shutdown.load(Ordering::Acquire) {
            return reject(
                WireError::new(ErrorCode::ShuttingDown, "server is shutting down")
                    .with_id(request.id.clone()),
            );
        }
        let query = match resolve_query(&request) {
            Ok(q) => q,
            Err(e) => return reject(e),
        };
        let mut config = request.overrides.apply(&inner.config.base);
        if let Some(raw) = &request.oracle {
            // A request-selected oracle must parse and every provider
            // kind it involves must be allowlisted. Provider *instances*
            // are built lazily per worker, not here.
            let Some(spec) = OracleSpec::from_cli_name(raw) else {
                return reject(
                    WireError::new(
                        ErrorCode::OracleRejected,
                        format!("unparseable oracle spec `{raw}`"),
                    )
                    .with_id(request.id.clone()),
                );
            };
            if let Some(kind) = spec
                .kinds()
                .iter()
                .find(|k| !inner.config.oracle_allowlist.iter().any(|a| a == *k))
            {
                return reject(
                    WireError::new(
                        ErrorCode::OracleRejected,
                        format!(
                            "oracle kind `{kind}` is not allowed here (allowed: {})",
                            inner.config.oracle_allowlist.join(", ")
                        ),
                    )
                    .with_id(request.id.clone()),
                );
            }
            config.oracle = spec;
        }
        let timeout = request
            .overrides
            .timeout_ms
            .map(Duration::from_millis)
            .or(inner.config.default_timeout);
        let cache_key = request_key(&query, &config);
        // The trace ID: client-supplied (or router-stamped), else
        // minted here at admission.
        let trace_id = request.trace_id.clone().unwrap_or_else(new_trace_id);
        let state = Arc::new(JobState {
            id: request.id.clone(),
            trace_id,
            admitted: Instant::now(),
            client: self.client,
            sink,
            cancel: Arc::new(CancelFlag::new()),
            progress: Arc::new(SearchProgress::new()),
            cause: Mutex::new(None),
            phase: AtomicU8::new(PHASE_QUEUED),
            started: Mutex::new(None),
            deadline: Mutex::new(None),
            closed: Mutex::new(false),
            outstanding: Arc::clone(&inner.outstanding),
            terminals: Arc::clone(&inner.terminals),
            metrics: Arc::clone(&inner.metrics),
        });

        let key = (self.client, request.id.clone());
        {
            let mut active = inner.active.lock().expect("active poisoned");
            if active.jobs.contains_key(&key) {
                drop(active);
                return reject(
                    WireError::new(
                        ErrorCode::DuplicateId,
                        format!("request `{}` is still in flight", request.id),
                    )
                    .with_id(request.id.clone()),
                );
            }
            // Per-client fairness: one client may not occupy more than
            // its share of the shared queue. Checked under the active
            // lock, so concurrent submissions cannot both slip under
            // the cap; the registry keeps the count, so the check is
            // O(1) however many jobs other clients have in flight.
            let cap = inner.config.max_inflight_per_client;
            if cap > 0 {
                let inflight = active.inflight(self.client);
                if inflight >= cap {
                    drop(active);
                    return reject(
                        WireError::new(
                            ErrorCode::RateLimited,
                            format!(
                                "client already has {inflight} lift(s) in flight \
                                 (limit {cap}); retry after one finishes"
                            ),
                        )
                        .with_id(request.id.clone()),
                    );
                }
            }
            // Queue admission under the active lock, so a concurrent
            // duplicate of the same id cannot slip between the check and
            // the push.
            let mut queue = inner.queue.lock().expect("queue poisoned");
            if queue.len() >= inner.config.queue_capacity {
                return reject(
                    WireError::new(
                        ErrorCode::QueueFull,
                        format!(
                            "queue is at capacity ({})",
                            inner.config.queue_capacity
                        ),
                    )
                    .with_id(request.id.clone()),
                );
            }
            active.insert(key, Arc::clone(&state));
            queue.push_back(Job {
                state: Arc::clone(&state),
                query,
                config,
                timeout,
                cache_key,
            });
            let position = queue.len();
            // Maxed under the queue lock, so the gauge can never miss a
            // momentary high-water mark between push and sample.
            inner.peak_queued.fetch_max(position as u64, Ordering::Relaxed);
            inner.counters.received.fetch_add(1, Ordering::Relaxed);
            inner.outstanding.fetch_add(1, Ordering::AcqRel);
            // Emit `queued` while still holding the queue lock: a worker
            // cannot pop the job (and race a `done` ahead of it) until
            // the lock drops, so the stream provably opens with `queued`.
            (state.sink)(&Event::Queued {
                id: request.id,
                position,
                trace_id: Some(state.trace_id.clone()),
            });
            drop(queue);
            drop(active);
            inner.queue_cv.notify_one();
            Ok(position)
        }
    }

    /// Cancels a queued or running lift of this client. A queued job is
    /// removed from the queue immediately (releasing its slot) and its
    /// stream closed with `failed`/`cancelled`; a running job is stopped
    /// through the search engine's cancel flag and its worker closes the
    /// stream. Returns `false` when the id is unknown (already finished
    /// or never admitted).
    pub fn cancel(&self, id: &str) -> bool {
        self.cancel_client(self.client, id)
    }

    /// Cancels a lift with this id submitted by *any* client — the
    /// fallback behind wire-level `cancel` requests, since a scripted
    /// `lift_client --cancel` arrives on a fresh connection (a fresh
    /// client namespace). When several clients share the id, an
    /// arbitrary one is cancelled. Returns `false` when no client has
    /// the id in flight.
    pub fn cancel_any_client(&self, id: &str) -> bool {
        let owner = {
            let active = self.inner.active.lock().expect("active poisoned");
            active
                .jobs
                .keys()
                .find(|(_, key_id)| key_id == id)
                .map(|(client, _)| *client)
        };
        match owner {
            Some(client) => self.cancel_client(client, id),
            None => false,
        }
    }

    fn cancel_client(&self, client: u64, id: &str) -> bool {
        let key = (client, id.to_string());
        let state = {
            let active = self.inner.active.lock().expect("active poisoned");
            match active.jobs.get(&key) {
                Some(state) => Arc::clone(state),
                None => return false,
            }
        };
        state.terminate(TerminalCause::Cancelled);
        // Still queued? Pull it out now so the slot frees immediately.
        let removed = {
            let mut queue = self.inner.queue.lock().expect("queue poisoned");
            let before = queue.len();
            queue.retain(|job| !Arc::ptr_eq(&job.state, &state));
            before != queue.len()
        };
        if removed {
            self.inner.release(client, id);
            self.inner
                .counters
                .cancelled
                .fetch_add(1, Ordering::Relaxed);
            state.emit_terminal(vec![Event::Failed {
                id: state.id.clone(),
                reason: "cancelled".into(),
                detail: None,
                attempts: 0,
                nodes: 0,
                elapsed_ms: 0,
                cached: false,
                trace_id: None,
            }]);
        }
        true
    }

    /// Cancels every queued or running lift of this client — the
    /// disconnect path: a transport whose peer went away calls this so
    /// abandoned lifts stop burning workers. Returns how many were
    /// cancelled.
    pub fn cancel_all(&self) -> usize {
        let ids: Vec<String> = {
            let active = self.inner.active.lock().expect("active poisoned");
            active
                .jobs
                .keys()
                .filter(|(client, _)| *client == self.client)
                .map(|(_, id)| id.clone())
                .collect()
        };
        ids.iter().filter(|id| self.cancel(id)).count()
    }

    /// A statistics snapshot.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats()
    }

    /// Accepts a lift record pushed by a peer replica (the receiving
    /// half of replica lift-sharing), returning the terminal event for
    /// the share request's one-event stream.
    ///
    /// The record enters the result cache — and the store, when one is
    /// configured — exactly as if this server had solved it, so a
    /// repeat of the kernel is answered as a warm cache hit with zero
    /// search attempts. The store's identical-append dedup makes
    /// re-pushes idempotent (`stored: false` on the ack), and accepted
    /// records are deliberately *not* re-pushed to this server's own
    /// peers: in a full mesh every replica hears each solve directly
    /// from the solver, and forwarding would circulate records forever.
    pub fn share(&self, id: &str, record: LiftRecord) -> Event {
        let inner = &self.inner;
        let reject = |message: String| {
            inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
            Event::Error {
                id: Some(id.to_string()),
                code: ErrorCode::BadRequest,
                message,
                trace_id: None,
            }
        };
        if !inner.config.accept_shared_lifts {
            return reject(
                "this server does not accept shared lifts \
                 (start it with --accept-shares)"
                    .to_string(),
            );
        }
        if !record.solved() {
            // The write path never persists failures (a wall-clock
            // budget failure must not become permanent); the same rule
            // holds for pushed records.
            return reject("only solved lifts may be shared".to_string());
        }
        if !record.seconds.is_finite() {
            return reject(format!(
                "record seconds must be finite, got {}",
                record.seconds
            ));
        }
        let stored = match &inner.config.store {
            Some(store) => match store.append(record.clone()) {
                Ok(appended) => appended,
                Err(e) => {
                    // The in-memory cache still serves the record; only
                    // durability was lost, as with local solves.
                    eprintln!("lift_server: shared-lift append failed: {e}");
                    false
                }
            },
            None => false,
        };
        inner
            .results
            .insert(record.key, CachedOutcome::from_record(&record));
        Event::Shared {
            id: id.to_string(),
            stored,
        }
    }

    /// Parses and executes one wire line: lifts are submitted, cancels
    /// and stats answered, errors reported — all through `sink`. This is
    /// the single dispatch point shared by the stdio and TCP transports.
    pub fn handle_line(&self, line: &str, sink: &EventSink) -> LineAction {
        let line = line.trim();
        if line.is_empty() {
            return LineAction::Continue;
        }
        let terminals = &self.inner.terminals;
        let emit_error = |event: &Event| {
            terminals.error.fetch_add(1, Ordering::Relaxed);
            sink(event);
        };
        match Request::parse_line(line) {
            Err(e) => emit_error(&e.to_event()),
            Ok(Request::Lift(request)) => {
                if let Err(e) = self.submit(request, Arc::clone(sink)) {
                    emit_error(&e.to_event());
                }
            }
            Ok(Request::Cancel { id }) => {
                // Own ids first; fall back across clients so a cancel
                // arriving on a fresh connection (scripted use) still
                // reaches the lift it names.
                if !self.cancel(&id) && !self.cancel_any_client(&id) {
                    emit_error(&Event::Error {
                        id: Some(id.clone()),
                        code: ErrorCode::UnknownRequest,
                        message: format!("no queued or running lift `{id}`"),
                        trace_id: None,
                    });
                }
            }
            Ok(Request::Stats) => sink(&Event::Stats {
                stats: self.stats(),
            }),
            Ok(Request::Metrics) => sink(&Event::Metrics {
                text: crate::protocol::render_prometheus(&self.stats()),
            }),
            Ok(Request::Trace { trace_id }) => sink(&Event::Trace {
                spans: self.inner.journal.dump(&trace_id),
                trace_id,
            }),
            Ok(Request::ShareLift { id, record }) => {
                let event = self.share(&id, record);
                match &event {
                    Event::Shared { .. } => {
                        terminals.shared.fetch_add(1, Ordering::Relaxed);
                        sink(&event);
                    }
                    _ => emit_error(&event),
                }
            }
            Ok(Request::Shutdown) => return LineAction::Shutdown,
        }
        LineAction::Continue
    }

    /// Submits a request and blocks until its stream terminates,
    /// returning every event in order. Convenience for scripted batch
    /// use and tests; admission errors come back as a one-event stream.
    pub fn lift_blocking(&self, request: LiftRequest) -> Vec<Event> {
        let (tx, rx) = std::sync::mpsc::channel::<Event>();
        let sink: EventSink = Arc::new(move |event: &Event| {
            let _ = tx.send(event.clone());
        });
        if let Err(e) = self.submit(request, sink) {
            return vec![e.to_event()];
        }
        let mut events = Vec::new();
        while let Ok(event) = rx.recv() {
            let terminal = event.is_terminal();
            events.push(event);
            if terminal {
                break;
            }
        }
        events
    }
}

/// The running server: worker pool + monitor thread. Dropping it (or
/// calling [`LiftServer::shutdown`]) shuts down gracefully: admission
/// stops, running lifts are cancelled through their [`CancelFlag`]s,
/// queued jobs drain with `failed`/`shutting_down` events, and every
/// thread is joined.
///
/// ```
/// use gtl_serve::{LiftRequest, LiftServer, ServerConfig};
///
/// let server = LiftServer::start(ServerConfig {
///     workers: 1,
///     ..ServerConfig::default()
/// });
/// let handle = server.handle();
/// let events = handle.lift_blocking(LiftRequest::benchmark("r1", "blas_dot"));
/// assert!(matches!(events.last(), Some(gtl_serve::Event::Done { .. })));
/// server.shutdown();
/// ```
pub struct LiftServer {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl LiftServer {
    /// Starts the worker pool and monitor. With a configured
    /// [`ServerConfig::store`], the result cache is prefilled from the
    /// store's live records, so repeat lifts from before a restart are
    /// answered as cache hits with zero search attempts.
    pub fn start(config: ServerConfig) -> LiftServer {
        let workers = config.workers.max(1);
        // A store-backed cache must hold at least the whole store, or
        // prefilling would evict the very outcomes it just loaded.
        let capacity = match &config.store {
            Some(store) => config.result_cache_capacity.max(store.len()),
            None => config.result_cache_capacity,
        };
        let results = ResultCache::new(capacity);
        if let Some(store) = &config.store {
            // Solved records only: the write side never persists
            // failures, but a merged or hand-edited store may carry
            // them, and serving one forever would make a transient
            // failure permanent — the exact thing the filter in
            // `remember` exists to prevent.
            for record in store.records() {
                if record.solved() {
                    results.insert(record.key, CachedOutcome::from_record(&record));
                }
            }
        }
        let journal = SpanJournal::new(config.journal_capacity.max(1));
        let inner = Arc::new(Inner {
            results,
            config: ServerConfig { workers, ..config },
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            outstanding: Arc::new(AtomicU64::new(0)),
            active: Mutex::new(Active::default()),
            counters: Counters::default(),
            oracle_counts: Mutex::new(BTreeMap::new()),
            providers: Mutex::new(HashMap::new()),
            providers_built: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            next_client: AtomicU64::new(0),
            peak_queued: AtomicU64::new(0),
            worker_busy: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            terminals: Arc::new(TerminalCounters::default()),
            metrics: Arc::new(ServingMetrics::default()),
            journal,
        });
        let mut threads = Vec::with_capacity(workers + 1);
        for worker in 0..workers {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("gtl-serve-worker-{worker}"))
                    .spawn(move || worker_loop(&inner, worker))
                    .expect("spawn worker"),
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("gtl-serve-monitor".into())
                    .spawn(move || monitor_loop(&inner))
                    .expect("spawn monitor"),
            );
        }
        LiftServer { inner, threads }
    }

    /// A fresh client handle (its own request-id namespace).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            inner: Arc::clone(&self.inner),
            client: self.inner.next_client.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Blocks until every admitted job has terminated *and its terminal
    /// event has been handed to its sink*. The batch idiom: submit
    /// everything, `drain`, then [`LiftServer::shutdown`] — used by the
    /// stdio transport on EOF.
    pub fn drain(&self) {
        while self.inner.outstanding.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Graceful shutdown (also runs on drop): stop admission, cancel
    /// everything in flight, drain the queue with `shutting_down`
    /// failures, join all threads.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for LiftServer {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let active = self.inner.active.lock().expect("active poisoned");
            for state in active.jobs.values() {
                state.terminate(TerminalCause::Shutdown);
            }
        }
        self.inner.queue_cv.notify_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}
