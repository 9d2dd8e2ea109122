//! The `gtl_serve` JSON-lines wire protocol: typed requests, events and
//! error codes, with lossless JSON encode/decode on both sides.
//!
//! Every message is one JSON object on one line. Clients send
//! [`Request`]s; the server answers with streams of [`Event`]s, each
//! tagged with the originating request `id`. The full specification —
//! schemas, ordering guarantees, cancellation semantics and examples —
//! lives in `docs/PROTOCOL.md`.

use std::fmt;

use gtl::{GrammarMode, SearchMode, StaggConfig};
use gtl_trace::{LatencyHistogram, Phase, PhaseTimes, SpanRecord};

use crate::json::{parse, Json};

/// Machine-readable error classes of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON.
    BadJson,
    /// The JSON was valid but not a well-formed request.
    BadRequest,
    /// A `lift` named a benchmark the suite does not contain.
    UnknownBenchmark,
    /// A raw-source `lift`'s C kernel or ground truth failed to parse.
    BadSource,
    /// The bounded job queue is full; retry later.
    QueueFull,
    /// A `lift` reused an `id` that is still queued or running.
    DuplicateId,
    /// A `cancel` named an `id` that is neither queued nor running.
    UnknownRequest,
    /// A `lift`'s `oracle` spec does not parse, or names a provider
    /// kind outside the server's allowlist.
    OracleRejected,
    /// The client already has its maximum number of lifts in flight
    /// (`--max-inflight-per-client`); retry after one of them finishes.
    RateLimited,
    /// The server is shutting down and no longer admits work.
    ShuttingDown,
    /// A router exhausted every candidate replica for the request:
    /// none accepted a connection and streamed a terminal event.
    ReplicaUnavailable,
}

impl ErrorCode {
    /// The stable wire name.
    pub fn wire_name(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownBenchmark => "unknown_benchmark",
            ErrorCode::BadSource => "bad_source",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::DuplicateId => "duplicate_id",
            ErrorCode::UnknownRequest => "unknown_request",
            ErrorCode::OracleRejected => "oracle_rejected",
            ErrorCode::RateLimited => "rate_limited",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::ReplicaUnavailable => "replica_unavailable",
        }
    }

    /// Parses a wire name.
    pub fn from_wire_name(name: &str) -> Option<ErrorCode> {
        Some(match name {
            "bad_json" => ErrorCode::BadJson,
            "bad_request" => ErrorCode::BadRequest,
            "unknown_benchmark" => ErrorCode::UnknownBenchmark,
            "bad_source" => ErrorCode::BadSource,
            "queue_full" => ErrorCode::QueueFull,
            "duplicate_id" => ErrorCode::DuplicateId,
            "unknown_request" => ErrorCode::UnknownRequest,
            "oracle_rejected" => ErrorCode::OracleRejected,
            "rate_limited" => ErrorCode::RateLimited,
            "shutting_down" => ErrorCode::ShuttingDown,
            "replica_unavailable" => ErrorCode::ReplicaUnavailable,
            _ => return None,
        })
    }
}

/// A protocol-level failure: error class, human-readable message, and
/// the request id it concerns when one could be extracted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// The offending request's id, when known.
    pub id: Option<String>,
}

impl WireError {
    /// Builds an error without request context.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
            id: None,
        }
    }

    /// Attaches the offending request id.
    pub fn with_id(mut self, id: impl Into<String>) -> WireError {
        self.id = Some(id.into());
        self
    }

    /// The terminal [`Event::Error`] announcing this failure.
    pub fn to_event(&self) -> Event {
        Event::Error {
            id: self.id.clone(),
            code: self.code,
            message: self.message.clone(),
            trace_id: None,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.wire_name(), self.message)
    }
}

impl std::error::Error for WireError {}

/// One kernel parameter of a raw-source lift request (the wire form of
/// `gtl_validate::TaskParamKind`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireParam {
    /// Parameter name, matching the C signature.
    pub name: String,
    /// Logical role.
    pub kind: WireParamKind,
}

/// The logical role of one kernel parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireParamKind {
    /// An `int` scalar bound to a size symbol.
    Size {
        /// The extent symbol this scalar carries.
        symbol: String,
    },
    /// A scalar data input.
    ScalarIn {
        /// Must the generated value be nonzero (divisor)?
        nonzero: bool,
    },
    /// An input array.
    ArrayIn {
        /// Extent symbols, outermost first.
        dims: Vec<String>,
        /// Must every element be nonzero (divisor)?
        nonzero: bool,
    },
    /// The output array.
    ArrayOut {
        /// Extent symbols, outermost first.
        dims: Vec<String>,
    },
}

/// What to lift: a suite benchmark by name, or raw C source with full
/// task metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelSpec {
    /// One of the 77 suite benchmarks.
    Benchmark {
        /// Benchmark name, e.g. `blas_gemv`.
        name: String,
    },
    /// A raw C kernel. The optional `ground_truth` TACO program feeds
    /// the deterministic synthetic oracle standing in for the paper's
    /// LLM — the pipeline itself never reads it (see `gtl_oracle`), and
    /// replay-backed lifts don't need it.
    Source {
        /// Stable label for seeding and reporting.
        label: String,
        /// The legacy C source (one kernel function).
        source: String,
        /// Parameter roles, in signature order.
        params: Vec<WireParam>,
        /// Ground-truth TACO program hint for the synthetic oracle.
        /// Without it the synthetic provider produces no candidates;
        /// replay/scripted providers ignore it entirely.
        ground_truth: Option<String>,
    },
}

/// Per-request configuration overrides; every field is optional and
/// falls back to the server's base [`StaggConfig`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConfigOverrides {
    /// Search algorithm (`td` / `bu`).
    pub mode: Option<SearchMode>,
    /// Grammar variant (`refined`, `equal_probability`, `full_grammar`,
    /// `llm_grammar`).
    pub grammar: Option<GrammarMode>,
    /// Maximum oracle rounds (the failure loop re-queries the oracle
    /// with feedback between rounds; `1` = single-shot).
    pub oracle_rounds: Option<usize>,
    /// Budget: maximum complete templates sent to checkers.
    pub max_attempts: Option<u64>,
    /// Budget: maximum search-queue pops.
    pub max_nodes: Option<u64>,
    /// Budget: search wall-clock limit in milliseconds.
    pub time_limit_ms: Option<u64>,
    /// Request-level timeout in milliseconds, measured from lift start;
    /// on expiry the request fails with reason `timeout`.
    pub timeout_ms: Option<u64>,
}

impl ConfigOverrides {
    /// Whether no override is set.
    pub fn is_empty(&self) -> bool {
        *self == ConfigOverrides::default()
    }

    /// The base configuration with these overrides applied
    /// (`timeout_ms` is enforced by the server, not the search budget).
    pub fn apply(&self, base: &StaggConfig) -> StaggConfig {
        let mut config = base.clone();
        if let Some(mode) = self.mode {
            config.mode = mode;
        }
        if let Some(grammar) = self.grammar {
            config.grammar = grammar;
        }
        if let Some(rounds) = self.oracle_rounds {
            config.oracle_rounds = rounds.max(1);
        }
        if let Some(n) = self.max_attempts {
            config.budget.max_attempts = n;
        }
        if let Some(n) = self.max_nodes {
            config.budget.max_nodes = n;
        }
        if let Some(ms) = self.time_limit_ms {
            config.budget.time_limit = std::time::Duration::from_millis(ms);
        }
        config
    }
}

/// One lift request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiftRequest {
    /// Client-chosen correlation id; every event of this request's
    /// stream echoes it. Must be unique among the client's in-flight
    /// requests.
    pub id: String,
    /// What to lift.
    pub kernel: KernelSpec,
    /// Which oracle provider guides the lift, as an
    /// [`OracleSpec`](gtl::OracleSpec) spelling (`synthetic`,
    /// `synthetic:SEED`, `replay:PATH`, …).
    /// Absent means the server's base configuration. Validated against
    /// the server's allowlist at admission; violations are rejected
    /// with `oracle_rejected`.
    pub oracle: Option<String>,
    /// Per-request configuration overrides.
    pub overrides: ConfigOverrides,
    /// Distributed trace ID for this lift. Absent means the admission
    /// point (server, or router — which stamps it before forwarding so
    /// the ID stays stable across failover) mints one; every event of
    /// the stream then carries it.
    pub trace_id: Option<String>,
}

impl LiftRequest {
    /// A benchmark lift with no overrides.
    pub fn benchmark(id: impl Into<String>, name: impl Into<String>) -> LiftRequest {
        LiftRequest {
            id: id.into(),
            kernel: KernelSpec::Benchmark { name: name.into() },
            oracle: None,
            overrides: ConfigOverrides::default(),
            trace_id: None,
        }
    }

    /// Selects an oracle spec (builder style).
    pub fn with_oracle(mut self, spec: impl Into<String>) -> LiftRequest {
        self.oracle = Some(spec.into());
        self
    }

    /// Supplies a client-chosen trace ID (builder style).
    pub fn with_trace_id(mut self, trace_id: impl Into<String>) -> LiftRequest {
        self.trace_id = Some(trace_id.into());
        self
    }
}

/// A client → server message.
// `Lift` dwarfs the other variants, but requests are parsed one at a
// time and moved straight into a job — never stored in bulk — so the
// indirection a `Box` would buy costs more in API noise than it saves.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a lift.
    Lift(LiftRequest),
    /// Cancel a queued or running lift.
    Cancel {
        /// The id of the lift to cancel.
        id: String,
    },
    /// Ask for a server statistics snapshot.
    Stats,
    /// Offer a completed lift record to a replica (the peer-push half
    /// of replica lift-sharing). Servers accept it only when started
    /// with share acceptance enabled; the append is idempotent (an
    /// identical record is a no-op), so re-pushes are harmless. The
    /// answer is one [`Event::Shared`] or a terminal error.
    ShareLift {
        /// Correlation id, echoed on the ack.
        id: String,
        /// The completed lift, in the store's record encoding.
        record: gtl_store::LiftRecord,
    },
    /// Ask for the server's metrics in Prometheus text exposition
    /// format; the answer is one [`Event::Metrics`]. Routers answer by
    /// scraping every replica, merging the structured stats, and
    /// rendering the merged view.
    Metrics,
    /// Ask for the retained spans of one trace from the server's span
    /// journal; the answer is one [`Event::Trace`]. Routers fan out to
    /// every replica and concatenate the dumps.
    Trace {
        /// The trace ID to dump.
        trace_id: String,
    },
    /// Ask the server to shut down gracefully.
    Shutdown,
}

/// Per-provider lift accounting: how many lifts each oracle spec has
/// driven (one entry per distinct spec, sorted by spec).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleStat {
    /// The oracle spec spelling (`synthetic`, `replay:PATH`, …).
    pub spec: String,
    /// Lifts this provider drove (cache hits excluded — they run no
    /// oracle).
    pub lifts: u64,
}

/// Router-side accounting for one replica: how traffic and failures
/// were distributed. Empty on plain servers — only `lift_router`
/// populates it in the stats it serves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaStat {
    /// The replica address as configured on the router.
    pub addr: String,
    /// Requests this replica served (streams finished, one-shot
    /// exchanges answered).
    pub forwards: u64,
    /// Times this replica failed mid-request or at connect and the
    /// router moved on to the next ring candidate.
    pub failovers: u64,
}

/// A server statistics snapshot (the payload of [`Event::Stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Lift requests admitted to the queue.
    pub received: u64,
    /// Lifts that finished with a `done` event.
    pub completed: u64,
    /// Lifts that finished with a `failed` event.
    pub failed: u64,
    /// Lifts cancelled by clients, timeouts, or shutdown.
    pub cancelled: u64,
    /// Lift requests rejected at admission (full queue, bad request…).
    pub rejected: u64,
    /// Result-cache hits (answered without running a search).
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Jobs waiting in the queue right now.
    pub queued: u64,
    /// Jobs running on workers right now.
    pub active: u64,
    /// Worker threads serving the queue.
    pub workers: u64,
    /// Provider instances built since start: one per distinct oracle
    /// spec, shared by every worker — never one per request.
    pub providers_built: u64,
    /// Outcomes loaded from the persistent store at startup (0 when the
    /// server runs without `--store`).
    pub store_loaded: u64,
    /// Outcomes appended to the persistent store since startup.
    pub store_appended: u64,
    /// Store compactions performed since startup.
    pub store_compactions: u64,
    /// Per-provider lift counts, sorted by spec.
    pub oracles: Vec<OracleStat>,
    /// High-water mark of [`ServerStats::queued`] since startup
    /// (monotone — drains never lower it).
    pub peak_queued: u64,
    /// Per-worker busy flags (`1` = a job is running on that worker),
    /// indexed by worker number. Empty when decoded from a pre-gauge
    /// server.
    pub worker_inflight: Vec<u64>,
    /// Terminal `done` events emitted since startup.
    pub done_events: u64,
    /// Terminal `failed` events emitted since startup.
    pub failed_events: u64,
    /// Terminal `error` events emitted since startup (admission
    /// rejections, malformed requests, refused shares).
    pub error_events: u64,
    /// `shared` acknowledgements emitted since startup (accepted
    /// `share_lift` pushes).
    pub shared_events: u64,
    /// Per-replica forward/failover counts, sorted by address. Empty
    /// everywhere except in router-served stats.
    pub replicas: Vec<ReplicaStat>,
    /// Candidate templates skipped by the feasibility pre-checks,
    /// summed over every lift served.
    pub pruned_infeasible: u64,
    /// Candidate templates skipped as algebraically equivalent to one
    /// already checked, summed over every lift served.
    pub pruned_equivalent: u64,
    /// Service-time distribution in microseconds (admission → terminal
    /// event) of every finished lift. Routers merge replica histograms
    /// element-wise, so the merged view equals a single process seeing
    /// all the traffic.
    pub service_time: LatencyHistogram,
    /// Queue-wait distribution in microseconds (admission → worker
    /// pickup) of every lift a worker started.
    pub queue_wait: LatencyHistogram,
    /// Per-phase pipeline time totals (µs), summed over every lift
    /// served and merged across replicas by routers.
    pub phase_times: PhaseTimes,
}

/// A server → client message. Per request id, a stream is:
/// `queued`, then any number of `search_progress` / `candidate_found`,
/// then optionally `verified`, then exactly one terminal `done`,
/// `failed` or `error`.
// `Stats` embeds `ServerStats` with its inline histogram buckets; events
// are produced one at a time per request, never bulk-queued, so boxing
// the stats payload would complicate every construction site for no
// practical memory win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The lift was admitted to the job queue.
    Queued {
        /// Request id.
        id: String,
        /// Jobs in the queue at admission, this one included.
        position: usize,
        /// The request's trace ID (stamped at admission).
        trace_id: Option<String>,
    },
    /// Periodic search progress (emitted while the lift runs).
    SearchProgress {
        /// Request id.
        id: String,
        /// Search-queue pops so far.
        nodes: u64,
        /// Complete templates sent to validation so far.
        attempts: u64,
        /// Milliseconds since the lift started.
        elapsed_ms: u64,
        /// The request's trace ID.
        trace_id: Option<String>,
    },
    /// A concrete candidate passed every I/O example and entered
    /// bounded verification. May fire several times per lift.
    CandidateFound {
        /// Request id.
        id: String,
        /// The candidate TACO program.
        candidate: String,
        /// The request's trace ID.
        trace_id: Option<String>,
    },
    /// The search produced a verified solution (a `done` follows).
    Verified {
        /// Request id.
        id: String,
        /// The verified concrete TACO program.
        solution: String,
        /// The request's trace ID.
        trace_id: Option<String>,
    },
    /// Terminal: the lift succeeded.
    Done {
        /// Request id.
        id: String,
        /// The verified concrete TACO program.
        solution: String,
        /// Templates sent to validation.
        attempts: u64,
        /// Search-queue pops.
        nodes: u64,
        /// End-to-end milliseconds (0 for cache hits).
        elapsed_ms: u64,
        /// Whether the answer came from the result cache.
        cached: bool,
        /// The request's trace ID.
        trace_id: Option<String>,
    },
    /// Terminal: the lift produced no solution.
    Failed {
        /// Request id.
        id: String,
        /// Machine-readable reason: `no_usable_candidates`,
        /// `search_exhausted`, `budget_exceeded`, `bad_query`,
        /// `cancelled`, `timeout` or `shutting_down`.
        reason: String,
        /// Optional human-readable detail.
        detail: Option<String>,
        /// Templates sent to validation before the failure.
        attempts: u64,
        /// Search-queue pops before the failure.
        nodes: u64,
        /// End-to-end milliseconds (0 for cache hits and jobs that
        /// never started).
        elapsed_ms: u64,
        /// Whether the answer came from the result cache.
        cached: bool,
        /// The request's trace ID.
        trace_id: Option<String>,
    },
    /// A statistics snapshot (answer to a `stats` request).
    Stats {
        /// The snapshot.
        stats: ServerStats,
    },
    /// The Prometheus text-format exposition (answer to a `metrics`
    /// request).
    Metrics {
        /// The rendered exposition text.
        text: String,
    },
    /// A span-journal dump (answer to a `trace` request).
    Trace {
        /// The trace ID that was dumped.
        trace_id: String,
        /// The retained spans of that trace, in recording order.
        spans: Vec<SpanRecord>,
    },
    /// Terminal ack of a `share_lift`: the record was accepted.
    Shared {
        /// The share request's id.
        id: String,
        /// Whether the record was newly stored (`false` when an
        /// identical record was already present — the idempotent case).
        stored: bool,
    },
    /// Terminal: the request itself was rejected.
    Error {
        /// The offending request's id, when extractable.
        id: Option<String>,
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// The request's trace ID, when the rejection happened after
        /// one was assigned (routers stamp it so clients can correlate
        /// failover errors).
        trace_id: Option<String>,
    },
}

impl Event {
    /// The request id this event belongs to (absent for `stats` and
    /// id-less errors).
    pub fn id(&self) -> Option<&str> {
        match self {
            Event::Queued { id, .. }
            | Event::SearchProgress { id, .. }
            | Event::CandidateFound { id, .. }
            | Event::Verified { id, .. }
            | Event::Done { id, .. }
            | Event::Failed { id, .. }
            | Event::Shared { id, .. } => Some(id),
            Event::Error { id, .. } => id.as_deref(),
            Event::Stats { .. } | Event::Metrics { .. } | Event::Trace { .. } => None,
        }
    }

    /// Whether this event closes its request's stream.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Event::Done { .. }
                | Event::Failed { .. }
                | Event::Error { .. }
                | Event::Shared { .. }
        )
    }

    /// The trace ID stamped on this event, when its variant carries
    /// one and the serving layer filled it in.
    pub fn trace_id(&self) -> Option<&str> {
        match self {
            Event::Queued { trace_id, .. }
            | Event::SearchProgress { trace_id, .. }
            | Event::CandidateFound { trace_id, .. }
            | Event::Verified { trace_id, .. }
            | Event::Done { trace_id, .. }
            | Event::Failed { trace_id, .. }
            | Event::Error { trace_id, .. } => trace_id.as_deref(),
            Event::Stats { .. } | Event::Shared { .. } | Event::Metrics { .. } => None,
            Event::Trace { trace_id, .. } => Some(trace_id),
        }
    }

    /// Stamps `trace_id` onto the event when its variant carries one
    /// and none is set yet; events already attributed keep their ID.
    /// The servers' emit funnels call this so no per-request event
    /// leaves a server unattributed.
    pub fn set_trace_id(&mut self, value: &str) {
        match self {
            Event::Queued { trace_id, .. }
            | Event::SearchProgress { trace_id, .. }
            | Event::CandidateFound { trace_id, .. }
            | Event::Verified { trace_id, .. }
            | Event::Done { trace_id, .. }
            | Event::Failed { trace_id, .. }
            | Event::Error { trace_id, .. } => {
                if trace_id.is_none() {
                    *trace_id = Some(value.to_string());
                }
            }
            Event::Stats { .. }
            | Event::Shared { .. }
            | Event::Metrics { .. }
            | Event::Trace { .. } => {}
        }
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn param_to_json(p: &WireParam) -> Json {
    let mut fields = vec![("name", Json::str(&p.name))];
    match &p.kind {
        WireParamKind::Size { symbol } => {
            fields.push(("kind", Json::str("size")));
            fields.push(("symbol", Json::str(symbol)));
        }
        WireParamKind::ScalarIn { nonzero } => {
            fields.push(("kind", Json::str("scalar_in")));
            fields.push(("nonzero", Json::Bool(*nonzero)));
        }
        WireParamKind::ArrayIn { dims, nonzero } => {
            fields.push(("kind", Json::str("array_in")));
            fields.push(("dims", Json::Arr(dims.iter().map(Json::str).collect())));
            fields.push(("nonzero", Json::Bool(*nonzero)));
        }
        WireParamKind::ArrayOut { dims } => {
            fields.push(("kind", Json::str("array_out")));
            fields.push(("dims", Json::Arr(dims.iter().map(Json::str).collect())));
        }
    }
    Json::obj(fields)
}

fn overrides_to_json(o: &ConfigOverrides) -> Json {
    let mut fields = Vec::new();
    if let Some(mode) = o.mode {
        fields.push(("mode", Json::str(mode.cli_name())));
    }
    if let Some(grammar) = o.grammar {
        fields.push(("grammar", Json::str(grammar.cli_name())));
    }
    if let Some(rounds) = o.oracle_rounds {
        fields.push(("oracle_rounds", Json::u64(rounds as u64)));
    }
    if let Some(n) = o.max_attempts {
        fields.push(("max_attempts", Json::u64(n)));
    }
    if let Some(n) = o.max_nodes {
        fields.push(("max_nodes", Json::u64(n)));
    }
    if let Some(ms) = o.time_limit_ms {
        fields.push(("time_limit_ms", Json::u64(ms)));
    }
    if let Some(ms) = o.timeout_ms {
        fields.push(("timeout_ms", Json::u64(ms)));
    }
    Json::obj(fields)
}

impl Request {
    /// Encodes as a JSON object.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Lift(lift) => {
                let mut fields = vec![
                    ("type", Json::str("lift")),
                    ("id", Json::str(&lift.id)),
                ];
                match &lift.kernel {
                    KernelSpec::Benchmark { name } => {
                        fields.push(("benchmark", Json::str(name)));
                    }
                    KernelSpec::Source {
                        label,
                        source,
                        params,
                        ground_truth,
                    } => {
                        fields.push(("label", Json::str(label)));
                        fields.push(("source", Json::str(source)));
                        fields.push((
                            "params",
                            Json::Arr(params.iter().map(param_to_json).collect()),
                        ));
                        if let Some(ground_truth) = ground_truth {
                            fields.push(("ground_truth", Json::str(ground_truth)));
                        }
                    }
                }
                if let Some(oracle) = &lift.oracle {
                    fields.push(("oracle", Json::str(oracle)));
                }
                if !lift.overrides.is_empty() {
                    fields.push(("config", overrides_to_json(&lift.overrides)));
                }
                if let Some(trace_id) = &lift.trace_id {
                    fields.push(("trace_id", Json::str(trace_id)));
                }
                Json::obj(fields)
            }
            Request::Cancel { id } => Json::obj([
                ("type", Json::str("cancel")),
                ("id", Json::str(id)),
            ]),
            Request::Stats => Json::obj([("type", Json::str("stats"))]),
            Request::Metrics => Json::obj([("type", Json::str("metrics"))]),
            Request::Trace { trace_id } => Json::obj([
                ("type", Json::str("trace")),
                ("trace_id", Json::str(trace_id)),
            ]),
            Request::ShareLift { id, record } => Json::obj([
                ("type", Json::str("share_lift")),
                ("id", Json::str(id)),
                ("record", record.to_json()),
            ]),
            Request::Shutdown => Json::obj([("type", Json::str("shutdown"))]),
        }
    }

    /// Encodes as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_line()
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] with code `bad_json` for malformed JSON
    /// or `bad_request` for well-formed JSON that is not a request;
    /// when an `id` member is present it is attached for error routing.
    pub fn parse_line(line: &str) -> Result<Request, WireError> {
        let doc = parse(line)
            .map_err(|e| WireError::new(ErrorCode::BadJson, e.to_string()))?;
        let id = doc
            .get("id")
            .and_then(Json::as_str)
            .map(str::to_string);
        let attach = |e: WireError| match &id {
            Some(id) => e.with_id(id.clone()),
            None => e,
        };
        let kind = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| {
                attach(WireError::new(
                    ErrorCode::BadRequest,
                    "missing string member `type`",
                ))
            })?;
        match kind {
            "lift" => parse_lift(&doc).map(Request::Lift).map_err(attach),
            "cancel" => {
                let id = id.ok_or_else(|| {
                    WireError::new(ErrorCode::BadRequest, "cancel requires `id`")
                })?;
                Ok(Request::Cancel { id })
            }
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "trace" => {
                let trace_id = doc
                    .get("trace_id")
                    .and_then(Json::as_str)
                    .ok_or_else(|| {
                        attach(WireError::new(
                            ErrorCode::BadRequest,
                            "trace requires string `trace_id`",
                        ))
                    })?
                    .to_string();
                Ok(Request::Trace { trace_id })
            }
            "share_lift" => {
                let id = id.ok_or_else(|| {
                    WireError::new(ErrorCode::BadRequest, "share_lift requires `id`")
                })?;
                let record = doc.get("record").ok_or_else(|| {
                    WireError::new(ErrorCode::BadRequest, "share_lift requires `record`")
                        .with_id(id.clone())
                })?;
                let record = gtl_store::LiftRecord::from_json(record).map_err(|m| {
                    WireError::new(ErrorCode::BadRequest, format!("bad share_lift record: {m}"))
                        .with_id(id.clone())
                })?;
                Ok(Request::ShareLift { id, record })
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(attach(WireError::new(
                ErrorCode::BadRequest,
                format!("unknown request type `{other}`"),
            ))),
        }
    }
}

fn parse_lift(doc: &Json) -> Result<LiftRequest, WireError> {
    let bad = |m: String| WireError::new(ErrorCode::BadRequest, m);
    let id = doc
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("lift requires a string `id`".into()))?
        .to_string();
    let kernel = match (doc.get("benchmark"), doc.get("source")) {
        (Some(name), None) => KernelSpec::Benchmark {
            name: name
                .as_str()
                .ok_or_else(|| bad("`benchmark` must be a string".into()))?
                .to_string(),
        },
        (None, Some(source)) => {
            let source = source
                .as_str()
                .ok_or_else(|| bad("`source` must be a string".into()))?
                .to_string();
            let ground_truth = match doc.get("ground_truth") {
                None => None,
                Some(gt) => Some(
                    gt.as_str()
                        .ok_or_else(|| bad("`ground_truth` must be a string".into()))?
                        .to_string(),
                ),
            };
            let label = doc
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or(&id)
                .to_string();
            let params = doc
                .get("params")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("raw-source lift requires `params` (array)".into()))?
                .iter()
                .map(parse_param)
                .collect::<Result<Vec<_>, _>>()?;
            KernelSpec::Source {
                label,
                source,
                params,
                ground_truth,
            }
        }
        _ => {
            return Err(bad(
                "lift requires exactly one of `benchmark` or `source`".into(),
            ))
        }
    };
    let oracle = match doc.get("oracle") {
        None => None,
        Some(spec) => Some(
            spec.as_str()
                .ok_or_else(|| bad("`oracle` must be a string".into()))?
                .to_string(),
        ),
    };
    let overrides = match doc.get("config") {
        None => ConfigOverrides::default(),
        Some(cfg) => parse_overrides(cfg)?,
    };
    let trace_id = doc
        .get("trace_id")
        .and_then(Json::as_str)
        .map(str::to_string);
    Ok(LiftRequest {
        id,
        kernel,
        oracle,
        overrides,
        trace_id,
    })
}

fn parse_param(p: &Json) -> Result<WireParam, WireError> {
    let bad = |m: String| WireError::new(ErrorCode::BadRequest, m);
    let name = p
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("param requires `name`".into()))?
        .to_string();
    let kind = p
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad(format!("param `{name}` requires `kind`")))?;
    let dims = |p: &Json| -> Result<Vec<String>, WireError> {
        p.get("dims")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad(format!("param `{name}` requires `dims` (array)")))?
            .iter()
            .map(|d| {
                d.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad(format!("param `{name}`: dims must be strings")))
            })
            .collect()
    };
    let nonzero = p.get("nonzero").and_then(Json::as_bool).unwrap_or(false);
    let kind = match kind {
        "size" => WireParamKind::Size {
            symbol: p
                .get("symbol")
                .and_then(Json::as_str)
                .unwrap_or(&name)
                .to_string(),
        },
        "scalar_in" => WireParamKind::ScalarIn { nonzero },
        "array_in" => WireParamKind::ArrayIn {
            dims: dims(p)?,
            nonzero,
        },
        "array_out" => WireParamKind::ArrayOut { dims: dims(p)? },
        other => {
            return Err(bad(format!(
                "param `{name}`: unknown kind `{other}` \
                 (size, scalar_in, array_in, array_out)"
            )))
        }
    };
    Ok(WireParam { name, kind })
}

fn parse_overrides(cfg: &Json) -> Result<ConfigOverrides, WireError> {
    let bad = |m: String| WireError::new(ErrorCode::BadRequest, m);
    let mut o = ConfigOverrides::default();
    if let Some(mode) = cfg.get("mode") {
        let name = mode
            .as_str()
            .ok_or_else(|| bad("`mode` must be a string".into()))?;
        o.mode = Some(
            SearchMode::from_cli_name(name)
                .ok_or_else(|| bad(format!("unknown mode `{name}` (td, bu)")))?,
        );
    }
    if let Some(grammar) = cfg.get("grammar") {
        let name = grammar
            .as_str()
            .ok_or_else(|| bad("`grammar` must be a string".into()))?;
        o.grammar = Some(GrammarMode::from_cli_name(name).ok_or_else(|| {
            bad(format!(
                "unknown grammar `{name}` (refined, equal_probability, \
                 full_grammar, llm_grammar)"
            ))
        })?);
    }
    let uint = |key: &str| -> Result<Option<u64>, WireError> {
        match cfg.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| bad(format!("`{key}` must be a non-negative integer"))),
        }
    };
    // `search_jobs` once chose a search width; the search is now one
    // loop, so the field is still validated for old clients but ignored.
    uint("search_jobs")?;
    o.oracle_rounds = uint("oracle_rounds")?.map(|n| n as usize);
    o.max_attempts = uint("max_attempts")?;
    o.max_nodes = uint("max_nodes")?;
    o.time_limit_ms = uint("time_limit_ms")?;
    o.timeout_ms = uint("timeout_ms")?;
    Ok(o)
}

/// How a scalar [`ServerStats`] field renders in Prometheus output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    /// Monotone since server start (`_total` convention).
    Counter,
    /// A point-in-time level (queue depth, worker count, …).
    Gauge,
}

/// One scalar field of [`ServerStats`] in the field registry: its wire
/// name, accessors, whether decoding requires it, and how it renders.
///
/// Encoding, decoding, cross-replica merging and the Prometheus surface
/// all iterate this one table, so adding a counter means adding one row
/// — a field that exists on the struct but is missing here cannot be
/// half-plumbed (see `registry_covers_every_scalar_field` below, which
/// pins the row count to the struct).
struct StatField {
    name: &'static str,
    /// Required on decode. The original ten fields predate every other
    /// counter and are emitted by all server generations; later fields
    /// default to zero so newer clients still decode older servers.
    required: bool,
    kind: MetricKind,
    help: &'static str,
    get: fn(&ServerStats) -> u64,
    set: fn(&mut ServerStats, u64),
}

macro_rules! stat_fields {
    ($(($field:ident, $required:expr, $kind:ident, $help:expr)),* $(,)?) => {
        &[$(StatField {
            name: stringify!($field),
            required: $required,
            kind: MetricKind::$kind,
            help: $help,
            get: |s: &ServerStats| s.$field,
            set: |s: &mut ServerStats, v: u64| s.$field = v,
        }),*]
    };
}

/// Every scalar counter/gauge of [`ServerStats`], in wire order.
static STAT_FIELDS: &[StatField] = stat_fields![
    (received, true, Counter, "Lift requests admitted to the queue."),
    (completed, true, Counter, "Lifts that finished with a done event."),
    (failed, true, Counter, "Lifts that finished with a failed event."),
    (cancelled, true, Counter, "Lifts cancelled by clients, timeouts, or shutdown."),
    (rejected, true, Counter, "Lift requests rejected at admission."),
    (cache_hits, true, Counter, "Result-cache hits."),
    (cache_misses, true, Counter, "Result-cache misses."),
    (queued, true, Gauge, "Jobs waiting in the queue right now."),
    (active, true, Gauge, "Jobs running on workers right now."),
    (workers, true, Gauge, "Worker threads serving the queue."),
    (providers_built, false, Counter, "Oracle provider instances built since start."),
    (store_loaded, false, Counter, "Outcomes loaded from the persistent store at startup."),
    (store_appended, false, Counter, "Outcomes appended to the persistent store."),
    (store_compactions, false, Counter, "Store compactions performed."),
    (peak_queued, false, Gauge, "High-water mark of the queue depth."),
    (done_events, false, Counter, "Terminal done events emitted."),
    (failed_events, false, Counter, "Terminal failed events emitted."),
    (error_events, false, Counter, "Terminal error events emitted."),
    (shared_events, false, Counter, "Accepted share_lift pushes."),
    (pruned_infeasible, false, Counter, "Candidate templates skipped by feasibility pre-checks."),
    (pruned_equivalent, false, Counter, "Candidate templates skipped as algebraically equivalent."),
];

fn stats_to_json(s: &ServerStats) -> Json {
    let mut fields: Vec<(String, Json)> = STAT_FIELDS
        .iter()
        .map(|f| (f.name.to_string(), Json::u64((f.get)(s))))
        .collect();
    fields.push((
        "oracles".into(),
        Json::Obj(
            s.oracles
                .iter()
                .map(|o| (o.spec.clone(), Json::u64(o.lifts)))
                .collect(),
        ),
    ));
    fields.push((
        "worker_inflight".into(),
        Json::Arr(s.worker_inflight.iter().map(|n| Json::u64(*n)).collect()),
    ));
    fields.push((
        "replicas".into(),
        Json::Obj(
            s.replicas
                .iter()
                .map(|r| {
                    (
                        r.addr.clone(),
                        Json::obj([
                            ("forwards", Json::u64(r.forwards)),
                            ("failovers", Json::u64(r.failovers)),
                        ]),
                    )
                })
                .collect(),
        ),
    ));
    fields.push(("service_time".into(), s.service_time.to_json()));
    fields.push(("queue_wait".into(), s.queue_wait.to_json()));
    fields.push(("phase_times".into(), s.phase_times.to_json()));
    Json::Obj(fields.into_iter().collect())
}

fn stats_from_json(doc: &Json) -> Option<ServerStats> {
    let oracles = match doc.get("oracles") {
        Some(Json::Obj(map)) => map
            .iter()
            .map(|(spec, lifts)| {
                Some(OracleStat {
                    spec: spec.clone(),
                    lifts: lifts.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?,
        _ => Vec::new(),
    };
    let mut stats = ServerStats::default();
    for f in STAT_FIELDS {
        match doc.get(f.name).and_then(Json::as_u64) {
            Some(value) => (f.set)(&mut stats, value),
            // Optional fields postdate older server generations:
            // default to zero so newer clients still decode them.
            None if !f.required => {}
            None => return None,
        }
    }
    stats.oracles = oracles;
    stats.worker_inflight = match doc.get("worker_inflight") {
        Some(Json::Arr(items)) => items.iter().filter_map(Json::as_u64).collect(),
        _ => Vec::new(),
    };
    stats.replicas = match doc.get("replicas") {
        Some(Json::Obj(map)) => map
            .iter()
            .map(|(addr, counts)| ReplicaStat {
                addr: addr.clone(),
                forwards: counts.get("forwards").and_then(Json::as_u64).unwrap_or(0),
                failovers: counts.get("failovers").and_then(Json::as_u64).unwrap_or(0),
            })
            .collect(),
        _ => Vec::new(),
    };
    stats.service_time = doc
        .get("service_time")
        .and_then(LatencyHistogram::from_json)
        .unwrap_or_default();
    stats.queue_wait = doc
        .get("queue_wait")
        .and_then(LatencyHistogram::from_json)
        .unwrap_or_default();
    stats.phase_times = doc
        .get("phase_times")
        .and_then(PhaseTimes::from_json)
        .unwrap_or_default();
    Some(stats)
}

/// Adds every counter, distribution and per-key breakdown of `part`
/// into `total` — the cross-replica aggregation routers run when
/// answering `stats` and `metrics`.
///
/// Scalars come from the field registry, so a counter added to
/// [`ServerStats`] (and its registry row) merges without touching the
/// router; histograms and phase times merge by their own element-wise
/// algebra; `oracles` and `replicas` merge per key and stay sorted.
pub fn merge_stats(total: &mut ServerStats, part: &ServerStats) {
    for f in STAT_FIELDS {
        let sum = (f.get)(total).saturating_add((f.get)(part));
        (f.set)(total, sum);
    }
    for oracle in &part.oracles {
        match total.oracles.iter_mut().find(|o| o.spec == oracle.spec) {
            Some(existing) => existing.lifts += oracle.lifts,
            None => total.oracles.push(oracle.clone()),
        }
    }
    total.oracles.sort_by(|a, b| a.spec.cmp(&b.spec));
    total
        .worker_inflight
        .extend(part.worker_inflight.iter().copied());
    for replica in &part.replicas {
        match total.replicas.iter_mut().find(|r| r.addr == replica.addr) {
            Some(existing) => {
                existing.forwards += replica.forwards;
                existing.failovers += replica.failovers;
            }
            None => total.replicas.push(replica.clone()),
        }
    }
    total.replicas.sort_by(|a, b| a.addr.cmp(&b.addr));
    total.service_time.merge(&part.service_time);
    total.queue_wait.merge(&part.queue_wait);
    total.phase_times.merge(&part.phase_times);
}

/// Renders a [`ServerStats`] snapshot in the Prometheus text exposition
/// format — the payload of [`Event::Metrics`]. Scalars render from the
/// field registry (counters get the `_total` suffix), phase times and
/// per-oracle counts as labelled series, and the service-time and
/// queue-wait distributions as histograms.
pub fn render_prometheus(stats: &ServerStats) -> String {
    use gtl_trace::prom;

    let mut out = String::new();
    for f in STAT_FIELDS {
        match f.kind {
            MetricKind::Counter => prom::counter(
                &mut out,
                &format!("gtl_{}_total", f.name),
                f.help,
                (f.get)(stats),
            ),
            MetricKind::Gauge => {
                prom::gauge(&mut out, &format!("gtl_{}", f.name), f.help, (f.get)(stats))
            }
        }
    }
    let phase_series: Vec<(&str, u64)> = Phase::ALL
        .iter()
        .map(|p| (p.name(), stats.phase_times.get(*p)))
        .collect();
    prom::labelled_counter(
        &mut out,
        "gtl_phase_us_total",
        "Pipeline time per phase, microseconds.",
        "phase",
        &phase_series,
    );
    let oracle_series: Vec<(&str, u64)> = stats
        .oracles
        .iter()
        .map(|o| (o.spec.as_str(), o.lifts))
        .collect();
    prom::labelled_counter(
        &mut out,
        "gtl_oracle_lifts_total",
        "Lifts driven per oracle spec.",
        "spec",
        &oracle_series,
    );
    let forward_series: Vec<(&str, u64)> = stats
        .replicas
        .iter()
        .map(|r| (r.addr.as_str(), r.forwards))
        .collect();
    let failover_series: Vec<(&str, u64)> = stats
        .replicas
        .iter()
        .map(|r| (r.addr.as_str(), r.failovers))
        .collect();
    if !stats.replicas.is_empty() {
        prom::labelled_counter(
            &mut out,
            "gtl_replica_forwards_total",
            "Requests served per replica.",
            "replica",
            &forward_series,
        );
        prom::labelled_counter(
            &mut out,
            "gtl_replica_failovers_total",
            "Mid-request failovers per replica.",
            "replica",
            &failover_series,
        );
    }
    prom::histogram(
        &mut out,
        "gtl_service_time_us",
        "Lift service time (admission to terminal event), microseconds.",
        &stats.service_time,
    );
    prom::histogram(
        &mut out,
        "gtl_queue_wait_us",
        "Lift queue wait (admission to worker pickup), microseconds.",
        &stats.queue_wait,
    );
    out
}

impl Event {
    /// Encodes as a JSON object.
    pub fn to_json(&self) -> Json {
        // `trace_id` is appended only when present, so streams from
        // servers predating the observability tier stay byte-identical.
        let with_trace = |mut fields: Vec<(&'static str, Json)>, trace_id: &Option<String>| {
            if let Some(trace_id) = trace_id {
                fields.push(("trace_id", Json::str(trace_id)));
            }
            Json::obj(fields)
        };
        match self {
            Event::Queued {
                id,
                position,
                trace_id,
            } => with_trace(
                vec![
                    ("event", Json::str("queued")),
                    ("id", Json::str(id)),
                    ("position", Json::u64(*position as u64)),
                ],
                trace_id,
            ),
            Event::SearchProgress {
                id,
                nodes,
                attempts,
                elapsed_ms,
                trace_id,
            } => with_trace(
                vec![
                    ("event", Json::str("search_progress")),
                    ("id", Json::str(id)),
                    ("nodes", Json::u64(*nodes)),
                    ("attempts", Json::u64(*attempts)),
                    ("elapsed_ms", Json::u64(*elapsed_ms)),
                ],
                trace_id,
            ),
            Event::CandidateFound {
                id,
                candidate,
                trace_id,
            } => with_trace(
                vec![
                    ("event", Json::str("candidate_found")),
                    ("id", Json::str(id)),
                    ("candidate", Json::str(candidate)),
                ],
                trace_id,
            ),
            Event::Verified {
                id,
                solution,
                trace_id,
            } => with_trace(
                vec![
                    ("event", Json::str("verified")),
                    ("id", Json::str(id)),
                    ("solution", Json::str(solution)),
                ],
                trace_id,
            ),
            Event::Done {
                id,
                solution,
                attempts,
                nodes,
                elapsed_ms,
                cached,
                trace_id,
            } => with_trace(
                vec![
                    ("event", Json::str("done")),
                    ("id", Json::str(id)),
                    ("solution", Json::str(solution)),
                    ("attempts", Json::u64(*attempts)),
                    ("nodes", Json::u64(*nodes)),
                    ("elapsed_ms", Json::u64(*elapsed_ms)),
                    ("cached", Json::Bool(*cached)),
                ],
                trace_id,
            ),
            Event::Failed {
                id,
                reason,
                detail,
                attempts,
                nodes,
                elapsed_ms,
                cached,
                trace_id,
            } => {
                let mut fields = vec![
                    ("event", Json::str("failed")),
                    ("id", Json::str(id)),
                    ("reason", Json::str(reason)),
                    ("attempts", Json::u64(*attempts)),
                    ("nodes", Json::u64(*nodes)),
                    ("elapsed_ms", Json::u64(*elapsed_ms)),
                    ("cached", Json::Bool(*cached)),
                ];
                if let Some(detail) = detail {
                    fields.push(("detail", Json::str(detail)));
                }
                with_trace(fields, trace_id)
            }
            Event::Stats { stats } => Json::obj([
                ("event", Json::str("stats")),
                ("stats", stats_to_json(stats)),
            ]),
            Event::Metrics { text } => Json::obj([
                ("event", Json::str("metrics")),
                ("text", Json::str(text)),
            ]),
            Event::Trace { trace_id, spans } => Json::obj([
                ("event", Json::str("trace")),
                ("trace_id", Json::str(trace_id)),
                (
                    "spans",
                    Json::Arr(spans.iter().map(SpanRecord::to_json).collect()),
                ),
            ]),
            Event::Shared { id, stored } => Json::obj([
                ("event", Json::str("shared")),
                ("id", Json::str(id)),
                ("stored", Json::Bool(*stored)),
            ]),
            Event::Error {
                id,
                code,
                message,
                trace_id,
            } => {
                let mut fields = vec![
                    ("event", Json::str("error")),
                    ("code", Json::str(code.wire_name())),
                    ("message", Json::str(message)),
                ];
                if let Some(id) = id {
                    fields.push(("id", Json::str(id)));
                }
                with_trace(fields, trace_id)
            }
        }
    }

    /// Encodes as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_line()
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] (`bad_json` / `bad_request`) when the
    /// line is not a well-formed event.
    pub fn parse_line(line: &str) -> Result<Event, WireError> {
        let doc = parse(line)
            .map_err(|e| WireError::new(ErrorCode::BadJson, e.to_string()))?;
        let bad = |m: String| WireError::new(ErrorCode::BadRequest, m);
        let kind = doc
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing string member `event`".into()))?;
        let id = || -> Result<String, WireError> {
            doc.get("id")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("`{kind}` requires `id`")))
        };
        let num = |k: &str| -> Result<u64, WireError> {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(format!("`{kind}` requires numeric `{k}`")))
        };
        let string = |k: &str| -> Result<String, WireError> {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("`{kind}` requires string `{k}`")))
        };
        // Optional on every per-request event: absent lines (from
        // pre-observability servers) decode as `None`.
        let trace_id = || {
            doc.get("trace_id")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        Ok(match kind {
            "queued" => Event::Queued {
                id: id()?,
                position: num("position")? as usize,
                trace_id: trace_id(),
            },
            "search_progress" => Event::SearchProgress {
                id: id()?,
                nodes: num("nodes")?,
                attempts: num("attempts")?,
                elapsed_ms: num("elapsed_ms")?,
                trace_id: trace_id(),
            },
            "candidate_found" => Event::CandidateFound {
                id: id()?,
                candidate: string("candidate")?,
                trace_id: trace_id(),
            },
            "verified" => Event::Verified {
                id: id()?,
                solution: string("solution")?,
                trace_id: trace_id(),
            },
            "done" => Event::Done {
                id: id()?,
                solution: string("solution")?,
                attempts: num("attempts")?,
                nodes: num("nodes")?,
                elapsed_ms: num("elapsed_ms")?,
                cached: doc.get("cached").and_then(Json::as_bool).unwrap_or(false),
                trace_id: trace_id(),
            },
            "failed" => Event::Failed {
                id: id()?,
                reason: string("reason")?,
                detail: doc
                    .get("detail")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                attempts: doc.get("attempts").and_then(Json::as_u64).unwrap_or(0),
                nodes: doc.get("nodes").and_then(Json::as_u64).unwrap_or(0),
                elapsed_ms: doc.get("elapsed_ms").and_then(Json::as_u64).unwrap_or(0),
                cached: doc.get("cached").and_then(Json::as_bool).unwrap_or(false),
                trace_id: trace_id(),
            },
            "stats" => Event::Stats {
                stats: doc
                    .get("stats")
                    .and_then(stats_from_json)
                    .ok_or_else(|| bad("`stats` requires a `stats` object".into()))?,
            },
            "metrics" => Event::Metrics {
                text: string("text")?,
            },
            "trace" => Event::Trace {
                trace_id: string("trace_id")?,
                spans: doc
                    .get("spans")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad("`trace` requires a `spans` array".into()))?
                    .iter()
                    .map(SpanRecord::from_json)
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| bad("`trace` contains a malformed span".into()))?,
            },
            "shared" => Event::Shared {
                id: id()?,
                stored: doc
                    .get("stored")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| bad("`shared` requires boolean `stored`".into()))?,
            },
            "error" => Event::Error {
                id: doc.get("id").and_then(Json::as_str).map(str::to_string),
                code: doc
                    .get("code")
                    .and_then(Json::as_str)
                    .and_then(ErrorCode::from_wire_name)
                    .ok_or_else(|| bad("`error` requires a known `code`".into()))?,
                message: string("message")?,
                trace_id: trace_id(),
            },
            other => return Err(bad(format!("unknown event `{other}`"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let requests = [
            Request::Lift(LiftRequest::benchmark("r1", "blas_gemv")),
            Request::Lift(LiftRequest::benchmark("r1b", "blas_gemv").with_oracle("synthetic:42")),
            Request::Lift(
                LiftRequest::benchmark("r1t", "blas_gemv").with_trace_id("deadbeef01234567"),
            ),
            Request::Lift(LiftRequest {
                id: "r1c".into(),
                kernel: KernelSpec::Source {
                    label: "blind".into(),
                    source: "void f(int n, int *out) { for (int i = 0; i < n; i++) out[i] = 0; }"
                        .into(),
                    params: vec![
                        WireParam {
                            name: "n".into(),
                            kind: WireParamKind::Size { symbol: "n".into() },
                        },
                        WireParam {
                            name: "out".into(),
                            kind: WireParamKind::ArrayOut {
                                dims: vec!["n".into()],
                            },
                        },
                    ],
                    // No ground truth: legal for replay-backed lifts.
                    ground_truth: None,
                },
                oracle: Some("replay:fx.json".into()),
                overrides: ConfigOverrides::default(),
                trace_id: None,
            }),
            Request::Lift(LiftRequest {
                id: "r2".into(),
                kernel: KernelSpec::Source {
                    label: "dot".into(),
                    source: "void dot(int n, int *a, int *b, int *out) { *out = 0; \
                             for (int i = 0; i < n; i++) *out += a[i] * b[i]; }"
                        .into(),
                    params: vec![
                        WireParam {
                            name: "n".into(),
                            kind: WireParamKind::Size { symbol: "n".into() },
                        },
                        WireParam {
                            name: "a".into(),
                            kind: WireParamKind::ArrayIn {
                                dims: vec!["n".into()],
                                nonzero: false,
                            },
                        },
                        WireParam {
                            name: "b".into(),
                            kind: WireParamKind::ArrayIn {
                                dims: vec!["n".into()],
                                nonzero: true,
                            },
                        },
                        WireParam {
                            name: "out".into(),
                            kind: WireParamKind::ArrayOut { dims: vec![] },
                        },
                    ],
                    ground_truth: Some("out = a(i) * b(i)".into()),
                },
                oracle: Some("replay:fx.json".into()),
                overrides: ConfigOverrides {
                    mode: Some(SearchMode::BottomUp),
                    grammar: Some(GrammarMode::Refined),
                    oracle_rounds: Some(3),
                    max_attempts: Some(500),
                    max_nodes: None,
                    time_limit_ms: Some(2000),
                    timeout_ms: Some(5000),
                },
                trace_id: None,
            }),
            Request::Cancel { id: "r1".into() },
            Request::Stats,
            Request::Metrics,
            Request::Trace {
                trace_id: "deadbeef01234567".into(),
            },
            Request::ShareLift {
                id: "s1".into(),
                record: gtl_store::LiftRecord {
                    key: u64::MAX,
                    label: "blas_gemv".into(),
                    solution: Some("a(i) = b(i,j) * c(j)".into()),
                    reason: None,
                    detail: None,
                    attempts: 57,
                    nodes: 1250,
                    seconds: 0.25,
                },
            },
            Request::Shutdown,
        ];
        for request in requests {
            let line = request.to_line();
            assert_eq!(
                Request::parse_line(&line).unwrap(),
                request,
                "line: {line}"
            );
        }
    }

    #[test]
    fn events_roundtrip() {
        let mut service_time = LatencyHistogram::new();
        service_time.record(1_500);
        service_time.record(92_000);
        let mut queue_wait = LatencyHistogram::new();
        queue_wait.record(40);
        let mut phase_times = PhaseTimes::new();
        phase_times.record(Phase::Search, 61_000);
        phase_times.record(Phase::Validate, 9_000);
        let events = [
            Event::Queued {
                id: "r1".into(),
                position: 3,
                trace_id: Some("deadbeef01234567".into()),
            },
            Event::SearchProgress {
                id: "r1".into(),
                nodes: 1200,
                attempts: 57,
                elapsed_ms: 40,
                trace_id: Some("deadbeef01234567".into()),
            },
            Event::CandidateFound {
                id: "r1".into(),
                candidate: "a(i) = b(i,j) * c(j)".into(),
                trace_id: None,
            },
            Event::Verified {
                id: "r1".into(),
                solution: "a(i) = b(i,j) * c(j)".into(),
                trace_id: Some("deadbeef01234567".into()),
            },
            Event::Done {
                id: "r1".into(),
                solution: "a(i) = b(i,j) * c(j)".into(),
                attempts: 57,
                nodes: 1250,
                elapsed_ms: 90,
                cached: true,
                trace_id: Some("deadbeef01234567".into()),
            },
            Event::Failed {
                id: "r2".into(),
                reason: "budget_exceeded".into(),
                detail: None,
                attempts: 30_000,
                nodes: 412_007,
                elapsed_ms: 9_800,
                cached: false,
                trace_id: None,
            },
            Event::Failed {
                id: "r3".into(),
                reason: "bad_query".into(),
                detail: Some("no binding for size symbol `n`".into()),
                attempts: 0,
                nodes: 0,
                elapsed_ms: 2,
                cached: false,
                trace_id: Some("cafe000000000001".into()),
            },
            Event::Metrics {
                text: "# HELP gtl_received_total x\ngtl_received_total 2\n".into(),
            },
            Event::Trace {
                trace_id: "deadbeef01234567".into(),
                spans: vec![
                    SpanRecord {
                        trace_id: "deadbeef01234567".into(),
                        request_id: "r1".into(),
                        name: "queue_wait".into(),
                        start_ms: 12,
                        dur_us: 830,
                    },
                    SpanRecord {
                        trace_id: "deadbeef01234567".into(),
                        request_id: "r1".into(),
                        name: "search".into(),
                        start_ms: 13,
                        dur_us: 61_000,
                    },
                ],
            },
            Event::Trace {
                trace_id: "unknown".into(),
                spans: Vec::new(),
            },
            Event::Stats {
                stats: ServerStats {
                    received: 10,
                    completed: 7,
                    failed: 1,
                    cancelled: 1,
                    rejected: 1,
                    cache_hits: 3,
                    cache_misses: 7,
                    queued: 0,
                    active: 1,
                    workers: 4,
                    providers_built: 2,
                    store_loaded: 5,
                    store_appended: 4,
                    store_compactions: 1,
                    oracles: vec![
                        OracleStat {
                            spec: "replay:fx.json".into(),
                            lifts: 2,
                        },
                        OracleStat {
                            spec: "synthetic".into(),
                            lifts: 5,
                        },
                    ],
                    peak_queued: 6,
                    worker_inflight: vec![1, 0, 1, 0],
                    done_events: 7,
                    failed_events: 1,
                    error_events: 2,
                    shared_events: 3,
                    replicas: vec![
                        ReplicaStat {
                            addr: "127.0.0.1:7191".into(),
                            forwards: 9,
                            failovers: 1,
                        },
                        ReplicaStat {
                            addr: "127.0.0.1:7192".into(),
                            forwards: 4,
                            failovers: 0,
                        },
                    ],
                    pruned_infeasible: 120,
                    pruned_equivalent: 45,
                    service_time,
                    queue_wait,
                    phase_times,
                },
            },
            Event::Shared {
                id: "s1".into(),
                stored: true,
            },
            Event::Shared {
                id: "s2".into(),
                stored: false,
            },
            Event::Error {
                id: Some("r9".into()),
                code: ErrorCode::QueueFull,
                message: "queue is at capacity (64)".into(),
                trace_id: None,
            },
            Event::Error {
                id: Some("r10".into()),
                code: ErrorCode::ReplicaUnavailable,
                message: "all 2 replicas unavailable".into(),
                trace_id: Some("deadbeef01234567".into()),
            },
            Event::Error {
                id: None,
                code: ErrorCode::BadJson,
                message: "invalid JSON at byte 0: unexpected `x`".into(),
                trace_id: None,
            },
        ];
        for event in events {
            let line = event.to_line();
            assert_eq!(Event::parse_line(&line).unwrap(), event, "line: {line}");
        }
    }

    #[test]
    fn stats_from_pre_gauge_servers_decode_with_defaults() {
        // A PR 3-era stats line: none of the gauge/counter fields.
        let line = r#"{"event":"stats","stats":{"received":2,"completed":2,"failed":0,"cancelled":0,"rejected":0,"cache_hits":1,"cache_misses":1,"queued":0,"active":0,"workers":1}}"#;
        let Event::Stats { stats } = Event::parse_line(line).unwrap() else {
            panic!("not a stats event");
        };
        assert_eq!(stats.received, 2);
        assert_eq!(stats.peak_queued, 0);
        assert!(stats.worker_inflight.is_empty());
        assert_eq!(stats.done_events, 0);
        assert!(stats.replicas.is_empty());
        // Observability fields postdate PR 10: empty, not an error.
        assert!(stats.service_time.is_empty());
        assert!(stats.queue_wait.is_empty());
        assert!(stats.phase_times.is_empty());
    }

    #[test]
    fn stats_with_retired_counters_still_decode() {
        // Older peers also send `unchecked_kernels`, which no longer
        // exists: an unknown key is ignored, not an error.
        let line = r#"{"event":"stats","stats":{"received":3,"completed":3,"failed":0,"cancelled":0,"rejected":0,"cache_hits":0,"cache_misses":3,"queued":0,"active":0,"workers":2,"pruned_equivalent":5,"unchecked_kernels":88}}"#;
        let Event::Stats { stats } = Event::parse_line(line).unwrap() else {
            panic!("not a stats event");
        };
        assert_eq!(stats.received, 3);
        assert_eq!(stats.pruned_equivalent, 5);
        assert!(!stats_to_json(&stats).to_line().contains("unchecked_kernels"));
    }

    #[test]
    fn registry_covers_every_scalar_field() {
        // A scalar field added to `ServerStats` without a registry row
        // would silently vanish from encode/decode/merge/Prometheus.
        // `Json::Obj` keeps insertion order and the registry drives
        // encoding, so the encoded key set pins the registry: this
        // fails (count mismatch) until the new field gets its row.
        let encoded = stats_to_json(&ServerStats::default());
        let Json::Obj(fields) = &encoded else {
            panic!("stats must encode as an object");
        };
        let composite = ["oracles", "worker_inflight", "replicas", "service_time", "queue_wait", "phase_times"];
        let scalars: Vec<&str> = fields
            .keys()
            .map(|k| k.as_str())
            .filter(|k| !composite.contains(k))
            .collect();
        assert_eq!(scalars.len(), STAT_FIELDS.len());
        for f in STAT_FIELDS {
            assert!(scalars.contains(&f.name), "field {} missing", f.name);
        }
        // Setting through the registry round-trips through the getter.
        let mut stats = ServerStats::default();
        for (n, f) in STAT_FIELDS.iter().enumerate() {
            (f.set)(&mut stats, n as u64 + 1);
        }
        for (n, f) in STAT_FIELDS.iter().enumerate() {
            assert_eq!((f.get)(&stats), n as u64 + 1, "field {}", f.name);
        }
    }

    #[test]
    fn merge_stats_sums_every_field_and_breakdown() {
        let mut a = ServerStats::default();
        for f in STAT_FIELDS {
            (f.set)(&mut a, 10);
        }
        a.oracles = vec![OracleStat {
            spec: "synthetic".into(),
            lifts: 3,
        }];
        a.replicas = vec![ReplicaStat {
            addr: "h:1".into(),
            forwards: 2,
            failovers: 1,
        }];
        a.worker_inflight = vec![1];
        a.service_time.record(100);
        a.queue_wait.record(5);
        a.phase_times.record(Phase::Oracle, 40);

        let mut b = ServerStats::default();
        for f in STAT_FIELDS {
            (f.set)(&mut b, 7);
        }
        b.oracles = vec![
            OracleStat {
                spec: "replay:fx".into(),
                lifts: 1,
            },
            OracleStat {
                spec: "synthetic".into(),
                lifts: 4,
            },
        ];
        b.replicas = vec![ReplicaStat {
            addr: "h:2".into(),
            forwards: 9,
            failovers: 0,
        }];
        b.worker_inflight = vec![0, 1];
        b.service_time.record(900);
        b.phase_times.record(Phase::Oracle, 2);
        b.phase_times.record(Phase::Search, 11);

        let mut merged = a.clone();
        merge_stats(&mut merged, &b);
        for f in STAT_FIELDS {
            assert_eq!((f.get)(&merged), 17, "field {} not summed", f.name);
        }
        assert_eq!(
            merged.oracles,
            vec![
                OracleStat {
                    spec: "replay:fx".into(),
                    lifts: 1
                },
                OracleStat {
                    spec: "synthetic".into(),
                    lifts: 7
                },
            ]
        );
        assert_eq!(merged.replicas.len(), 2);
        assert_eq!(merged.worker_inflight, vec![1, 0, 1]);
        assert_eq!(merged.service_time.count(), 2);
        assert_eq!(merged.service_time.sum_us(), 1_000);
        assert_eq!(merged.queue_wait.count(), 1);
        assert_eq!(merged.phase_times.get(Phase::Oracle), 42);
        assert_eq!(merged.phase_times.get(Phase::Search), 11);
    }

    #[test]
    fn prometheus_rendering_covers_the_registry() {
        let mut stats = ServerStats {
            received: 5,
            queued: 2,
            oracles: vec![OracleStat {
                spec: "synthetic".into(),
                lifts: 5,
            }],
            ..ServerStats::default()
        };
        stats.service_time.record(1_000);
        stats.queue_wait.record(30);
        stats.phase_times.record(Phase::Search, 800);
        let text = render_prometheus(&stats);
        // Counters get the _total convention, gauges keep their name.
        assert!(text.contains("# TYPE gtl_received_total counter\n"));
        assert!(text.contains("gtl_received_total 5\n"));
        assert!(text.contains("# TYPE gtl_queued gauge\n"));
        assert!(text.contains("gtl_queued 2\n"));
        // Every registry row renders.
        for f in STAT_FIELDS {
            let name = match f.kind {
                MetricKind::Counter => format!("gtl_{}_total", f.name),
                MetricKind::Gauge => format!("gtl_{}", f.name),
            };
            assert!(text.contains(&format!("# HELP {name} ")), "{name} missing");
        }
        // Labelled and histogram series.
        assert!(text.contains("gtl_phase_us_total{phase=\"search\"} 800\n"));
        assert!(text.contains("gtl_phase_us_total{phase=\"oracle\"} 0\n"));
        assert!(text.contains("gtl_oracle_lifts_total{spec=\"synthetic\"} 5\n"));
        assert!(text.contains("gtl_service_time_us_count 1\n"));
        assert!(text.contains("gtl_queue_wait_us_sum 30\n"));
        // No replicas configured: the per-replica series are absent.
        assert!(!text.contains("gtl_replica_forwards_total"));
    }

    #[test]
    fn terminal_classification() {
        assert!(Event::Done {
            id: "a".into(),
            solution: String::new(),
            attempts: 0,
            nodes: 0,
            elapsed_ms: 0,
            cached: false,
            trace_id: None
        }
        .is_terminal());
        assert!(Event::Error {
            id: None,
            code: ErrorCode::BadJson,
            message: String::new(),
            trace_id: None
        }
        .is_terminal());
        assert!(!Event::Queued {
            id: "a".into(),
            position: 1,
            trace_id: None
        }
        .is_terminal());
        // The metrics/trace answers never close a lift stream.
        assert!(!Event::Metrics {
            text: String::new()
        }
        .is_terminal());
        assert!(!Event::Trace {
            trace_id: "t".into(),
            spans: Vec::new()
        }
        .is_terminal());
    }

    #[test]
    fn trace_id_stamping_fills_only_unset_events() {
        let mut event = Event::Queued {
            id: "a".into(),
            position: 1,
            trace_id: None,
        };
        event.set_trace_id("cafe000000000001");
        assert_eq!(event.trace_id(), Some("cafe000000000001"));
        // An already-attributed event keeps its ID.
        event.set_trace_id("0000000000000000");
        assert_eq!(event.trace_id(), Some("cafe000000000001"));
        // Variants without the field are a no-op.
        let mut stats = Event::Stats {
            stats: ServerStats::default(),
        };
        stats.set_trace_id("cafe000000000001");
        assert_eq!(stats.trace_id(), None);
    }

    #[test]
    fn malformed_requests_are_classified() {
        let e = Request::parse_line("not json").unwrap_err();
        assert_eq!(e.code, ErrorCode::BadJson);
        let e = Request::parse_line(r#"{"id":"x"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert_eq!(e.id.as_deref(), Some("x"), "id extracted for routing");
        let e = Request::parse_line(r#"{"type":"lift","id":"y"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let e =
            Request::parse_line(r#"{"type":"lift","id":"y","benchmark":"b","config":{"mode":"zz"}}"#)
                .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
    }

    #[test]
    fn overrides_apply_to_base_config() {
        let o = ConfigOverrides {
            mode: Some(SearchMode::BottomUp),
            oracle_rounds: Some(2),
            max_attempts: Some(123),
            time_limit_ms: Some(1500),
            ..ConfigOverrides::default()
        };
        let cfg = o.apply(&StaggConfig::top_down());
        assert_eq!(cfg.mode, SearchMode::BottomUp);
        assert_eq!(cfg.oracle_rounds, 2);
        assert_eq!(cfg.budget.max_attempts, 123);
        assert_eq!(cfg.budget.time_limit, std::time::Duration::from_millis(1500));
        assert!(ConfigOverrides::default().is_empty());
    }

    #[test]
    fn legacy_search_jobs_is_accepted_and_ignored() {
        // Old clients may still send `search_jobs`: the request decodes
        // and keys exactly like one without it, so it shares cache and
        // store entries with it.
        let key_of = |line: &str| {
            let Request::Lift(request) = Request::parse_line(line).unwrap() else {
                panic!("not a lift request: {line}");
            };
            let query = crate::server::resolve_query(&request).unwrap();
            let config = request.overrides.apply(&StaggConfig::top_down());
            crate::cache::request_key(&query, &config)
        };
        assert_eq!(
            key_of(r#"{"type":"lift","id":"a","benchmark":"blas_dot","config":{"search_jobs":4}}"#),
            key_of(r#"{"type":"lift","id":"a","benchmark":"blas_dot"}"#)
        );
        // A non-integer value is still a malformed request.
        let e = Request::parse_line(
            r#"{"type":"lift","id":"a","benchmark":"blas_dot","config":{"search_jobs":"4"}}"#,
        )
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
    }
}
