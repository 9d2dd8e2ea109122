//! The lift-serving layer of the Guided Tensor Lifting reproduction:
//! a multi-client server that turns the one-shot STAGG pipeline into a
//! long-running service, toward the roadmap's "heavy lift traffic"
//! north star.
//!
//! Lift requests (a suite benchmark name, or raw C kernel source with
//! task metadata, plus per-request configuration overrides) arrive on a
//! JSON-lines protocol — over stdin/stdout or TCP via the `lift_server`
//! binary, or in-process through [`ServerHandle`]. Each request is
//! admitted to a **bounded job queue** drained by a **persistent worker
//! pool**; workers run the full pipeline (`gtl::Stagg::lift_with`) and
//! stream incremental [`Event`]s back to the submitting client: `queued`, `search_progress`, `candidate_found`,
//! `verified`, then a terminal `done` / `failed` / `error`.
//!
//! A request-level [`ResultCache`] keyed by a normalized hash of the C
//! source + configuration answers repeated identical lifts instantly
//! (hit/miss counters surface in the `stats` request), and
//! cancellation — client `cancel` requests, per-request timeouts,
//! graceful shutdown — rides the search's `gtl_search::CancelFlag`
//! end to end.
//!
//! The wire protocol is specified in `docs/PROTOCOL.md`; the serving
//! architecture is part of `docs/ARCHITECTURE.md`.
//!
//! # Example: an in-process server
//!
//! ```
//! use gtl_serve::{Event, LiftRequest, LiftServer, ServerConfig};
//!
//! let server = LiftServer::start(ServerConfig {
//!     workers: 2,
//!     ..ServerConfig::default()
//! });
//! let handle = server.handle();
//!
//! // Submit one suite benchmark and wait for its event stream.
//! let events = handle.lift_blocking(LiftRequest::benchmark("r1", "blas_dot"));
//! assert!(matches!(events.first(), Some(Event::Queued { .. })));
//! let Some(Event::Done { solution, cached: false, .. }) = events.last() else {
//!     panic!("expected an uncached done, got {:?}", events.last());
//! };
//!
//! // The identical request is now answered from the result cache.
//! let again = handle.lift_blocking(LiftRequest::benchmark("r2", "blas_dot"));
//! match again.last() {
//!     Some(Event::Done { solution: hit, cached: true, .. }) => assert_eq!(hit, solution),
//!     other => panic!("expected a cached done, got {other:?}"),
//! }
//! assert_eq!(handle.stats().cache_hits, 1);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod router;
pub mod server;
pub mod transport;

// The JSON implementation moved into `gtl_store` (the persistence logs
// and oracle fixtures share it); re-exported here so wire-protocol
// callers keep their `gtl_serve::json` path.
pub use gtl_store::json;

pub use cache::{normalize_source, request_key, CachedOutcome, ResultCache};
pub use client::{ClientError, LiftClient};
pub use json::{Json, JsonError};
pub use gtl_trace::{LatencyHistogram, Phase, PhaseTimes, SpanRecord};
pub use protocol::{
    merge_stats, render_prometheus, ConfigOverrides, ErrorCode, Event, KernelSpec, LiftRequest,
    OracleStat, ReplicaStat, Request, ServerStats, WireError, WireParam, WireParamKind,
};
pub use router::{HashRing, LiftRouter, RouterConfig, RouterHandle};
pub use server::{EventSink, LiftServer, LineAction, ServerConfig, ServerHandle};
pub use transport::{serve_listener, serve_stdio, LineHandler};
