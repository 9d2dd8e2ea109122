//! Persistent lift store: the crash-tolerant persistence subsystem of
//! the Guided Tensor Lifting reproduction.
//!
//! The pipeline (oracle → learned PCFG → enumerative search → verify)
//! is expensive per lift — which is exactly why the serving layer
//! caches results and the oracle layer records transcripts. This crate
//! makes both durable with one std-only mechanism:
//!
//! - [`JsonlLog`] — a versioned, append-only JSON-lines log. Each
//!   append is a single `write` of one full line, so a crash can only
//!   tear the final record; `open` recovers by truncating the torn
//!   tail, and corruption anywhere else fails with a typed
//!   [`StoreError`] (never a panic, never silent data loss). Each log
//!   is exactly one file; the sealed segments and snapshot older builds
//!   could leave next to it are folded into that file at open.
//! - [`LiftStore`] — completed lift outcomes keyed by the serving
//!   layer's normalized request hash, with last-writer-wins indexing
//!   and atomic offline [compaction](LiftStore::compact). `lift_server
//!   --store` answers repeat lifts across restarts from it with zero
//!   search attempts; `batch_suite --store` warm-starts suite runs.
//! - [`json`] — the workspace's one std-only JSON implementation,
//!   shared with the serving wire protocol and the oracle fixtures.
//!   Nesting is bounded ([`json::MAX_DEPTH`]), so no input can recurse
//!   the parser off the stack.
//!
//! The `store_tool` binary inspects, compacts and exports store files
//! offline.
//!
//! # Example
//!
//! ```
//! use gtl_store::{LiftRecord, LiftStore};
//!
//! let path = std::env::temp_dir().join(format!("doc-store-{}.jsonl", std::process::id()));
//! # let _ = std::fs::remove_file(&path);
//! let store = LiftStore::open(&path).unwrap();
//! store.append(LiftRecord {
//!     key: 0xfeed,
//!     label: "blas_dot".into(),
//!     solution: Some("out = a(i) * b(i)".into()),
//!     reason: None,
//!     detail: None,
//!     attempts: 12,
//!     nodes: 90,
//!     seconds: 0.01,
//! }).unwrap();
//! drop(store);
//!
//! // A fresh process (or a restarted server) sees the same outcome.
//! let store = LiftStore::open(&path).unwrap();
//! assert_eq!(store.get(0xfeed).unwrap().solution.as_deref(), Some("out = a(i) * b(i)"));
//! # let _ = std::fs::remove_file(&path);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod lift;
pub mod log;

pub use json::{parse, Json, JsonError};
pub use lift::{
    parse_export, CompactionStats, LiftRecord, LiftStore, StoreCounters, LIFT_LOG_KIND,
};
pub use log::{
    is_log_file, is_log_header, JsonlLog, LoadedLog, Recovery, StoreError, FIXTURE_LOG_KIND,
    STORE_VERSION,
};
