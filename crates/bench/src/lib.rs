//! Experiment harness for the Guided Tensor Lifting reproduction.
//!
//! Provides the shared runner that evaluates any lifting method over the
//! benchmark suite, plus table/figure formatting. The per-table and
//! per-figure regeneration targets live under `benches/` (plain bench
//! binaries) and print the same rows/series the paper reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loadgen;
pub mod methods;
pub mod runner;
pub mod tables;
pub mod trace;

pub use loadgen::{
    corpus_from_export, open_offsets, parse_mix, run_load, sample_mix, shuffled_indices,
    Arrival, ChaosEvent, LatencyHistogram, LoadOptions, LoadReport, QueueSample, Rng,
};
pub use methods::{Method, MethodKind};
pub use runner::{
    batch_json, query_for, run_batch, BatchResult, MethodResult, Route, SuiteResult,
};
pub use trace::{trace_search, SearchTrace};
