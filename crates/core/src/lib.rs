//! STAGG — Synthesis of Tensor Algebra Guided by Grammars.
//!
//! The paper's primary contribution: lifting legacy C tensor kernels to
//! TACO by combining LLM guesses with enumerative synthesis. The pipeline
//! (Fig. 1) is assembled from the workspace's substrate crates:
//!
//! | Stage | Paper | Crate |
//! |---|---|---|
//! | candidate generation | GPT-4, Prompt 1 | `gtl-oracle` |
//! | templatisation + pCFG learning | §4 | `gtl-template`, `gtl-grammar` |
//! | dimension prediction | §4.2.3 | `gtl-analysis` + LLM vote |
//! | template enumeration | §5 (Algorithms 1 & 2) | `gtl-search` |
//! | validation on I/O examples | §6 | `gtl-validate` |
//! | bounded verification | §7 | `gtl-verify` |
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use gtl::{LiftQuery, Stagg, StaggConfig};
//! use gtl_cfront::parse_c;
//! use gtl_oracle::SyntheticOracle;
//! use gtl_taco::parse_program;
//! use gtl_validate::{LiftTask, TaskParam, TaskParamKind};
//!
//! let source = "void dot(int n, int *x, int *y, int *out) {
//!     *out = 0;
//!     for (int i = 0; i < n; i++) *out += x[i] * y[i];
//! }";
//! let prog = parse_c(source).unwrap();
//! let query = LiftQuery {
//!     label: "dot".into(),
//!     source: source.into(),
//!     task: LiftTask {
//!         func: prog.kernel().clone(),
//!         params: vec![
//!             TaskParam { name: "n".into(), kind: TaskParamKind::Size("n".into()) },
//!             TaskParam {
//!                 name: "x".into(),
//!                 kind: TaskParamKind::ArrayIn { dims: vec!["n".into()], nonzero: false },
//!             },
//!             TaskParam {
//!                 name: "y".into(),
//!                 kind: TaskParamKind::ArrayIn { dims: vec!["n".into()], nonzero: false },
//!             },
//!             TaskParam { name: "out".into(), kind: TaskParamKind::ArrayOut { dims: vec![] } },
//!         ],
//!         output: 3,
//!         constants: vec![0],
//!         ref_program: Default::default(),
//!     },
//!     ground_truth: Some(parse_program("out = x(i) * y(i)").unwrap()),
//! };
//! // A provider mints one oracle per lift; `Stagg` can be shared.
//! let stagg = Stagg::new(Arc::new(SyntheticOracle::default()), StaggConfig::top_down());
//! let report = stagg.lift(&query);
//! assert!(report.solved());
//! assert_eq!(report.solution.unwrap().to_string(), "out = x(i) * y(i)");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod pipeline;
mod report;

pub use config::{GrammarMode, SearchMode, StaggConfig};
pub use gtl_oracle::OracleSpec;
pub use gtl_trace::{Phase, PhaseTimes};
pub use pipeline::{
    build_search_grammar, template_from_candidate, LiftHooks, LiftObserver, LiftQuery,
    SearchGrammar, Stagg,
};
pub use report::{FailureReason, LiftReport, OracleRoundStats};
