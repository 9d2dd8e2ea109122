//! The two template-space search algorithms of the paper (§5).
//!
//! - [`top_down_search`] — Algorithm 1: weighted A\* over partial
//!   derivation trees of the refined top-down grammar, with penalty
//!   functions a1–a5;
//! - [`bottom_up_search`] — Algorithm 2: A\*-guided bottom-up chain
//!   construction over the tail grammar, with `RemoveTail` validation and
//!   penalties b1–b2.
//!
//! Both algorithms are driven by `f(x) = c(x) + g(x) + X(x)` where `c`
//! accumulates rule costs `-log2 P`, `g` estimates completion cost, and
//! `X` penalises syntactic-constraint violations. Complete templates are
//! handed to a [`TemplateChecker`] (the validation + verification stages
//! of §6/§7); the first verified template wins.
//!
//! # Example
//!
//! ```
//! use gtl_search::*;
//! use gtl_taco::{parse_program, TacoProgram};
//! use gtl_template::{generate_td_grammar, learn_weights, templatize, TdSpec};
//!
//! // A grammar learned from two LLM-style candidates.
//! let cands: Vec<_> = ["r(i) = m(i,j) * v(j)", "r(i) = m(j,i) * v(i)"]
//!     .iter()
//!     .map(|s| templatize(&parse_program(s).unwrap()).unwrap())
//!     .collect();
//! let mut g = generate_td_grammar(&TdSpec {
//!     dim_list: vec![1, 2, 1],
//!     n_indices: 2,
//!     allow_repeated_index: false,
//!     include_const: false,
//! });
//! learn_weights(&mut g, &cands);
//!
//! let ctx = PenaltyContext {
//!     dim_list: g.dim_list.clone(),
//!     grammar_has_const: g.nts.constant.is_some(),
//!     live_ops: g.live_ops(),
//!     settings: PenaltySettings::all(),
//! };
//! // A toy checker accepting the known answer.
//! let want = parse_program("a(i) = b(i,j) * c(j)").unwrap();
//! let mut checker = move |t: &TacoProgram| {
//!     if *t == want { CheckOutcome::Verified(t.clone()) } else { CheckOutcome::Failed }
//! };
//! let out = top_down_search(&g, &ctx, SearchBudget::default(), &mut checker);
//! assert!(out.solved());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bottomup;
mod driver;
mod frontier;
pub mod node;
mod penalty;
mod topdown;

pub use bottomup::{bottom_up_search, bottom_up_search_hooked};
pub use driver::{
    CancelFlag, CheckOutcome, SearchBudget, SearchHooks, SearchOutcome, SearchProgress,
    StopReason, TemplateChecker,
};
pub use penalty::{bu_penalty, td_penalty, PenaltyContext, PenaltySettings};
pub use topdown::{top_down_search, top_down_search_hooked};
