//! The TACO tensor-index-notation language: syntax, semantics, evaluation.
//!
//! This crate implements the target language of the Guided Tensor Lifting
//! paper — the TACO einsum fragment of Figure 5 — as a self-contained
//! library:
//!
//! - [`ast`] — the abstract syntax ([`TacoProgram`], [`Expr`], [`Access`]);
//! - [`lexer`] / [`parser`] — surface syntax, including the preprocessing
//!   the paper applies to raw LLM output ([`preprocess_candidate`]);
//! - a pretty printer with minimal parenthesisation (`Display` impls);
//! - [`semantics`] — einsum index classification and extent inference;
//! - [`eval`] — the reference interpreter over exact rationals
//!   ([`evaluate_interpreted`]) and the one-program entry point
//!   [`evaluate`];
//! - [`isa`] / [`batch`] — the production evaluator: a program or
//!   template is lowered once into a fixed-width micro-ISA and evaluated
//!   for many substitutions or instances ([`Lane`]s) in a single pass over
//!   a shared loop nest, with a per-lane checked `i64` fast path and an
//!   exact-rational fallback;
//! - [`canon`] — algebraic canonicalization of candidates (commutative
//!   sorting, constant folding, neutral-element elimination) and the
//!   canonical fingerprint the search tier dedups on.
//!
//! # Example: parse, analyse, evaluate
//!
//! ```
//! use gtl_taco::{evaluate, parse_program, TensorEnv};
//! use gtl_tensor::{Rat, Shape, Tensor};
//!
//! // The lifted program from the paper's running example (Fig. 2).
//! let p = parse_program("Result(i) = Mat1(i,j) * Mat2(j)").unwrap();
//!
//! let mut env = TensorEnv::new();
//! env.insert("Mat1".into(), Tensor::from_ints(Shape::new(vec![2, 3]), &[1, 2, 3, 4, 5, 6]));
//! env.insert("Mat2".into(), Tensor::from_ints(Shape::new(vec![3]), &[1, 1, 1]));
//!
//! let out = evaluate(&p, &env).unwrap();
//! assert_eq!(out.data(), &[Rat::from(6), Rat::from(15)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod batch;
pub mod canon;
pub mod codegen;
pub mod eval;
pub mod isa;
pub mod lexer;
pub mod parser;
mod printer;
pub mod semantics;

pub use ast::{
    canonical_tensor_name, Access, AccessRef, BinOp, Expr, Ident, IndexVar, NameTable, Operand,
    RhsTok, TacoProgram, TemplateRef, CANONICAL_INDICES,
};
pub use batch::{recycle, BatchKernel, GroupScratch, Lane, LaneEnv};
pub use canon::{canonical_fingerprint, canonicalize, CanonEncoder, Facts, KeySet};
pub use codegen::{generate_c, GeneratedKernel};
pub use eval::{
    evaluate, evaluate_analyzed, evaluate_interpreted, EvalCache, EvalCacheStats, EvalError,
};
pub use isa::{Encoder, Inst, IsaProgram, Opcode};
pub use parser::{parse_expr, parse_program, preprocess_candidate, ParseError};
pub use semantics::{analyze, IndexAnalysis, SemanticError, TensorEnv};
