//! Dense einsum evaluation of TACO programs over exact rationals.
//!
//! Evaluation follows TACO's semantics for the paper's grammar fragment:
//! the output element at each assignment of the *free* (LHS) indices is
//! the sum, over all assignments of the *summation* indices, of the
//! right-hand-side expression. An empty summation range produces zero.
//!
//! Two engines implement these semantics and are kept bit-for-bit
//! identical (the differential proptests enforce it):
//!
//! - the *interpreter* here ([`evaluate_interpreted`]) — a tree walker
//!   over a pre-resolved RHS with positional index bindings, the
//!   executable specification every differential test compares against;
//! - the production engine, [`crate::BatchKernel`] — the micro-ISA with a
//!   per-lane checked `i64` fast path, used by validation and
//!   verification.
//!
//! [`evaluate`] runs one program through the production engine as a
//! single lane.

use std::collections::BTreeMap;
use std::fmt;

use gtl_tensor::{Rat, RatError, Tensor};

use crate::ast::{BinOp, Expr, TacoProgram};
use crate::batch::{access_strides, BatchKernel, Lane, LaneEnv};
use crate::semantics::{analyze, IndexAnalysis, SemanticError, TensorEnv};

/// An evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Semantic analysis failed (unbound tensor, rank/extent mismatch…).
    Semantic(SemanticError),
    /// Rational arithmetic failed (division by zero or overflow).
    Arithmetic(RatError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Semantic(e) => write!(f, "semantic error: {e}"),
            EvalError::Arithmetic(e) => write!(f, "arithmetic error: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<SemanticError> for EvalError {
    fn from(e: SemanticError) -> Self {
        EvalError::Semantic(e)
    }
}

impl From<RatError> for EvalError {
    fn from(e: RatError) -> Self {
        EvalError::Arithmetic(e)
    }
}

/// The RHS with every index variable resolved to a positional loop slot
/// and every tensor access resolved to its data slice + row-major
/// strides. Built once per evaluation; the loop nest then never touches a
/// string or allocates.
enum Resolved<'a> {
    /// A tensor element read: `data[Σ counters[slot] * stride]`.
    Load {
        data: &'a [Rat],
        strides: Vec<(usize, usize)>,
    },
    Const(Rat),
    Neg(Box<Resolved<'a>>),
    Bin {
        op: BinOp,
        lhs: Box<Resolved<'a>>,
        rhs: Box<Resolved<'a>>,
    },
}

fn resolve<'a>(
    expr: &Expr,
    env: &'a TensorEnv,
    slot_of: &BTreeMap<&str, usize>,
) -> Result<Resolved<'a>, EvalError> {
    match expr {
        Expr::Access(acc) => {
            let t = env
                .get(acc.tensor.as_str())
                .ok_or_else(|| SemanticError::UnboundTensor {
                    name: acc.tensor.as_str().to_string(),
                })?;
            let strides =
                access_strides(&acc.indices, t.shape().extents(), |ix| slot_of[ix.as_str()]);
            Ok(Resolved::Load {
                data: t.data(),
                strides,
            })
        }
        Expr::Const(c) => Ok(Resolved::Const(Rat::from(*c))),
        Expr::ConstSym(_) => Err(SemanticError::Uninstantiated.into()),
        Expr::Neg(e) => Ok(Resolved::Neg(Box::new(resolve(e, env, slot_of)?))),
        Expr::Binary { op, lhs, rhs } => Ok(Resolved::Bin {
            op: *op,
            lhs: Box::new(resolve(lhs, env, slot_of)?),
            rhs: Box::new(resolve(rhs, env, slot_of)?),
        }),
    }
}

fn eval_resolved(expr: &Resolved<'_>, counters: &[usize]) -> Result<Rat, EvalError> {
    match expr {
        Resolved::Load { data, strides } => {
            let offset: usize = strides
                .iter()
                .map(|&(slot, stride)| counters[slot] * stride)
                .sum();
            Ok(data[offset])
        }
        Resolved::Const(c) => Ok(*c),
        Resolved::Neg(e) => Ok(-eval_resolved(e, counters)?),
        Resolved::Bin { op, lhs, rhs } => {
            let l = eval_resolved(lhs, counters)?;
            let r = eval_resolved(rhs, counters)?;
            let v = match op {
                BinOp::Add => l.checked_add(r)?,
                BinOp::Sub => l.checked_sub(r)?,
                BinOp::Mul => l.checked_mul(r)?,
                BinOp::Div => l.checked_div(r)?,
            };
            Ok(v)
        }
    }
}

/// Evaluates `program` under `env`, returning the output tensor.
///
/// The output shape is inferred from the extents of the LHS indices; a
/// scalar LHS yields a rank-0 tensor.
///
/// # Errors
///
/// Returns [`EvalError::Semantic`] if the program does not analyse against
/// `env`, and [`EvalError::Arithmetic`] on division by zero (the paper's
/// validator simply rejects such candidate/substitution pairs).
///
/// ```
/// use gtl_taco::{evaluate, parse_program, TensorEnv};
/// use gtl_tensor::{Rat, Shape, Tensor};
///
/// // Matrix-vector product: a(i) = b(i,j) * c(j).
/// let p = parse_program("a(i) = b(i,j) * c(j)").unwrap();
/// let mut env = TensorEnv::new();
/// env.insert("b".into(), Tensor::from_ints(Shape::new(vec![2, 2]), &[1, 2, 3, 4]));
/// env.insert("c".into(), Tensor::from_ints(Shape::new(vec![2]), &[10, 100]));
/// let out = evaluate(&p, &env).unwrap();
/// assert_eq!(out.data(), &[Rat::from(210), Rat::from(430)]);
/// ```
pub fn evaluate(program: &TacoProgram, env: &TensorEnv) -> Result<Tensor, EvalError> {
    let kernel = BatchKernel::new(program);
    if !kernel.const_slots().is_empty() {
        // A symbolic `Const` has no value to bind: fail with the first
        // error analysis finds, which is at the latest the placeholder.
        return Err(analyze(program, env)
            .err()
            .unwrap_or(SemanticError::Uninstantiated)
            .into());
    }
    let mut lane_env = LaneEnv::new();
    let ids: Vec<u32> = kernel
        .tensor_slots()
        .iter()
        .map(|name| lane_env.push(name, env.get(name)))
        .collect();
    let lane = Lane {
        tensors: &ids,
        constants: &[],
    };
    kernel
        .evaluate_lanes(&[lane], &lane_env)
        .pop()
        .expect("one result per lane")
}

/// Evaluates `program` with the reference tree-walking interpreter.
///
/// This is the executable specification the production engine
/// ([`evaluate`], [`crate::BatchKernel`]) is tested against.
///
/// # Errors
///
/// Exactly as [`evaluate`].
pub fn evaluate_interpreted(program: &TacoProgram, env: &TensorEnv) -> Result<Tensor, EvalError> {
    let analysis = analyze(program, env)?;
    evaluate_analyzed(program, env, &analysis)
}

/// Evaluates with a pre-computed [`IndexAnalysis`], for callers that
/// evaluate the same program against many environments of identical shape.
pub fn evaluate_analyzed(
    program: &TacoProgram,
    env: &TensorEnv,
    analysis: &IndexAnalysis,
) -> Result<Tensor, EvalError> {
    // Positional bindings: output indices take slots 0..n_out (a repeated
    // LHS index keeps its *last* slot, preserving the historical
    // insert-overwrite semantics), summation indices follow.
    let mut slot_of: BTreeMap<&str, usize> = BTreeMap::new();
    for (slot, ix) in analysis.output.iter().enumerate() {
        slot_of.insert(ix.as_str(), slot);
    }
    let n_out = analysis.output.len();
    for (i, ix) in analysis.summation.iter().enumerate() {
        slot_of.insert(ix.as_str(), n_out + i);
    }
    let resolved = resolve(&program.rhs, env, &slot_of)?;

    let out_shape = analysis.output_shape();
    let mut extents: Vec<usize> = out_shape.extents().to_vec();
    extents.extend(analysis.summation.iter().map(|ix| analysis.extents[ix]));
    let sum_iters: usize = extents[n_out..].iter().product();

    let mut out = vec![Rat::ZERO; out_shape.len()];
    let mut counters = vec![0usize; extents.len()];
    for cell in out.iter_mut() {
        for c in &mut counters[n_out..] {
            *c = 0;
        }
        let mut acc = Rat::ZERO;
        for _ in 0..sum_iters {
            acc = acc.checked_add(eval_resolved(&resolved, &counters)?)?;
            for slot in (n_out..counters.len()).rev() {
                counters[slot] += 1;
                if counters[slot] < extents[slot] {
                    break;
                }
                counters[slot] = 0;
            }
        }
        *cell = acc;
        for slot in (0..n_out).rev() {
            counters[slot] += 1;
            if counters[slot] < extents[slot] {
                break;
            }
            counters[slot] = 0;
        }
    }
    Ok(Tensor::from_data(out_shape, out).expect("output length matches shape"))
}

/// An empty type: evaluation caches nothing, and every `_cached` entry
/// point in `gtl_validate` and `gtl_verify` ignores its `&EvalCache`
/// argument. The name is kept only because the benchmark in
/// `perfbench/` builds one and reads its [`EvalCache::stats`].
#[derive(Debug, Default)]
pub struct EvalCache;

impl EvalCache {
    /// Always zero hits and zero misses.
    pub fn stats(&self) -> EvalCacheStats {
        EvalCacheStats::default()
    }
}

/// The counters of an [`EvalCache`]; both always read 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCacheStats {
    /// Lookups answered from the cache (always 0).
    pub hits: u64,
    /// Lookups that missed (always 0).
    pub misses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use gtl_tensor::Shape;

    fn env(entries: &[(&str, Shape, &[i64])]) -> TensorEnv {
        let mut e = TensorEnv::new();
        for (name, shape, data) in entries {
            e.insert(name.to_string(), Tensor::from_ints(shape.clone(), data));
        }
        e
    }

    #[test]
    fn dot_product() {
        let p = parse_program("a = b(i) * c(i)").unwrap();
        let e = env(&[
            ("b", Shape::new(vec![3]), &[1, 2, 3]),
            ("c", Shape::new(vec![3]), &[4, 5, 6]),
        ]);
        let out = evaluate(&p, &e).unwrap();
        assert_eq!(*out.as_scalar(), Rat::from(32));
    }

    #[test]
    fn gemm() {
        // a(i,j) = b(i,k) * c(k,j) over 2x2.
        let p = parse_program("a(i,j) = b(i,k) * c(k,j)").unwrap();
        let e = env(&[
            ("b", Shape::new(vec![2, 2]), &[1, 2, 3, 4]),
            ("c", Shape::new(vec![2, 2]), &[5, 6, 7, 8]),
        ]);
        let out = evaluate(&p, &e).unwrap();
        assert_eq!(
            out.data(),
            &[
                Rat::from(19),
                Rat::from(22),
                Rat::from(43),
                Rat::from(50)
            ]
        );
    }

    #[test]
    fn elementwise_add() {
        let p = parse_program("a(i) = b(i) + c(i)").unwrap();
        let e = env(&[
            ("b", Shape::new(vec![2]), &[1, 2]),
            ("c", Shape::new(vec![2]), &[10, 20]),
        ]);
        let out = evaluate(&p, &e).unwrap();
        assert_eq!(out.data(), &[Rat::from(11), Rat::from(22)]);
    }

    #[test]
    fn sum_distributes_over_non_product() {
        // a = b(i) + c(j): einsum sums the whole expression over i and j.
        // With b = [1,2], c = [10,20]: sum over i,j of b_i + c_j
        // = (1+10)+(1+20)+(2+10)+(2+20) = 66.
        let p = parse_program("a = b(i) + c(j)").unwrap();
        let e = env(&[
            ("b", Shape::new(vec![2]), &[1, 2]),
            ("c", Shape::new(vec![2]), &[10, 20]),
        ]);
        let out = evaluate(&p, &e).unwrap();
        assert_eq!(*out.as_scalar(), Rat::from(66));
    }

    #[test]
    fn constant_scaling() {
        let p = parse_program("a(i) = b(i) * 3").unwrap();
        let e = env(&[("b", Shape::new(vec![2]), &[1, 2])]);
        let out = evaluate(&p, &e).unwrap();
        assert_eq!(out.data(), &[Rat::from(3), Rat::from(6)]);
    }

    #[test]
    fn division_by_zero_reported() {
        let p = parse_program("a(i) = b(i) / c(i)").unwrap();
        let e = env(&[
            ("b", Shape::new(vec![2]), &[1, 2]),
            ("c", Shape::new(vec![2]), &[1, 0]),
        ]);
        assert!(matches!(
            evaluate(&p, &e),
            Err(EvalError::Arithmetic(RatError::DivisionByZero))
        ));
    }

    #[test]
    fn ttv() {
        // a(i,j) = b(i,j,k) * c(k): tensor-times-vector.
        let p = parse_program("a(i,j) = b(i,j,k) * c(k)").unwrap();
        let e = env(&[
            (
                "b",
                Shape::new(vec![2, 2, 2]),
                &[1, 2, 3, 4, 5, 6, 7, 8],
            ),
            ("c", Shape::new(vec![2]), &[1, 10]),
        ]);
        let out = evaluate(&p, &e).unwrap();
        assert_eq!(
            out.data(),
            &[
                Rat::from(21),
                Rat::from(43),
                Rat::from(65),
                Rat::from(87)
            ]
        );
    }

    #[test]
    fn mttkrp() {
        // a(i,j) = b(i,k,l) * c(k,j) * d(l,j): the MTTKRP kernel.
        let p = parse_program("a(i,j) = b(i,k,l) * c(k,j) * d(l,j)").unwrap();
        let e = env(&[
            ("b", Shape::new(vec![1, 2, 2]), &[1, 2, 3, 4]),
            ("c", Shape::new(vec![2, 1]), &[5, 6]),
            ("d", Shape::new(vec![2, 1]), &[7, 8]),
        ]);
        let out = evaluate(&p, &e).unwrap();
        // Sum over k,l: b[0,k,l]*c[k,0]*d[l,0]
        // = 1*5*7 + 2*5*8 + 3*6*7 + 4*6*8 = 35 + 80 + 126 + 192 = 433.
        assert_eq!(out.data(), &[Rat::from(433)]);
    }

    #[test]
    fn scalar_output_empty_summation() {
        let p = parse_program("a = b(i)").unwrap();
        let e = env(&[("b", Shape::new(vec![0]), &[])]);
        let out = evaluate(&p, &e).unwrap();
        assert_eq!(*out.as_scalar(), Rat::ZERO);
    }

    #[test]
    fn negation_in_expr() {
        let p = parse_program("a(i) = -b(i) + c(i)").unwrap();
        let e = env(&[
            ("b", Shape::new(vec![2]), &[1, 2]),
            ("c", Shape::new(vec![2]), &[10, 20]),
        ]);
        let out = evaluate(&p, &e).unwrap();
        assert_eq!(out.data(), &[Rat::from(9), Rat::from(18)]);
    }

    #[test]
    fn reuse_analysis() {
        let p = parse_program("a(i) = b(i,j) * c(j)").unwrap();
        let e1 = env(&[
            ("b", Shape::new(vec![2, 2]), &[1, 0, 0, 1]),
            ("c", Shape::new(vec![2]), &[3, 4]),
        ]);
        let analysis = analyze(&p, &e1).unwrap();
        let out = evaluate_analyzed(&p, &e1, &analysis).unwrap();
        assert_eq!(out.data(), &[Rat::from(3), Rat::from(4)]);
    }
}
