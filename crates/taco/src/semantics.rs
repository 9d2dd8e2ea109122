//! Semantic analysis of TACO programs: index classification and extent
//! inference.
//!
//! TACO uses einsum notation: index variables appearing on the right-hand
//! side but not the left are implicitly summed over. Before a program can
//! be evaluated we must (1) check that every tensor is bound with a rank
//! matching its access, (2) infer one consistent extent per index
//! variable, and (3) check the left-hand side only uses indices whose
//! extent is determined by the right-hand side.

use std::collections::BTreeMap;
use std::fmt;

use gtl_tensor::{Shape, Tensor};

use crate::ast::{Expr, IndexVar, TacoProgram};

/// A binding of tensor names to concrete tensors for evaluation.
pub type TensorEnv = BTreeMap<String, Tensor>;

/// A semantic error found while analysing a TACO program against an
/// environment of tensor shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemanticError {
    /// A tensor used in the program has no binding.
    UnboundTensor {
        /// The missing tensor name.
        name: String,
    },
    /// An access has a different number of indices than the bound
    /// tensor's rank.
    RankMismatch {
        /// The tensor name.
        name: String,
        /// Rank implied by the access.
        access_rank: usize,
        /// Rank of the bound tensor.
        bound_rank: usize,
    },
    /// An index variable is used against dimensions of different extents.
    ExtentMismatch {
        /// The index variable.
        index: String,
        /// The first extent observed.
        first: usize,
        /// The conflicting extent.
        second: usize,
    },
    /// A left-hand-side index does not appear on the right-hand side, so
    /// its extent cannot be inferred.
    UnconstrainedOutputIndex {
        /// The offending index variable.
        index: String,
    },
    /// A symbolic template placeholder (`Const` or a symbolic tensor) was
    /// evaluated without instantiation.
    Uninstantiated,
}

impl fmt::Display for SemanticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemanticError::UnboundTensor { name } => write!(f, "tensor `{name}` is not bound"),
            SemanticError::RankMismatch {
                name,
                access_rank,
                bound_rank,
            } => write!(
                f,
                "tensor `{name}` accessed with {access_rank} indices but has rank {bound_rank}"
            ),
            SemanticError::ExtentMismatch {
                index,
                first,
                second,
            } => write!(
                f,
                "index `{index}` ranges over conflicting extents {first} and {second}"
            ),
            SemanticError::UnconstrainedOutputIndex { index } => write!(
                f,
                "output index `{index}` does not appear on the right-hand side"
            ),
            SemanticError::Uninstantiated => {
                write!(f, "program contains uninstantiated template symbols")
            }
        }
    }
}

impl std::error::Error for SemanticError {}

/// The result of semantic analysis: a consistent extent for every index
/// variable plus the classified index sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexAnalysis {
    /// Extent of each index variable.
    pub extents: BTreeMap<IndexVar, usize>,
    /// Output (free) indices, in LHS order.
    pub output: Vec<IndexVar>,
    /// Summation indices, in order of first appearance on the RHS.
    pub summation: Vec<IndexVar>,
}

impl IndexAnalysis {
    /// The shape of the output tensor implied by the analysis.
    pub fn output_shape(&self) -> Shape {
        Shape::new(
            self.output
                .iter()
                .map(|ix| self.extents[ix])
                .collect::<Vec<_>>(),
        )
    }
}

fn record_extent(
    extents: &mut BTreeMap<IndexVar, usize>,
    ix: &IndexVar,
    extent: usize,
) -> Result<(), SemanticError> {
    match extents.get(ix) {
        Some(&e) if e != extent => Err(SemanticError::ExtentMismatch {
            index: ix.as_str().to_string(),
            first: e,
            second: extent,
        }),
        Some(_) => Ok(()),
        None => {
            extents.insert(ix.clone(), extent);
            Ok(())
        }
    }
}

fn analyze_expr(
    expr: &Expr,
    env: &TensorEnv,
    extents: &mut BTreeMap<IndexVar, usize>,
) -> Result<(), SemanticError> {
    match expr {
        Expr::Access(acc) => {
            let t = env
                .get(acc.tensor.as_str())
                .ok_or_else(|| SemanticError::UnboundTensor {
                    name: acc.tensor.as_str().to_string(),
                })?;
            if t.rank() != acc.indices.len() {
                return Err(SemanticError::RankMismatch {
                    name: acc.tensor.as_str().to_string(),
                    access_rank: acc.indices.len(),
                    bound_rank: t.rank(),
                });
            }
            for (ix, &extent) in acc.indices.iter().zip(t.shape().extents()) {
                record_extent(extents, ix, extent)?;
            }
            Ok(())
        }
        Expr::Const(_) => Ok(()),
        Expr::ConstSym(_) => Err(SemanticError::Uninstantiated),
        Expr::Neg(e) => analyze_expr(e, env, extents),
        Expr::Binary { lhs, rhs, .. } => {
            analyze_expr(lhs, env, extents)?;
            analyze_expr(rhs, env, extents)
        }
    }
}

/// Runs semantic analysis of `program` against the tensor bindings of the
/// *right-hand side*. The LHS tensor needs no binding (it is defined by
/// the program), but every LHS index must be constrained by the RHS.
///
/// ```
/// use gtl_taco::{analyze, parse_program, TensorEnv};
/// use gtl_tensor::{Shape, Tensor};
///
/// let p = parse_program("a(i) = b(i,j) * c(j)").unwrap();
/// let mut env = TensorEnv::new();
/// env.insert("b".into(), Tensor::from_ints(Shape::new(vec![2, 3]), &[1, 2, 3, 4, 5, 6]));
/// env.insert("c".into(), Tensor::from_ints(Shape::new(vec![3]), &[1, 0, 1]));
/// let analysis = analyze(&p, &env).unwrap();
/// assert_eq!(analysis.output_shape(), Shape::new(vec![2]));
/// assert_eq!(analysis.summation.len(), 1);
/// ```
pub fn analyze(program: &TacoProgram, env: &TensorEnv) -> Result<IndexAnalysis, SemanticError> {
    let mut extents = BTreeMap::new();
    analyze_expr(&program.rhs, env, &mut extents)?;
    for ix in &program.lhs.indices {
        if !extents.contains_key(ix) {
            return Err(SemanticError::UnconstrainedOutputIndex {
                index: ix.as_str().to_string(),
            });
        }
    }
    let output = program.lhs.indices.clone();
    let summation = program.summation_indices();
    Ok(IndexAnalysis {
        extents,
        output,
        summation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use gtl_tensor::{Shape, Tensor};

    fn env2x3() -> TensorEnv {
        let mut env = TensorEnv::new();
        env.insert(
            "b".into(),
            Tensor::from_ints(Shape::new(vec![2, 3]), &[1, 2, 3, 4, 5, 6]),
        );
        env.insert(
            "c".into(),
            Tensor::from_ints(Shape::new(vec![3]), &[7, 8, 9]),
        );
        env
    }

    #[test]
    fn classifies_indices() {
        let p = parse_program("a(i) = b(i,j) * c(j)").unwrap();
        let a = analyze(&p, &env2x3()).unwrap();
        assert_eq!(a.output, vec![IndexVar::new("i")]);
        assert_eq!(a.summation, vec![IndexVar::new("j")]);
        assert_eq!(a.extents[&IndexVar::new("i")], 2);
        assert_eq!(a.extents[&IndexVar::new("j")], 3);
    }

    #[test]
    fn unbound_tensor() {
        let p = parse_program("a(i) = z(i)").unwrap();
        assert!(matches!(
            analyze(&p, &env2x3()),
            Err(SemanticError::UnboundTensor { .. })
        ));
    }

    #[test]
    fn rank_mismatch() {
        let p = parse_program("a(i) = b(i)").unwrap();
        assert!(matches!(
            analyze(&p, &env2x3()),
            Err(SemanticError::RankMismatch { .. })
        ));
    }

    #[test]
    fn extent_mismatch() {
        // b is 2x3; using j for both dimensions conflicts.
        let p = parse_program("a = b(j,j)").unwrap();
        assert!(matches!(
            analyze(&p, &env2x3()),
            Err(SemanticError::ExtentMismatch { .. })
        ));
    }

    #[test]
    fn unconstrained_output_index() {
        let p = parse_program("a(k) = b(i,j)").unwrap();
        assert!(matches!(
            analyze(&p, &env2x3()),
            Err(SemanticError::UnconstrainedOutputIndex { .. })
        ));
    }

    #[test]
    fn diagonal_access_with_square_matrix() {
        let mut env = TensorEnv::new();
        env.insert(
            "b".into(),
            Tensor::from_ints(Shape::new(vec![2, 2]), &[1, 2, 3, 4]),
        );
        let p = parse_program("a = b(i,i)").unwrap();
        let a = analyze(&p, &env).unwrap();
        assert_eq!(a.extents[&IndexVar::new("i")], 2);
        assert_eq!(a.output_shape(), Shape::scalar());
    }

    #[test]
    fn uninstantiated_template_errors() {
        let p = parse_program("a = b(i) * Const").unwrap();
        let mut env = TensorEnv::new();
        env.insert("b".into(), Tensor::from_ints(Shape::new(vec![2]), &[1, 2]));
        assert_eq!(analyze(&p, &env), Err(SemanticError::Uninstantiated));
    }
}
