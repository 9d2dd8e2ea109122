//! Differential property tests against the reference interpreter
//! ([`evaluate_interpreted`]) over randomly generated concrete TACO
//! programs:
//!
//! - the C code generator (`codegen.rs`) must agree with it — the
//!   generated kernel is parsed back by the workspace's C front end and
//!   executed by the rational interpreter on the same random inputs;
//! - the production evaluator ([`evaluate`], a single-lane
//!   `BatchKernel`) must agree with it bit for bit, including the
//!   `EvalError` classification, over adversarial value profiles and a
//!   fixed table of boundary cases.
//!
//! This closes the evaluator/codegen loop the suite-wide
//! `codegen_roundtrip` integration test exercises for the 77 ground
//! truths, but over the *open* program space the search can emit.

use std::collections::BTreeMap;

use gtl_cfront::{parse_c, run_kernel, ArgValue};
use gtl_taco::{
    analyze, evaluate, evaluate_interpreted, generate_c, parse_program, Access, BinOp, EvalError,
    Expr, SemanticError, TacoProgram, TensorEnv,
};
use gtl_tensor::{Rat, RatError, Shape, Tensor, TensorGen};
use proptest::prelude::*;

/// Fixed, pairwise-distinct extents: aliasing shapes (e.g. a tensor used
/// both as `b(i,j)` and `b(j,i)`) then fail `analyze` and the case is
/// skipped instead of comparing against an ill-formed kernel.
fn extent_of(ix: &str) -> usize {
    match ix {
        "i" => 2,
        "j" => 3,
        "k" => 4,
        _ => 5,
    }
}

fn arb_rhs_access() -> impl Strategy<Value = Access> {
    let idx = prop::sample::select(vec!["i", "j", "k", "l"]);
    // Rank 0–3: rank-3 accesses reach the batch engine's 3-deep
    // summation nests and the unrolled 3-load product path (MTTKRP).
    (
        prop::sample::select(vec!["b", "c", "d", "e"]),
        prop::collection::vec(idx, 0..4),
    )
        .prop_map(|(name, indices)| Access {
            tensor: name.into(),
            indices: indices.into_iter().map(Into::into).collect(),
        })
}

/// LHS accesses use distinct free indices (a repeated output index is
/// not a dense einsum output).
fn arb_lhs_access() -> impl Strategy<Value = Access> {
    prop::sample::select(vec![
        vec![],
        vec!["i"],
        vec!["j"],
        vec!["i", "j"],
        vec!["j", "k"],
    ])
    .prop_map(|indices| Access {
        tensor: "a".into(),
        indices: indices.into_iter().map(Into::into).collect(),
    })
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_rhs_access().prop_map(Expr::Access),
        (1i64..9).prop_map(Expr::Const),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (
                prop::sample::select(BinOp::ALL.to_vec()),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::binary(op, l, r)),
            inner.prop_map(|e| Expr::Neg(Box::new(e))),
        ]
    })
}

fn arb_program() -> impl Strategy<Value = TacoProgram> {
    (arb_lhs_access(), arb_expr()).prop_map(|(lhs, rhs)| TacoProgram::new(lhs, rhs))
}

/// Builds the input environment, or `None` when the program constrains
/// one tensor to two different shapes.
fn build_env(p: &TacoProgram, seed: u64) -> Option<TensorEnv> {
    let mut shapes: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for acc in p.rhs.accesses() {
        let extents: Vec<usize> = acc
            .indices
            .iter()
            .map(|ix| extent_of(ix.as_str()))
            .collect();
        match shapes.get(acc.tensor.as_str()) {
            Some(prev) if *prev != extents => return None,
            _ => {
                shapes.insert(acc.tensor.as_str().to_string(), extents);
            }
        }
    }
    let mut gen = TensorGen::new(seed);
    let mut env = TensorEnv::new();
    for (name, extents) in shapes {
        env.insert(name, gen.int_tensor(Shape::new(extents), -5, 5));
    }
    Some(env)
}

/// Adversarial value profiles for the evaluate-vs-interpreter
/// differential: each stresses a different arithmetic regime of the
/// production engine.
#[derive(Debug, Clone, Copy)]
enum ValueProfile {
    /// Small integers: the pure `i64` fast path.
    SmallInts,
    /// Values near ±3·10¹⁸: any product overflows `i64` (forcing the
    /// per-cell exact-rational fallback) and deep products overflow
    /// `i128` (forcing identical `RatError::Overflow` classification).
    HugeInts,
    /// `{-1, 0, 1}`: zero-rich, so `/` draws hit division by zero.
    TinyWithZeros,
    /// Non-integer rationals: the fast path must bail at conversion and
    /// run the exact engine end to end.
    Fractions,
}

fn arb_profile() -> impl Strategy<Value = ValueProfile> {
    prop::sample::select(vec![
        ValueProfile::SmallInts,
        ValueProfile::HugeInts,
        ValueProfile::TinyWithZeros,
        ValueProfile::Fractions,
    ])
}

/// Builds an environment with the given adversarial value profile, or
/// `None` when the program constrains one tensor to two shapes.
fn build_env_with(p: &TacoProgram, seed: u64, profile: ValueProfile) -> Option<TensorEnv> {
    let base = build_env(p, seed)?; // small ints in [-5, 5]
    let scale = |r: &Rat| match profile {
        ValueProfile::SmallInts => *r,
        ValueProfile::HugeInts => *r * Rat::from(600_000_000_000_000_000i64),
        ValueProfile::TinyWithZeros => {
            // Fold [-5, 5] onto {-1, 0, 1}.
            Rat::from(r.numer().clamp(-1, 1) as i64)
        }
        ValueProfile::Fractions => *r / Rat::from(3),
    };
    Some(
        base.into_iter()
            .map(|(name, t)| (name, t.map(scale)))
            .collect(),
    )
}

proptest! {
    /// The generated C kernel computes exactly what the interpreter does.
    #[test]
    fn generated_c_agrees_with_evaluator(p in arb_program(), seed in 0u64..100_000) {
        let Some(env) = build_env(&p, seed) else { return Ok(()); };
        // The interpreter is the reference; programs it rejects (index
        // aliasing, extent conflicts, division by zero on this draw) are
        // outside the comparison.
        let Ok(expected) = evaluate_interpreted(&p, &env) else { return Ok(()); };
        let Ok(analysis) = analyze(&p, &env) else { return Ok(()); };

        let kernel = generate_c(&p, "fuzzed");
        let program = parse_c(&kernel.source).unwrap_or_else(|e| {
            panic!("generated C fails to parse: {e}\nfor {p}\n{}", kernel.source)
        });

        let mut args: Vec<ArgValue> = Vec::new();
        for iv in &kernel.size_params {
            let extent = analysis.extents[&iv.as_str().into()];
            args.push(ArgValue::Scalar(Rat::from(extent as i64)));
        }
        for t in &kernel.tensor_params {
            args.push(ArgValue::Array(env[t].data().to_vec()));
        }
        args.push(ArgValue::Array(vec![Rat::ZERO; expected.shape().len()]));

        let result = run_kernel(program.kernel(), args).unwrap_or_else(|e| {
            panic!("generated C failed to run: {e}\nfor {p}\n{}", kernel.source)
        });
        let got = result.arrays.last().expect("output array");
        prop_assert_eq!(
            got.as_slice(),
            expected.data(),
            "codegen disagrees with evaluator for {}\n{}",
            p,
            kernel.source
        );
    }

    /// Lowering is deterministic: the same program yields the same C.
    #[test]
    fn lowering_is_deterministic(p in arb_program()) {
        let a = generate_c(&p, "det");
        let b = generate_c(&p, "det");
        prop_assert_eq!(a.source, b.source);
        prop_assert_eq!(a.size_params, b.size_params);
        prop_assert_eq!(a.tensor_params, b.tensor_params);
    }

    /// The production evaluator agrees with the reference interpreter on
    /// every random program × shape × adversarial environment — including
    /// the exact `EvalError` classification (semantic errors, division by
    /// zero, `i128` overflow) and across the `i64`-fast-path/rational
    /// fallback boundary.
    #[test]
    fn evaluate_agrees_with_interpreter(
        p in arb_program(),
        seed in 0u64..100_000,
        profile in arb_profile(),
    ) {
        let Some(env) = build_env_with(&p, seed, profile) else { return Ok(()); };
        prop_assert_eq!(
            &evaluate(&p, &env),
            &evaluate_interpreted(&p, &env),
            "evaluate diverges from the interpreter for {} under {:?}",
            p, profile
        );
    }
}

/// One fixed case: what it exercises, the program, its inputs, and the
/// interpreter's result (output data or error).
type FixedCase = (
    &'static str,
    &'static str,
    Vec<(&'static str, Tensor)>,
    Result<Vec<Rat>, EvalError>,
);

/// Fixed boundary cases, independent of the random stream: each names a
/// regime of the production engine and the result the interpreter gives
/// for it, and `evaluate` must return exactly that.
#[test]
fn evaluate_matches_interpreter_on_fixed_cases() {
    let big = 3_000_000_000_000_000_000i64;
    let fracs =
        Tensor::from_data(Shape::new(vec![2]), vec![Rat::new(1, 2), Rat::new(1, 3)]).unwrap();
    let square = || Tensor::from_ints(Shape::new(vec![2, 2]), &[1, 2, 3, 4]);
    let unbound_z = || {
        Err(EvalError::Semantic(SemanticError::UnboundTensor {
            name: "z".into(),
        }))
    };
    let cases: Vec<FixedCase> = vec![
        (
            // Extent-2 summation enters the i64 fast path; big² then
            // overflows i64 but fits i128, so the cell is redone exactly.
            "i64 overflow falls back to exact",
            "a = b(i) * c(i)",
            vec![("b", vec_tensor(&[big, 2])), ("c", vec_tensor(&[big, 3]))],
            Ok(vec![Rat::new(big as i128 * big as i128 + 6, 1)]),
        ),
        (
            "i128 overflow is an arithmetic error",
            "a = b(i) * b(i) * b(i) * b(i)",
            vec![("b", vec_tensor(&[big, big]))],
            Err(EvalError::Arithmetic(RatError::Overflow)),
        ),
        (
            "division by zero",
            "a(i) = b(i) / c(i)",
            vec![("b", vec_tensor(&[1, 2])), ("c", vec_tensor(&[1, 0]))],
            Err(EvalError::Arithmetic(RatError::DivisionByZero)),
        ),
        (
            "division runs exact",
            "a(i) = b(i) / c(i)",
            vec![("b", vec_tensor(&[1, 3])), ("c", vec_tensor(&[2, 4]))],
            Ok(vec![Rat::new(1, 2), Rat::new(3, 4)]),
        ),
        (
            "non-integer inputs run exact",
            "a = b(i) * c(i)",
            vec![("b", fracs), ("c", vec_tensor(&[6, 6]))],
            Ok(vec![Rat::from(5)]),
        ),
        (
            "empty summation yields zero",
            "a = b(i)",
            vec![("b", vec_tensor(&[]))],
            Ok(vec![Rat::ZERO]),
        ),
        (
            "repeated index reads the diagonal",
            "a = b(i,i)",
            vec![("b", square())],
            Ok(vec![Rat::from(5)]),
        ),
        (
            "unbound tensor",
            "a(i) = z(i)",
            vec![("b", vec_tensor(&[1, 2]))],
            unbound_z(),
        ),
        (
            "rank mismatch",
            "a(i) = b(i)",
            vec![("b", square())],
            Err(EvalError::Semantic(SemanticError::RankMismatch {
                name: "b".into(),
                access_rank: 1,
                bound_rank: 2,
            })),
        ),
        (
            "uninstantiated constant",
            "a(i) = b(i) * Const",
            vec![("b", vec_tensor(&[1, 2]))],
            Err(EvalError::Semantic(SemanticError::Uninstantiated)),
        ),
        (
            // Analysis reports the first failure in RHS order, so an
            // unbound tensor before the placeholder wins.
            "unbound tensor before an uninstantiated constant",
            "a(i) = z(i) * Const",
            vec![("b", vec_tensor(&[1, 2]))],
            unbound_z(),
        ),
    ];
    for (what, src, tensors, want) in cases {
        let p = parse_program(src).unwrap();
        let env: TensorEnv = tensors
            .into_iter()
            .map(|(n, t)| (n.to_string(), t))
            .collect();
        let interpreted = evaluate_interpreted(&p, &env);
        assert_eq!(
            interpreted
                .as_ref()
                .map(|t| t.data().to_vec())
                .map_err(Clone::clone),
            want,
            "{what}: interpreter"
        );
        assert_eq!(evaluate(&p, &env), interpreted, "{what}: evaluate");
    }
}

fn vec_tensor(data: &[i64]) -> Tensor {
    Tensor::from_ints(Shape::new(vec![data.len()]), data)
}

/// A fixed regression pair, so a failure here is independent of the
/// random stream.
#[test]
fn known_program_agrees() {
    let p = parse_program("a(i) = b(i,j) * c(j) + 2").unwrap();
    let env = build_env(&p, 7).unwrap();
    let expected = evaluate_interpreted(&p, &env).unwrap();
    let analysis = analyze(&p, &env).unwrap();
    let kernel = generate_c(&p, "known");
    let program = parse_c(&kernel.source).unwrap();
    let mut args: Vec<ArgValue> = Vec::new();
    for iv in &kernel.size_params {
        args.push(ArgValue::Scalar(Rat::from(
            analysis.extents[&iv.as_str().into()] as i64,
        )));
    }
    for t in &kernel.tensor_params {
        args.push(ArgValue::Array(env[t].data().to_vec()));
    }
    args.push(ArgValue::Array(vec![Rat::ZERO; expected.shape().len()]));
    let result = run_kernel(program.kernel(), args).unwrap();
    assert_eq!(result.arrays.last().unwrap().as_slice(), expected.data());
}
