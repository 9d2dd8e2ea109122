//! Differential property test for the production evaluator: evaluating
//! many substitutions of one template through [`BatchKernel`] must be
//! bit-identical — values *and* per-lane [`EvalError`] classification —
//! to substituting each lane into the template and running the reference
//! interpreter, [`evaluate_interpreted`].
//!
//! Lanes are drawn in the batch widths the validator and verifier
//! actually use (1, 2, 8 and 64), over adversarial value profiles: huge
//! integers that overflow the `i64` fast path mid-sweep, zero-rich
//! inputs that hit division by zero, and non-integer rationals that
//! defeat the fast path at conversion. Lanes also bind wrong-rank and
//! missing tensors, so semantic-error classification is compared too.

use std::collections::HashMap;

use gtl_taco::{
    evaluate_interpreted, Access, BatchKernel, BinOp, EvalError, Expr, Lane, LaneEnv,
    TacoProgram, TensorEnv,
};
use gtl_tensor::{Rat, Shape, Tensor, TensorGen};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Fixed, pairwise-distinct extents (as in the codegen differential).
fn extent_of(ix: &str) -> usize {
    match ix {
        "i" => 2,
        "j" => 3,
        _ => 4,
    }
}

/// RHS accesses over *slot* names: the template names `s0`–`s2` are
/// placeholders a lane rebinds to concrete tensors.
fn arb_slot_access() -> impl Strategy<Value = Access> {
    let idx = prop::sample::select(vec!["i", "j", "k"]);
    // Rank 0–3: rank-3 accesses reach the 3-deep summation nests and
    // the unrolled 3-load product path.
    (
        prop::sample::select(vec!["s0", "s1", "s2"]),
        prop::collection::vec(idx, 0..4),
    )
        .prop_map(|(name, indices)| Access {
            tensor: name.into(),
            indices: indices.into_iter().map(Into::into).collect(),
        })
}

fn arb_lhs_access() -> impl Strategy<Value = Access> {
    prop::sample::select(vec![vec![], vec!["i"], vec!["j"], vec!["i", "j"]]).prop_map(|indices| {
        Access {
            tensor: "a".into(),
            indices: indices.into_iter().map(Into::into).collect(),
        }
    })
}

fn arb_template() -> impl Strategy<Value = TacoProgram> {
    let leaf = prop_oneof![
        arb_slot_access().prop_map(Expr::Access),
        (1i64..9).prop_map(Expr::Const),
        (0u32..3).prop_map(Expr::ConstSym),
    ];
    let rhs = leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (
                prop::sample::select(BinOp::ALL.to_vec()),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::binary(op, l, r)),
            inner.prop_map(|e| Expr::Neg(Box::new(e))),
        ]
    });
    (arb_lhs_access(), rhs).prop_map(|(lhs, rhs)| TacoProgram::new(lhs, rhs))
}

/// Adversarial value profiles, mirroring the codegen differential: each
/// stresses a different arithmetic regime of the batch sweeps.
#[derive(Debug, Clone, Copy)]
enum ValueProfile {
    /// Small integers: the pure `i64` fast path, no demotions.
    SmallInts,
    /// Values near ±3·10¹⁸: products overflow `i64` (demoting single
    /// lanes to the exact sweep) and deep products overflow `i128`
    /// (identical `RatError::Overflow` classification per lane).
    HugeInts,
    /// `{-1, 0, 1}`: zero-rich, so `/` draws hit division by zero.
    TinyWithZeros,
    /// Non-integer rationals: the fast path must bail at conversion.
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

/// Constant-slot values a lane may bind, including overflow fodder.
const CONST_POOL: &[i64] = &[0, 1, -3, 7, 600_000_000_000_000_000, -600_000_000_000_000_000];

/// A tiny deterministic generator for lane bindings (xorshift64), so a
/// failing case replays from the proptest seed alone.
struct Picks(u64);

impl Picks {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The index tuple each slot is used with (first occurrence wins — a
/// slot reused at another rank simply rank-mismatches per lane, which
/// the differential covers too).
fn slot_shape(template: &TacoProgram, slot: &str) -> Vec<usize> {
    template
        .rhs
        .accesses()
        .iter()
        .find(|acc| acc.tensor.as_str() == slot)
        .map(|acc| acc.indices.iter().map(|ix| extent_of(ix.as_str())).collect())
        .unwrap_or_default()
}

/// Builds the concrete-tensor pool: two same-shape candidates per slot
/// (`g*`/`h*`, so lanes land in shared shape groups), plus a wrong-rank
/// tensor every lane may draw to exercise semantic errors.
fn build_env(kernel: &BatchKernel, template: &TacoProgram, seed: u64, profile: ValueProfile) -> TensorEnv {
    let scale = |r: &Rat| match profile {
        ValueProfile::SmallInts => *r,
        ValueProfile::HugeInts => *r * Rat::from(600_000_000_000_000_000i64),
        ValueProfile::TinyWithZeros => Rat::from(r.numer().clamp(-1, 1) as i64),
        ValueProfile::Fractions => *r / Rat::from(3),
    };
    let mut gen = TensorGen::new(seed);
    let mut env = TensorEnv::new();
    for (s, slot) in kernel.tensor_slots().iter().enumerate() {
        let extents = slot_shape(template, slot);
        for prefix in ["g", "h"] {
            let t = gen.int_tensor(Shape::new(extents.clone()), -5, 5);
            env.insert(format!("{prefix}{s}"), t.map(scale));
        }
    }
    env.insert("bad5".into(), gen.int_tensor(Shape::new(vec![5]), -5, 5));
    env
}

/// A lane by tensor names, resolved against the test's [`TensorEnv`].
#[derive(Debug)]
struct NamedLane {
    tensors: Vec<String>,
    constants: Vec<i64>,
}

/// Evaluates named lanes through the id-based batch interface: every
/// name of `env` gets an id, and a name `env` lacks is bound to nothing.
fn evaluate_named(
    kernel: &BatchKernel,
    lanes: &[NamedLane],
    env: &TensorEnv,
) -> Vec<Result<Tensor, EvalError>> {
    let mut lane_env = LaneEnv::from_env(env);
    let ids: Vec<Vec<u32>> = lanes
        .iter()
        .map(|lane| {
            lane.tensors
                .iter()
                .map(|n| lane_env.id(n).unwrap_or_else(|| lane_env.push(n, None)))
                .collect()
        })
        .collect();
    let views: Vec<Lane<'_>> = lanes
        .iter()
        .zip(&ids)
        .map(|(lane, ids)| Lane {
            tensors: ids,
            constants: &lane.constants,
        })
        .collect();
    kernel.evaluate_lanes(&views, &lane_env)
}

/// Derives `n` lanes from the pick stream: mostly well-shaped bindings
/// (either same-shape candidate), occasionally the wrong-rank or a
/// missing tensor.
fn derive_lanes(kernel: &BatchKernel, picks: &mut Picks, n: usize) -> Vec<NamedLane> {
    (0..n)
        .map(|_| NamedLane {
            tensors: (0..kernel.tensor_slots().len())
                .map(|s| match picks.pick(8) {
                    6 => "bad5".to_string(),
                    7 => "missing".to_string(),
                    p => format!("{}{s}", if p % 2 == 0 { "g" } else { "h" }),
                })
                .collect(),
            constants: kernel
                .const_slots()
                .iter()
                .map(|_| CONST_POOL[picks.pick(CONST_POOL.len())])
                .collect(),
        })
        .collect()
}

/// Applies a lane to the template: rename every access by slot, replace
/// every `ConstSym` by its bound value.
fn concretize(kernel: &BatchKernel, template: &TacoProgram, lane: &NamedLane) -> TacoProgram {
    let names: HashMap<&str, &str> = kernel
        .tensor_slots()
        .iter()
        .map(String::as_str)
        .zip(lane.tensors.iter().map(String::as_str))
        .collect();
    let consts: HashMap<u32, i64> = kernel
        .const_slots()
        .iter()
        .copied()
        .zip(lane.constants.iter().copied())
        .collect();
    fn walk(e: &Expr, names: &HashMap<&str, &str>, consts: &HashMap<u32, i64>) -> Expr {
        match e {
            Expr::Access(acc) => Expr::Access(Access {
                tensor: names[acc.tensor.as_str()].into(),
                indices: acc.indices.clone(),
            }),
            Expr::Const(c) => Expr::Const(*c),
            Expr::ConstSym(id) => Expr::Const(consts[id]),
            Expr::Neg(inner) => Expr::Neg(Box::new(walk(inner, names, consts))),
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(walk(lhs, names, consts)),
                rhs: Box::new(walk(rhs, names, consts)),
            },
        }
    }
    TacoProgram {
        lhs: template.lhs.clone(),
        rhs: walk(&template.rhs, &names, &consts),
    }
}

/// One full differential round: batch-evaluate the lanes, then check
/// every lane against the interpreter on the substituted program.
fn assert_batch_matches_interpreter(
    template: &TacoProgram,
    env: &TensorEnv,
    lanes: &[NamedLane],
) -> Result<(), TestCaseError> {
    let kernel = BatchKernel::new(template);
    let got = evaluate_named(&kernel, lanes, env);
    prop_assert_eq!(got.len(), lanes.len());
    for (lane, got) in lanes.iter().zip(&got) {
        let concrete = concretize(&kernel, template, lane);
        let want = evaluate_interpreted(&concrete, env);
        prop_assert_eq!(
            got,
            &want,
            "lane {:?} of {} diverged from the interpreter ({})",
            lane,
            template,
            concrete
        );
    }
    Ok(())
}

proptest! {
    /// Batch evaluation is bit-identical to per-substitution interpreted
    /// evaluation across lane widths, shape groups and value profiles.
    #[test]
    fn batch_agrees_with_interpreter_per_lane(
        template in arb_template(),
        seed in 0u64..100_000,
        profile in arb_profile(),
        width in prop::sample::select(vec![1usize, 2, 8, 64]),
    ) {
        let kernel = BatchKernel::new(&template);
        let env = build_env(&kernel, &template, seed, profile);
        let mut picks = Picks(seed | 1);
        let lanes = derive_lanes(&kernel, &mut picks, width);
        assert_batch_matches_interpreter(&template, &env, &lanes)?;
    }
}

/// A fixed wide-batch regression, independent of the random stream: 64
/// GEMV lanes mixing shape groups, huge-value demotions, a division
/// template's zero divisors, and semantic errors in single lanes.
#[test]
fn wide_mixed_batch_matches_interpreter() {
    let template = gtl_taco::parse_program("a(i) = s0(i,j) * s1(j)").unwrap();
    let kernel = BatchKernel::new(&template);
    let mut env = TensorEnv::new();
    let mut gen = TensorGen::new(7);
    env.insert("g0".into(), gen.int_tensor(Shape::new(vec![2, 3]), -5, 5));
    env.insert(
        "h0".into(),
        gen.int_tensor(Shape::new(vec![2, 3]), -5, 5)
            .map(|r| *r * Rat::from(600_000_000_000_000_000i64)),
    );
    env.insert("g1".into(), gen.int_tensor(Shape::new(vec![3]), -5, 5));
    env.insert(
        "h1".into(),
        gen.int_tensor(Shape::new(vec![3]), -5, 5)
            .map(|r| *r * Rat::from(600_000_000_000_000_000i64)),
    );
    env.insert("bad5".into(), gen.int_tensor(Shape::new(vec![5]), -5, 5));
    let names = ["g0", "h0", "g1", "h1", "bad5", "missing"];
    let mut picks = Picks(99);
    let lanes: Vec<NamedLane> = (0..64)
        .map(|_| NamedLane {
            tensors: vec![
                names[picks.pick(names.len())].to_string(),
                names[picks.pick(names.len())].to_string(),
            ],
            constants: vec![],
        })
        .collect();
    let got = evaluate_named(&kernel, &lanes, &env);
    let mut errors = 0;
    for (lane, got) in lanes.iter().zip(&got) {
        let want = evaluate_interpreted(&concretize(&kernel, &template, lane), &env);
        assert_eq!(got, &want, "lane {lane:?}");
        if matches!(got, Err(EvalError::Semantic(_))) {
            errors += 1;
        }
    }
    assert!(errors > 0, "the draw must include semantic-error lanes");
    assert!(
        got.iter().any(Result::is_ok),
        "the draw must include successful lanes"
    );
}
