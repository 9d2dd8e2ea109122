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
//!
//! The filter ([`BatchKernel::filter_lanes`]) is checked against the
//! evaluator over the same draws: a lane passes the filter exactly when
//! its evaluated result equals the expected tensor.

use std::collections::HashMap;

use gtl_taco::{
    evaluate_interpreted, parse_program, Access, BatchKernel, BinOp, EvalError, Expr, GroupScratch,
    Ident, Lane, LaneEnv, TacoProgram, TensorEnv,
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
const CONST_POOL: &[i64] = &[
    0,
    1,
    -3,
    7,
    600_000_000_000_000_000,
    -600_000_000_000_000_000,
];

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
        .map(|acc| {
            acc.indices
                .iter()
                .map(|ix| extent_of(ix.as_str()))
                .collect()
        })
        .unwrap_or_default()
}

/// Builds the concrete-tensor pool: two same-shape candidates per slot
/// (`g*`/`h*`, so lanes land in shared shape groups), plus a wrong-rank
/// tensor every lane may draw to exercise semantic errors.
fn build_env(
    kernel: &BatchKernel,
    template: &TacoProgram,
    seed: u64,
    profile: ValueProfile,
) -> TensorEnv {
    let scale = |r: &Rat| match profile {
        ValueProfile::SmallInts => *r,
        ValueProfile::HugeInts => *r * Rat::from(600_000_000_000_000_000i64),
        ValueProfile::TinyWithZeros => Rat::from(r.numer().clamp(-1, 1) as i64),
        ValueProfile::Fractions => *r / Rat::from(3),
    };
    let mut gen = TensorGen::new(seed);
    let mut env = TensorEnv::new();
    for (s, slot) in kernel.tensor_slots().iter().enumerate() {
        let extents = slot_shape(template, slot.as_str());
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

/// Runs `f` on named lanes resolved for the id-based batch interface:
/// every name of `env` gets an id, and a name `env` lacks is bound to
/// nothing.
fn with_views<R>(
    lanes: &[NamedLane],
    env: &TensorEnv,
    f: impl FnOnce(&[Lane<'_>], &LaneEnv<'_>) -> R,
) -> R {
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
    f(&views, &lane_env)
}

/// Evaluates named lanes through the id-based batch interface.
fn evaluate_named(
    kernel: &BatchKernel,
    lanes: &[NamedLane],
    env: &TensorEnv,
) -> Vec<Result<Tensor, EvalError>> {
    with_views(lanes, env, |views, lane_env| {
        kernel.evaluate_lanes(views, lane_env)
    })
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
        .map(Ident::as_str)
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
    let template = parse_program("a(i) = s0(i,j) * s1(j)").unwrap();
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

/// The output shape of every well-bound lane: the LHS indices' extents.
fn output_shape(template: &TacoProgram) -> Shape {
    Shape::new(
        template
            .lhs
            .indices
            .iter()
            .map(|ix| extent_of(ix.as_str()))
            .collect(),
    )
}

/// The tensors a draw filters against, in turn: a lane's output (so it
/// and its equals pass), that output with one cell changed (a lane that
/// made it dies at that cell), a tensor of the right shape that no lane
/// is likely to make, and one of another shape (every shape group is
/// dropped before it runs).
fn expected_tensors(
    template: &TacoProgram,
    results: &[Result<Tensor, EvalError>],
    picks: &mut Picks,
) -> Vec<Tensor> {
    let shape = output_shape(template);
    let made: Vec<&Tensor> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let mut out = Vec::new();
    if !made.is_empty() {
        let hit = made[picks.pick(made.len())].clone();
        let mut data = hit.data().to_vec();
        if !data.is_empty() {
            let cell = picks.pick(data.len());
            data[cell] += Rat::from(1);
        }
        out.push(hit.clone());
        out.push(Tensor::from_data(hit.shape().clone(), data).unwrap());
    }
    out.push(Tensor::from_ints(shape.clone(), &vec![7; shape.len()]));
    let mut other = shape.extents().to_vec();
    other.push(2);
    out.push(Tensor::from_ints(
        Shape::new(other.clone()),
        &vec![0; other.iter().product()],
    ));
    out
}

/// Filters `lanes` against each expected tensor through one scratch,
/// with some lanes dead from the start, and checks every flag against
/// evaluation plus comparison.
fn assert_filter_matches_evaluation(
    kernel: &BatchKernel,
    lanes: &[NamedLane],
    env: &TensorEnv,
    expected: &[Tensor],
    picks: &mut Picks,
) -> Result<(), TestCaseError> {
    let results = evaluate_named(kernel, lanes, env);
    with_views(lanes, env, |views, lane_env| {
        let mut scratch = GroupScratch::default();
        for want in expected {
            let before: Vec<bool> = (0..lanes.len()).map(|_| picks.pick(5) != 0).collect();
            let mut alive = before.clone();
            kernel.filter_lanes(views, lane_env, want, &mut alive, &mut scratch);
            for (i, result) in results.iter().enumerate() {
                prop_assert_eq!(
                    alive[i],
                    before[i] && result.as_ref() == Ok(want),
                    "lane {:?} against {:?}: evaluated to {:?}",
                    lanes[i],
                    want,
                    result
                );
            }
        }
        Ok(())
    })
}

proptest! {
    /// Filtering keeps a live lane exactly when evaluating it gives the
    /// expected tensor, across lane widths (none included), shape
    /// groups, value profiles, and expected tensors that lanes match,
    /// miss in one cell, or miss in shape.
    #[test]
    fn filter_agrees_with_evaluation_and_compare(
        template in arb_template(),
        seed in 0u64..100_000,
        profile in arb_profile(),
        width in prop::sample::select(vec![0usize, 1, 2, 8, 64]),
    ) {
        let kernel = BatchKernel::new(&template);
        let env = build_env(&kernel, &template, seed, profile);
        let mut picks = Picks(seed | 1);
        let lanes = derive_lanes(&kernel, &mut picks, width);
        let results = evaluate_named(&kernel, &lanes, &env);
        let expected = expected_tensors(&template, &results, &mut picks);
        assert_filter_matches_evaluation(&kernel, &lanes, &env, &expected, &mut picks)?;
    }
}

/// One filter call over named lanes, every lane alive at the start.
fn filter_named(src: &str, lanes: &[&[&str]], env: &TensorEnv, expected: &[i64]) -> Vec<bool> {
    let template = parse_program(src).unwrap();
    let kernel = BatchKernel::new(&template);
    let lanes: Vec<NamedLane> = lanes
        .iter()
        .map(|names| NamedLane {
            tensors: names.iter().map(|n| n.to_string()).collect(),
            constants: vec![],
        })
        .collect();
    let expected = Tensor::from_ints(Shape::new(vec![expected.len()]), expected);
    let results = evaluate_named(&kernel, &lanes, env);
    let alive = with_views(&lanes, env, |views, lane_env| {
        let mut alive = vec![true; views.len()];
        kernel.filter_lanes(
            views,
            lane_env,
            &expected,
            &mut alive,
            &mut GroupScratch::default(),
        );
        alive
    });
    let compared: Vec<bool> = results
        .iter()
        .map(|r| r.as_ref() == Ok(&expected))
        .collect();
    assert_eq!(alive, compared, "filter and evaluation disagree");
    alive
}

fn int_env(entries: &[(&str, &[i64])]) -> TensorEnv {
    let mut env = TensorEnv::new();
    for (name, data) in entries {
        env.insert(
            name.to_string(),
            Tensor::from_ints(Shape::new(vec![data.len()]), data),
        );
    }
    env
}

#[test]
fn filter_drops_a_lane_at_a_mismatch_before_its_zero_divisor() {
    let env = int_env(&[
        ("g0", &[1, 1]),
        ("h0", &[3, 1]),
        ("g1", &[1, 0]),
        ("h1", &[1, 1]),
    ]);
    let src = "a(i) = s0(i) / s1(i)";
    // Right first cell, then a zero divisor; right throughout; a wrong
    // first cell before the zero divisor.
    let lanes: [&[&str]; 3] = [&["g0", "g1"], &["g0", "h1"], &["h0", "g1"]];
    assert_eq!(
        filter_named(src, &lanes, &env, &[1, 1]),
        [false, true, false]
    );
}

#[test]
fn filter_drops_a_shape_group_with_other_output_extents() {
    let env = int_env(&[("v2", &[1, 2]), ("v3", &[1, 2, 3]), ("w3", &[1, 2, 4])]);
    let lanes: [&[&str]; 3] = [&["v2"], &["v3"], &["w3"]];
    assert_eq!(
        filter_named("a(i) = s0(i)", &lanes, &env, &[1, 2]),
        [true, false, false]
    );
    assert_eq!(
        filter_named("a(i) = s0(i)", &lanes, &env, &[1, 2, 3]),
        [false, true, false]
    );
}

#[test]
fn filter_redoes_an_overflowing_cell_exactly() {
    let big = 4_000_000_000_000_000_000i64;
    let mut env = int_env(&[("x", &[1, 1, 1]), ("y", &[1, 1, 2])]);
    env.insert(
        "m".into(),
        Tensor::from_ints(Shape::new(vec![2, 3]), &[big, big, big, 1, 2, 3]),
    );
    // Cell 0 overflows i64 (3 · 4e18) and is redone in exact arithmetic:
    // 1.2e19 does not fit an i64 expected tensor, so compare with the
    // evaluated output instead.
    let template = parse_program("a(i) = s0(i,j) * s1(j)").unwrap();
    let kernel = BatchKernel::new(&template);
    let lanes = vec![
        NamedLane {
            tensors: vec!["m".into(), "x".into()],
            constants: vec![],
        },
        NamedLane {
            tensors: vec!["m".into(), "y".into()],
            constants: vec![],
        },
    ];
    let results = evaluate_named(&kernel, &lanes, &env);
    let want = results[0].clone().unwrap();
    assert_eq!(want.data()[0], Rat::from(big) * Rat::from(3));
    assert_filter_matches_evaluation(&kernel, &lanes, &env, &[want], &mut Picks(1)).unwrap();
}

#[test]
fn filter_passes_a_lane_with_fractional_inputs() {
    let mut env = int_env(&[("c", &[2, 3])]);
    env.insert(
        "f".into(),
        Tensor::from_data(Shape::new(vec![2]), vec![Rat::new(1, 2), Rat::new(1, 3)]).unwrap(),
    );
    env.insert("g".into(), Tensor::from_ints(Shape::new(vec![2]), &[1, 1]));
    // f · c = 1/2·2 + 1/3·3 = 2, and g · c = 5.
    let template = parse_program("a = s0(i) * s1(i)").unwrap();
    let kernel = BatchKernel::new(&template);
    let lane = |a: &str| NamedLane {
        tensors: vec![a.into(), "c".into()],
        constants: vec![],
    };
    let lanes = [lane("f"), lane("g")];
    let two = Tensor::from_ints(Shape::scalar(), &[2]);
    let alive = with_views(&lanes, &env, |views, lane_env| {
        let mut alive = vec![true; 2];
        kernel.filter_lanes(
            views,
            lane_env,
            &two,
            &mut alive,
            &mut GroupScratch::default(),
        );
        alive
    });
    assert_eq!(alive, [true, false]);
}

#[test]
fn filter_of_no_lanes_is_fine() {
    let kernel = BatchKernel::new(&parse_program("a(i) = b(i)").unwrap());
    let expected = Tensor::from_ints(Shape::new(vec![1]), &[0]);
    let mut alive: [bool; 0] = [];
    let env = LaneEnv::new();
    kernel.filter_lanes(
        &[],
        &env,
        &expected,
        &mut alive,
        &mut GroupScratch::default(),
    );
}
