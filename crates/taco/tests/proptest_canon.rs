//! Differential property tests for algebraic canonicalization.
//!
//! First, a canonicalized program must evaluate exactly like the
//! original on the value window candidate filtering actually uses.
//!
//! Values are drawn from the validator's small-integer window (with
//! zeros, so division errors occur), where the module-level caveat
//! about reassociated overflow cannot trigger. Successful evaluations
//! must agree bit-for-bit; on error, both sides must error (the rule
//! set never erases an erroring subterm, though reassociation may
//! change *which* error of several surfaces first).

//! Second, the production [`CanonEncoder`] must agree with the string
//! form it replaced ([`mod@reference`]): two templates get equal keys
//! exactly when their reference `canonical_key`s are equal, and
//! [`canonicalize`] builds the reference's tree.
//!
//! Third, a template's tokens ([`RhsTok`]) must encode it faithfully:
//! they decode back to the same expression, and loading them with
//! [`CanonEncoder::load_ref`] gives the facts and key of loading the
//! program, also when their names were interned in a wider
//! [`NameTable`], as a search interns every name of its grammar.

use gtl_taco::canon::reference;
use gtl_taco::{
    canonical_fingerprint, canonicalize, evaluate, Access, BinOp, CanonEncoder, Expr, NameTable,
    RhsTok, TacoProgram, TensorEnv,
};
use gtl_tensor::{Shape, TensorGen};
use proptest::prelude::*;

/// Fixed, pairwise-distinct extents (as in the batch differential).
fn extent_of(ix: &str) -> usize {
    match ix {
        "i" => 2,
        "j" => 3,
        _ => 4,
    }
}

fn arb_access() -> impl Strategy<Value = Access> {
    let idx = prop::sample::select(vec!["i", "j", "k"]);
    (
        prop::sample::select(vec!["t0", "t1", "t2"]),
        prop::collection::vec(idx, 0..4),
    )
        .prop_map(|(name, indices)| Access {
            tensor: name.into(),
            indices: indices.into_iter().map(Into::into).collect(),
        })
}

fn arb_lhs() -> impl Strategy<Value = Access> {
    prop::sample::select(vec![vec![], vec!["i"], vec!["j"], vec!["i", "j"]]).prop_map(|indices| {
        Access {
            tensor: "a".into(),
            indices: indices.into_iter().map(Into::into).collect(),
        }
    })
}

/// Concrete programs only (no `ConstSym`): the scalar evaluator needs
/// every constant bound. Constants include 0 and 1 so the neutral and
/// folding rules actually fire, and negatives so sign normalization
/// does too.
fn arb_program() -> impl Strategy<Value = TacoProgram> {
    let leaf = prop_oneof![
        arb_access().prop_map(Expr::Access),
        (-4i64..9).prop_map(Expr::Const),
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
    (arb_lhs(), rhs).prop_map(|(lhs, rhs)| TacoProgram::new(lhs, rhs))
}

/// Binds every RHS tensor at its first-occurrence shape. A tensor
/// reused at another rank rank-mismatches identically on both sides of
/// the differential (canonicalization never changes an access).
fn build_env(program: &TacoProgram, seed: u64) -> TensorEnv {
    let mut gen = TensorGen::new(seed);
    let mut env = TensorEnv::new();
    for acc in program.rhs.accesses() {
        if env.contains_key(acc.tensor.as_str()) {
            continue;
        }
        let extents: Vec<usize> = acc
            .indices
            .iter()
            .map(|ix| extent_of(ix.as_str()))
            .collect();
        // -2..2 is zero-rich: `/` draws hit division by zero often.
        env.insert(
            acc.tensor.to_string(),
            gen.int_tensor(Shape::new(extents), -2, 2),
        );
    }
    env
}

proptest! {
    /// Canonicalization preserves evaluation: identical outputs on
    /// success, an error exactly when the original errors. The
    /// canonical form is also a fixpoint, so the fingerprint keying the
    /// seen-sets is stable across re-canonicalization.
    #[test]
    fn canonicalized_program_evaluates_identically(
        program in arb_program(),
        seed in 0u64..100_000,
    ) {
        let canon = canonicalize(&program);
        let env = build_env(&program, seed);
        let original = evaluate(&program, &env);
        let rewritten = evaluate(&canon, &env);
        match (&original, &rewritten) {
            (Ok(a), Ok(b)) => prop_assert_eq!(
                a, b, "values diverged: {} vs {}", program, canon
            ),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(
                false,
                "error presence diverged for {} → {}: {:?} vs {:?}",
                program, canon, original, rewritten
            ),
        }
        let again = canonicalize(&canon);
        prop_assert_eq!(&again, &canon, "canonicalize must be idempotent on {}", program);
        prop_assert_eq!(
            canonical_fingerprint(&program),
            canonical_fingerprint(&canon),
            "fingerprint must not distinguish a program from its canonical form: {}",
            program
        );
    }
}

/// Template leaves: accesses over `a` (the LHS symbol, reused on the
/// RHS), `b`, `bc`, `b1` and `c` with repeated indices allowed, whose
/// names include prefixes of one another (`b` of `bc` and `b1`, `i` of
/// `ii` and `i1`), so names order as their printed accesses do only if
/// a shorter name orders first; `Const` slots drawn from a small id
/// pool, so slots are both shared and free; and constants whose printed
/// order disagrees with their value order (`#-1` < `#-12` < `#100` <
/// `#12` < `#3` as bytes).
fn arb_template_leaf() -> BoxedStrategy<Expr> {
    let access = (
        prop::sample::select(vec!["a", "b", "bc", "b1", "c"]),
        prop::collection::vec(prop::sample::select(vec!["i", "ii", "i1", "j", "k"]), 0..4),
    )
        .prop_map(|(name, indices)| Expr::access(name, &indices));
    prop_oneof![
        access,
        (0u32..3).prop_map(Expr::ConstSym),
        prop::sample::select(vec![-1i64, -12, 0, 1, 3, 12, 100, i64::MIN, i64::MAX])
            .prop_map(Expr::Const),
    ]
}

/// Templates mixing every operator, unary minus, and the pair that
/// makes printed keys and structure disagree: `-x` next to `x - y` in
/// one chain, where `(- x)` sorts after `(- x y)`.
fn arb_template() -> impl Strategy<Value = TacoProgram> {
    let rhs = arb_template_leaf().prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (
                prop::sample::select(BinOp::ALL.to_vec()),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::binary(op, l, r)),
            inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
            (
                prop::sample::select(vec![BinOp::Add, BinOp::Mul]),
                inner.clone(),
                inner
            )
                .prop_map(|(op, x, y)| {
                    Expr::binary(
                        op,
                        Expr::Neg(Box::new(x.clone())),
                        Expr::binary(BinOp::Sub, x, y),
                    )
                }),
        ]
    });
    let lhs = prop::sample::select(vec![vec![], vec!["i"], vec!["i", "j"], vec!["i", "i"]])
        .prop_map(|indices| Access::new("a", &indices));
    (lhs, rhs).prop_map(|(lhs, rhs)| TacoProgram::new(lhs, rhs))
}

/// Respellings that often keep the reference key: slots `b`/`c`
/// swapped, indices `j`/`k` swapped, or every `+`/`*` mirrored.
fn variants(t: &TacoProgram) -> [TacoProgram; 3] {
    fn map(e: &Expr, f: &dyn Fn(&Expr) -> Option<Expr>) -> Expr {
        if let Some(out) = f(e) {
            return out;
        }
        match e {
            Expr::Neg(inner) => Expr::Neg(Box::new(map(inner, f))),
            Expr::Binary { op, lhs, rhs } => Expr::binary(*op, map(lhs, f), map(rhs, f)),
            leaf => leaf.clone(),
        }
    }
    let swap = |x: &str, y: &str, s: &str| -> String {
        if s == x {
            y.to_string()
        } else if s == y {
            x.to_string()
        } else {
            s.to_string()
        }
    };
    let slots = map(&t.rhs, &|e| match e {
        Expr::Access(a) => Some(Expr::Access(Access {
            tensor: swap("b", "c", a.tensor.as_str()).as_str().into(),
            indices: a.indices.clone(),
        })),
        _ => None,
    });
    let indices = map(&t.rhs, &|e| match e {
        Expr::Access(a) => Some(Expr::Access(Access {
            tensor: a.tensor.clone(),
            indices: a
                .indices
                .iter()
                .map(|ix| swap("j", "k", ix.as_str()).as_str().into())
                .collect(),
        })),
        _ => None,
    });
    fn mirror(e: &Expr) -> Expr {
        match e {
            Expr::Binary { op, lhs, rhs } if op.is_associative() => {
                Expr::binary(*op, mirror(rhs), mirror(lhs))
            }
            Expr::Binary { op, lhs, rhs } => Expr::binary(*op, mirror(lhs), mirror(rhs)),
            Expr::Neg(inner) => Expr::Neg(Box::new(mirror(inner))),
            leaf => leaf.clone(),
        }
    }
    [
        TacoProgram::new(t.lhs.clone(), slots),
        TacoProgram::new(t.lhs.clone(), indices),
        TacoProgram::new(t.lhs.clone(), mirror(&t.rhs)),
    ]
}

proptest! {
    /// The encoder partitions templates exactly like the reference key:
    /// for every pair in a batch (templates plus respellings), keys are
    /// equal exactly when reference keys are; and the production
    /// canonical tree is the reference's.
    #[test]
    fn encoder_keys_partition_like_reference_keys(
        seeds in prop::collection::vec(arb_template(), 6..7),
    ) {
        let mut templates: Vec<TacoProgram> = Vec::new();
        for t in &seeds {
            templates.push(t.clone());
            templates.extend(variants(t));
        }
        let mut enc = CanonEncoder::default();
        let keys: Vec<Vec<u8>> = templates
            .iter()
            .map(|t| {
                enc.load(t);
                enc.key().to_vec()
            })
            .collect();
        let reference_keys: Vec<String> = templates.iter().map(reference::canonical_key).collect();
        for (i, a) in templates.iter().enumerate() {
            prop_assert_eq!(canonicalize(a), reference::canonicalize(a), "tree of {}", a);
            for (j, b) in templates.iter().enumerate() {
                prop_assert_eq!(
                    keys[i] == keys[j],
                    reference_keys[i] == reference_keys[j],
                    "{} vs {}: reference keys {} / {}",
                    a, b, reference_keys[i], reference_keys[j]
                );
            }
        }
    }
}

/// Rebuilds the expression at the front of `toks`: the token grammar
/// written out independently of the encoder's loader.
fn decode(toks: &mut std::slice::Iter<'_, RhsTok<'_>>) -> Option<Expr> {
    Some(match *toks.next()? {
        RhsTok::Access(a) => Expr::Access(a.access.clone()),
        RhsTok::Const(c) => Expr::Const(c),
        RhsTok::ConstSym(s) => Expr::ConstSym(s),
        RhsTok::Neg => Expr::Neg(Box::new(decode(toks)?)),
        RhsTok::Binary => {
            let lhs = decode(toks)?;
            let RhsTok::Op(op) = *toks.next()? else {
                return None;
            };
            Expr::binary(op, lhs, decode(toks)?)
        }
        RhsTok::Op(_) => return None,
    })
}

proptest! {
    /// Program → tokens is lossless, and the key and facts of the
    /// tokens are those of the program, for templates with every
    /// operator, `Neg`, literal constants and shared `Const` slots —
    /// whether the names are interned per template or in a table that
    /// also holds names the template lacks.
    #[test]
    fn tokens_encode_the_program_and_its_key(
        template in arb_template(),
        program in arb_program(),
    ) {
        let (mut by_tokens, mut by_program) = (CanonEncoder::default(), CanonEncoder::default());
        // Names around and between the generated ones.
        let extra = [
            Access::new("B", &["h", "i0", "iz"]),
            Access::new("b0", &["jj", "z"]),
            Access::new("bb", &["_"]),
            Access::new("t", &["Z"]),
        ];
        for t in [&template, &program] {
            let (mut ids, mut rhs) = (Vec::new(), Vec::new());
            let own = t.template_ref(&mut ids, &mut rhs);
            let mut toks = own.rhs.iter();
            prop_assert_eq!(decode(&mut toks).as_ref(), Some(&t.rhs), "decode {}", t);
            prop_assert!(toks.next().is_none(), "trailing tokens for {}", t);
            let facts = by_program.load(t);
            let key = by_program.key().to_vec();
            prop_assert_eq!(by_tokens.load_ref(own), facts, "facts of {}", t);
            prop_assert_eq!(by_tokens.key(), key.as_slice(), "key of {}", t);

            let accesses = t.rhs.accesses();
            let wide = NameTable::new(
                std::iter::once(&t.lhs).chain(accesses.iter().copied()).chain(&extra),
            );
            let (mut ids, mut rhs) = (Vec::new(), Vec::new());
            let tokens = t.template_ref_in(&wide, &mut ids, &mut rhs);
            let mut toks = tokens.rhs.iter();
            prop_assert_eq!(decode(&mut toks).as_ref(), Some(&t.rhs), "decode {} (wide)", t);
            prop_assert_eq!(by_tokens.load_ref(tokens), facts, "facts of {} (wide)", t);
            prop_assert_eq!(by_tokens.key(), key.as_slice(), "key of {} (wide)", t);
        }
    }
}
