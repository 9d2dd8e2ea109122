//! Substitution enumeration and template instantiation (§6, Fig. 8).
//!
//! A complete template contains symbolic tensors `b, c, …` and symbolic
//! constants. The validator enumerates every binding of tensor symbols to
//! kernel arguments and constant symbols to the source constant pool,
//! discards bindings that are dimensionally unsound (a rank-2 symbol
//! cannot bind a scalar and vice versa), instantiates the template and
//! tests it against the input/output examples.

use std::collections::BTreeMap;

use gtl_taco::{Access, Expr, Ident, TacoProgram, TemplateRef};

/// A substitution: tensor symbol → argument name, constant slot → value.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Substitution {
    /// Tensor symbol bindings (e.g. `b → Mat1`).
    pub tensors: BTreeMap<String, String>,
    /// Constant slot bindings (slot id → value).
    pub constants: BTreeMap<u32, i64>,
}

impl std::fmt::Display for Substitution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨")?;
        let mut first = true;
        for (s, a) in &self.tensors {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{s} ↦ {a}")?;
        }
        for (slot, v) in &self.constants {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "Const{slot} ↦ {v}")?;
        }
        write!(f, "⟩")
    }
}

/// Applies a substitution to a template, producing a concrete program
/// over argument names.
pub fn apply_substitution(template: &TacoProgram, sub: &Substitution, output: &str) -> TacoProgram {
    fn rename_access(acc: &Access, sub: &Substitution, output: &str) -> Access {
        let name = acc.tensor.as_str();
        let new = if name == "a" {
            output.to_string()
        } else {
            sub.tensors
                .get(name)
                .cloned()
                .unwrap_or_else(|| name.to_string())
        };
        Access {
            tensor: Ident::new(new),
            indices: acc.indices.clone(),
        }
    }
    fn rename(e: &Expr, sub: &Substitution, output: &str) -> Expr {
        match e {
            Expr::Access(acc) => Expr::Access(rename_access(acc, sub, output)),
            Expr::Const(c) => Expr::Const(*c),
            Expr::ConstSym(slot) => match sub.constants.get(slot) {
                Some(v) => Expr::Const(*v),
                None => Expr::ConstSym(*slot),
            },
            Expr::Neg(inner) => Expr::Neg(Box::new(rename(inner, sub, output))),
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(rename(lhs, sub, output)),
                rhs: Box::new(rename(rhs, sub, output)),
            },
        }
    }
    TacoProgram {
        lhs: rename_access(&template.lhs, sub, output),
        rhs: rename(&template.rhs, sub, output),
    }
}

/// What a substitution binds to, interned: per logical rank, the ids of
/// the task's parameters of that rank; the output parameter's id; and
/// the source constant pool.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Targets<'a> {
    pub(crate) by_rank: &'a [Vec<u32>],
    pub(crate) output: &'a [u32; 1],
    pub(crate) pool: &'a [i64],
}

impl<'a> Targets<'a> {
    /// The candidates of a tensor digit: the output (`None`) or the
    /// parameters of a rank.
    fn candidates(&self, digit: Option<usize>) -> &'a [u32] {
        match digit {
            None => &self.output[..],
            Some(rank) => &self.by_rank[rank],
        }
    }
}

/// The dimensionally-sound substitutions of one template over an
/// interned task (Fig. 8's filtered set), enumerated in a deterministic
/// order as a lexicographic odometer.
///
/// There is one digit per tensor slot of the template's
/// [`gtl_taco::BatchKernel`], then one per constant slot, the last digit
/// fastest. A tensor symbol of rank r draws from the parameter ids of
/// logical rank r (rank-0 symbols bind sizes and data scalars); the LHS
/// symbol `a` reused on the RHS binds the output, a digit with one
/// candidate. Constant slots draw from the source constant pool.
/// Bindings are not required to be injective (Fig. 8 tries
/// `b → Mat1, c → Mat1`).
///
/// It owns only its digits, so one value enumerates template after
/// template without allocating.
#[derive(Debug, Default)]
pub(crate) struct Substitutions {
    /// Per tensor slot, what it draws from (see [`Targets::candidates`]).
    tensors: Vec<Option<usize>>,
    /// The current choice per digit: tensor slots, then constant slots.
    choice: Vec<usize>,
    done: bool,
}

impl Substitutions {
    /// Starts over on `template` and returns whether its substitution
    /// space is non-empty. It reads only the tokens, so a template
    /// without substitutions is turned away before it is lowered.
    ///
    /// The digits are the template's [`TemplateRef::tensor_slots`] and
    /// [`TemplateRef::const_slots`], the slots of its
    /// [`gtl_taco::BatchKernel`].
    /// The space is empty when a symbol is read at two ranks, when no
    /// parameter has a slot's rank, or when the template has a `Const`
    /// slot but the constant pool is empty.
    pub(crate) fn open(&mut self, template: TemplateRef<'_>, targets: Targets<'_>) -> bool {
        self.tensors.clear();
        self.done = true;
        for a in template.tensor_slots() {
            if a.access.tensor.as_str() == "a" {
                // The LHS symbol reused on the RHS binds the output,
                // whatever its rank.
                self.tensors.push(None);
                continue;
            }
            let rank = a.indices.len();
            let agree = template
                .accesses()
                .all(|b| b.tensor != a.tensor || b.indices.len() == rank);
            if !agree || targets.by_rank.get(rank).is_none_or(Vec::is_empty) {
                return false;
            }
            self.tensors.push(Some(rank));
        }
        let n_consts = template.const_slots().count();
        if n_consts > 0 && targets.pool.is_empty() {
            return false;
        }
        self.choice.clear();
        self.choice.resize(self.tensors.len() + n_consts, 0);
        self.done = false;
        true
    }

    /// Appends the next substitution's lane — a parameter id per tensor
    /// slot to `tensors`, a value per constant slot to `constants` — and
    /// advances. Returns `false`, appending nothing, once exhausted.
    pub(crate) fn next_into(
        &mut self,
        targets: Targets<'_>,
        tensors: &mut Vec<u32>,
        constants: &mut Vec<i64>,
    ) -> bool {
        if self.done {
            return false;
        }
        let n = self.tensors.len();
        tensors.extend(
            self.tensors
                .iter()
                .zip(&self.choice)
                .map(|(&digit, &k)| targets.candidates(digit)[k]),
        );
        constants.extend(self.choice[n..].iter().map(|&k| targets.pool[k]));
        self.done = true;
        for pos in (0..self.choice.len()).rev() {
            self.choice[pos] += 1;
            let radix = if pos < n {
                targets.candidates(self.tensors[pos]).len()
            } else {
                targets.pool.len()
            };
            if self.choice[pos] < radix {
                self.done = false;
                break;
            }
            self.choice[pos] = 0;
        }
        true
    }
}

/// The string-keyed enumeration the odometer replaced, kept as the
/// reference for differential tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::task::LiftTask;

    /// The symbolic slots of a template: RHS tensor symbols with their
    /// ranks (in order of first appearance) and the constant slot ids.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct TemplateSlots {
        /// `(symbol, rank)` pairs.
        pub(crate) tensors: Vec<(String, usize)>,
        /// Constant slot ids, in appearance order.
        pub(crate) constants: Vec<u32>,
    }

    /// Extracts the slots of a template. Returns `None` when a symbol is
    /// used with inconsistent ranks (such templates are unsatisfiable).
    pub(crate) fn template_slots(template: &TacoProgram) -> Option<TemplateSlots> {
        let mut tensors: Vec<(String, usize)> = Vec::new();
        for acc in template.rhs.accesses() {
            let name = acc.tensor.as_str();
            if name == "a" {
                // LHS symbol reused on the RHS: it binds the output.
                continue;
            }
            match tensors.iter().find(|(n, _)| n == name) {
                Some((_, rank)) if *rank != acc.rank() => return None,
                Some(_) => {}
                None => tensors.push((name.to_string(), acc.rank())),
            }
        }
        let mut constants = Vec::new();
        collect_const_slots(&template.rhs, &mut constants);
        Some(TemplateSlots { tensors, constants })
    }

    fn collect_const_slots(e: &Expr, out: &mut Vec<u32>) {
        match e {
            Expr::ConstSym(s) => {
                if !out.contains(s) {
                    out.push(*s);
                }
            }
            Expr::Access(_) | Expr::Const(_) => {}
            Expr::Neg(inner) => collect_const_slots(inner, out),
            Expr::Binary { lhs, rhs, .. } => {
                collect_const_slots(lhs, out);
                collect_const_slots(rhs, out);
            }
        }
    }

    /// Enumerates all dimensionally-sound substitutions for a template
    /// against a task, in a deterministic order (Fig. 8's filtered set).
    pub(crate) fn enumerate_substitutions(
        template: &TacoProgram,
        task: &LiftTask,
    ) -> Vec<Substitution> {
        let Some(slots) = template_slots(template) else {
            return Vec::new();
        };
        // Candidate argument names per slot, by rank.
        let mut per_slot: Vec<Vec<&str>> = Vec::new();
        for (_, rank) in &slots.tensors {
            let cands: Vec<&str> = task
                .params
                .iter()
                .filter(|p| p.kind.rank() == *rank)
                .map(|p| p.name.as_str())
                .collect();
            if cands.is_empty() {
                return Vec::new();
            }
            per_slot.push(cands);
        }
        let const_pool: Vec<i64> = if slots.constants.is_empty() {
            Vec::new()
        } else if task.constants.is_empty() {
            return Vec::new();
        } else {
            task.constants.clone()
        };

        // Cartesian product over tensor slots, then constant slots.
        let mut subs = Vec::new();
        let mut tensor_choice = vec![0usize; per_slot.len()];
        loop {
            let mut const_choice = vec![0usize; slots.constants.len()];
            loop {
                let mut sub = Substitution::default();
                for ((sym, _), (cands, &choice)) in slots
                    .tensors
                    .iter()
                    .zip(per_slot.iter().zip(&tensor_choice))
                {
                    sub.tensors.insert(sym.clone(), cands[choice].to_string());
                }
                for (slot, &choice) in slots.constants.iter().zip(&const_choice) {
                    sub.constants.insert(*slot, const_pool[choice]);
                }
                subs.push(sub);
                // Advance the constant odometer (last slot fastest, so the
                // enumeration is lexicographic).
                let mut done = true;
                for c in const_choice.iter_mut().rev() {
                    *c += 1;
                    if *c < const_pool.len() {
                        done = false;
                        break;
                    }
                    *c = 0;
                }
                if done {
                    break;
                }
            }
            // Advance the tensor odometer (last slot fastest).
            let mut done = true;
            for pos in (0..tensor_choice.len()).rev() {
                tensor_choice[pos] += 1;
                if tensor_choice[pos] < per_slot[pos].len() {
                    done = false;
                    break;
                }
                tensor_choice[pos] = 0;
            }
            if done {
                break;
            }
        }
        subs
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{enumerate_substitutions, template_slots};
    use super::*;
    use crate::task::tests_support::{dot_task, gemv_task};
    use crate::task::LiftTask;
    use crate::validator::{
        generate_examples, validate_template, ExampleConfig, IoExample, ValidationStats, Validator,
    };
    use gtl_taco::{evaluate_interpreted, parse_program, BinOp};
    use proptest::prelude::*;

    fn subs(src: &str, task: &LiftTask) -> Vec<Substitution> {
        Validator::new(task, &[]).substitutions(&parse_program(src).unwrap())
    }

    #[test]
    fn reference_slots_extraction() {
        let t = parse_program("a(i) = b(i,j) * c(j) + Const").unwrap();
        let slots = template_slots(&t).unwrap();
        assert_eq!(
            slots.tensors,
            vec![("b".to_string(), 2), ("c".to_string(), 1)]
        );
        assert_eq!(slots.constants.len(), 1);
    }

    #[test]
    fn inconsistent_rank_rejected() {
        let t = parse_program("a(i) = b(i,j) * b(j)").unwrap();
        assert!(template_slots(&t).is_none());
        assert!(subs("a(i) = b(i,j) * b(j)", &dot_task()).is_empty());
    }

    #[test]
    fn enumeration_filters_by_rank() {
        // dot task: args n (0), a (1), b (1), out (0).
        let subs = subs("a = b(i) * c(i)", &dot_task());
        // Each of b, c can bind the two rank-1 arrays: 4 combinations.
        assert_eq!(subs.len(), 4);
        assert!(subs
            .iter()
            .any(|s| s.tensors["b"] == "a" && s.tensors["c"] == "b"));
        // Non-injective bindings present (Fig. 8's S1).
        assert!(subs
            .iter()
            .any(|s| s.tensors["b"] == "a" && s.tensors["c"] == "a"));
    }

    #[test]
    fn scalar_symbols_bind_scalars() {
        let subs = subs("a = b(i) * c", &dot_task());
        // c (rank 0) binds n or out: 2 options × b's 2 arrays = 4.
        assert_eq!(subs.len(), 4);
        assert!(subs
            .iter()
            .all(|s| s.tensors["c"] == "n" || s.tensors["c"] == "out"));
    }

    #[test]
    fn constants_from_pool() {
        let subs = subs("a = b(i) * Const", &dot_task()); // constants: [0]
        assert!(!subs.is_empty());
        assert!(subs.iter().all(|s| s.constants[&0] == 0));
        let mut empty_pool = dot_task();
        empty_pool.constants.clear();
        assert!(Validator::new(&empty_pool, &[])
            .substitutions(&parse_program("a = b(i) * Const").unwrap())
            .is_empty());
    }

    #[test]
    fn application_renames() {
        let t = parse_program("a(i) = b(i,j) * c(j)").unwrap();
        let mut sub = Substitution::default();
        sub.tensors.insert("b".into(), "Mat1".into());
        sub.tensors.insert("c".into(), "Mat2".into());
        let concrete = apply_substitution(&t, &sub, "Result");
        assert_eq!(concrete.to_string(), "Result(i) = Mat1(i,j) * Mat2(j)");
    }

    #[test]
    fn display_matches_paper_notation() {
        let mut sub = Substitution::default();
        sub.tensors.insert("b".into(), "Mat1".into());
        assert_eq!(sub.to_string(), "⟨b ↦ Mat1⟩");
    }

    /// The string-keyed validation loop the interned one replaced: every
    /// substitution in reference order, in 64-wide chunks, checked on
    /// every example by the reference interpreter.
    fn validate_reference(
        template: &TacoProgram,
        task: &LiftTask,
        examples: &[IoExample],
        mut verify: impl FnMut(&TacoProgram, &Substitution) -> bool,
        stats: &mut ValidationStats,
    ) -> Option<TacoProgram> {
        for chunk in enumerate_substitutions(template, task).chunks(64) {
            stats.substitutions_tried += chunk.len() as u64;
            for sub in chunk {
                let concrete = apply_substitution(template, sub, task.output_name());
                let passes = examples.iter().all(|ex| {
                    evaluate_interpreted(&concrete, &ex.instance.env).as_ref() == Ok(&ex.output)
                });
                if passes {
                    stats.io_passes += 1;
                    if verify(&concrete, sub) {
                        return Some(concrete);
                    }
                }
            }
        }
        None
    }

    /// Templates over the symbols the tasks' ranks exercise: `a` reused
    /// on the RHS, symbols read at two ranks, repeated indices, shared
    /// and free `Const` slots, and literal constants.
    fn arb_template() -> impl Strategy<Value = TacoProgram> {
        let access = || {
            (
                prop::sample::select(vec!["a", "b", "c", "d"]),
                prop::collection::vec(prop::sample::select(vec!["i", "j"]), 0..3),
            )
                .prop_map(|(name, indices)| Expr::access(name, &indices))
        };
        let leaf = prop_oneof![
            access(),
            access(),
            (0u32..3).prop_map(Expr::ConstSym),
            (-1i64..3).prop_map(Expr::Const),
        ];
        let rhs = leaf.prop_recursive(3, 8, 2, |inner| {
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
        let lhs = prop::sample::select(vec![vec![], vec!["i"]])
            .prop_map(|indices| Access::new("a", &indices));
        (lhs, rhs).prop_map(|(lhs, rhs)| TacoProgram::new(lhs, rhs))
    }

    proptest! {
        /// The id odometer enumerates exactly the reference's
        /// substitutions, in the same order, with the same bindings; and
        /// validation returns the same program with the same counters,
        /// whichever I/O survivor the verifier accepts.
        #[test]
        fn interned_enumeration_and_validation_match_reference(
            templates in prop::collection::vec(arb_template(), 8..9),
            gemv in prop::sample::select(vec![false, true]),
            accept in 0usize..3,
        ) {
            let task = if gemv { gemv_task() } else { dot_task() };
            let examples = generate_examples(&task, &ExampleConfig::default()).unwrap();
            let validator = Validator::new(&task, &examples);
            for template in &templates {
            prop_assert_eq!(
                validator.substitutions(template),
                enumerate_substitutions(template, &task),
                "enumeration of {}", template
            );
            let accept_nth = |n: usize| {
                let mut seen = 0;
                move |_: &TacoProgram, _: &Substitution| {
                    seen += 1;
                    seen > n
                }
            };
            let (mut got_stats, mut want_stats) =
                (ValidationStats::default(), ValidationStats::default());
            let got = validator.validate(template, accept_nth(accept), &mut got_stats);
            let want =
                validate_reference(template, &task, &examples, accept_nth(accept), &mut want_stats);
            prop_assert_eq!(got, want, "validation of {}", template);
            prop_assert_eq!(got_stats, want_stats, "counters of {}", template);
            }
        }
    }

    proptest! {
        /// Whether a template has substitutions, and which, agrees with
        /// the reference enumeration, also when the constant pool is
        /// empty and every `Const` slot leaves the space empty.
        #[test]
        fn has_substitutions_agrees_with_the_enumeration(
            templates in prop::collection::vec(arb_template(), 16..17),
            gemv in prop::sample::select(vec![false, true]),
            empty_pool in prop::sample::select(vec![false, true]),
        ) {
            let mut task = if gemv { gemv_task() } else { dot_task() };
            if empty_pool {
                task.constants.clear();
            }
            let validator = Validator::new(&task, &[]);
            for template in &templates {
                prop_assert_eq!(
                    validator.substitutions(template),
                    enumerate_substitutions(template, &task),
                    "{}", template
                );
            }
        }
    }

    #[test]
    fn gemv_template_validates_like_reference() {
        let task = gemv_task();
        let examples = generate_examples(&task, &ExampleConfig::default()).unwrap();
        let template = parse_program("a(i) = Const * b(i,j) * c(j) + d * e(j)").unwrap();
        let (mut got_stats, mut want_stats) =
            (ValidationStats::default(), ValidationStats::default());
        let got = validate_template(&template, &task, &examples, |_, _| true, &mut got_stats);
        let want = validate_reference(&template, &task, &examples, |_, _| true, &mut want_stats);
        assert_eq!(
            got.as_ref().map(ToString::to_string).as_deref(),
            Some("out(i) = 2 * m(i,j) * x(j) + s * y(j)")
        );
        assert_eq!(got, want);
        assert_eq!(got_stats, want_stats);
        // A verifier that rejects everything drains every lane batch.
        let (mut got_stats, mut want_stats) =
            (ValidationStats::default(), ValidationStats::default());
        assert!(
            validate_template(&template, &task, &examples, |_, _| false, &mut got_stats).is_none()
        );
        assert!(
            validate_reference(&template, &task, &examples, |_, _| false, &mut want_stats)
                .is_none()
        );
        assert_eq!(got_stats, want_stats);
        assert_eq!(got_stats.substitutions_tried, 72, "spans two lane batches");
        assert!(got_stats.io_passes >= 1);
    }
}
