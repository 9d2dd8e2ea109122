//! Algorithm 1: top-down weighted A\* with penalties (§5.1).

use gtl_taco::RhsTok;
use gtl_template::{GrammarShape, TemplateGrammar};

use crate::driver::{SearchBudget, SearchHooks, SearchOutcome, TemplateChecker};
use crate::frontier::{run_search, Candidate, Child, Expand};
use crate::node::{Derivation, Rules};
use crate::penalty::{td_penalty, PenaltyContext};

/// The top-down judgement of a dequeued partial derivation (Algorithm 1
/// lines 5–12).
pub(crate) struct TdExpand<'a> {
    grammar: &'a TemplateGrammar,
    ctx: &'a PenaltyContext,
    rules: Rules,
    max_depth: usize,
}

impl<'a> TdExpand<'a> {
    /// Builds the expander; panics if `grammar` is not top-down shaped.
    pub(crate) fn new(
        grammar: &'a TemplateGrammar,
        ctx: &'a PenaltyContext,
        max_depth: usize,
    ) -> TdExpand<'a> {
        assert_eq!(
            grammar.shape,
            GrammarShape::TopDown,
            "top_down_search requires a top-down grammar"
        );
        TdExpand {
            grammar,
            ctx,
            rules: Rules::new(grammar),
            max_depth,
        }
    }

    fn too_deep(&self, depth: u32) -> bool {
        depth as usize > self.max_depth
    }
}

impl Expand for TdExpand<'_> {
    fn rules(&self) -> &Rules {
        &self.rules
    }

    // Depth limit (Algorithm 1 line 5).
    fn skip(&self, d: &Derivation) -> bool {
        self.too_deep(d.depth())
    }

    // Lines 7–11: complete derivations become checker candidates.
    fn candidate<'r>(
        &'r self,
        d: &Derivation,
        toks: &mut Vec<RhsTok<'r>>,
    ) -> Option<Candidate<'r>> {
        d.facts()
            .complete
            .then(|| Candidate::Tokens(d.td_tokens(&self.rules, toks)))
    }

    // Line 12: expand the leftmost nonterminal with every rule.
    fn children(&self, d: &Derivation, out: &mut Vec<Child>) {
        let Some(nt) = d.leftmost_hole() else {
            return;
        };
        for &rule in self.grammar.pcfg.rules_of(nt) {
            let rule_cost = self.rules.cost(rule);
            if rule_cost.is_infinite() {
                continue;
            }
            let step = d.child(&self.rules, rule);
            if self.too_deep(step.depth) {
                continue;
            }
            let c = d.cost() + rule_cost;
            let g = d.child_remaining_cost(&self.rules, rule);
            if g.is_infinite() {
                continue;
            }
            let x = td_penalty(&step.facts, self.ctx);
            if x.is_infinite() {
                continue;
            }
            out.push(Child { rule, f: c + g + x });
        }
    }
}

/// Runs the top-down weighted A\* enumeration of Algorithm 1 over a
/// (learned) top-down template grammar.
///
/// The queue holds partial leftmost derivations ordered by
/// `f(x) = c(x) + g(x) + X(x)`:
/// `c` accumulates `-log2 P` of applied rules, `g` sums the
/// Viterbi-inside heuristic over remaining holes, and `X` is the penalty
/// function. Complete templates go to `checker` (validation §6 +
/// verification §7); the first verified template is returned.
///
/// # Panics
///
/// Panics if `grammar` is not top-down shaped.
pub fn top_down_search(
    grammar: &TemplateGrammar,
    ctx: &PenaltyContext,
    budget: SearchBudget,
    checker: &mut dyn TemplateChecker,
) -> SearchOutcome {
    top_down_search_hooked(grammar, ctx, budget, &SearchHooks::default(), checker)
}

/// [`top_down_search`] with external hooks attached: the caller's
/// [`CancelFlag`](crate::CancelFlag) stops the run between pops (outcome
/// [`StopReason::Cancelled`](crate::StopReason::Cancelled)) and the
/// caller's [`SearchProgress`](crate::SearchProgress) mirrors the pop and
/// attempt counters while it runs. Default hooks give exactly
/// [`top_down_search`].
///
/// # Panics
///
/// Panics if `grammar` is not top-down shaped.
pub fn top_down_search_hooked(
    grammar: &TemplateGrammar,
    ctx: &PenaltyContext,
    budget: SearchBudget,
    hooks: &SearchHooks,
    checker: &mut dyn TemplateChecker,
) -> SearchOutcome {
    let exp = TdExpand::new(grammar, ctx, budget.max_depth);
    run_search(&exp, budget, checker, hooks)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::driver::CheckOutcome;
    use crate::driver::StopReason;
    use crate::node::spelled;
    use gtl_taco::{parse_program, TacoProgram, TemplateRef};
    use gtl_template::{generate_td_grammar, learn_weights, templatize, TdSpec};

    pub(crate) fn grammar_with(
        cands: &[&str],
        dims: Vec<usize>,
        n_indices: usize,
    ) -> TemplateGrammar {
        let templates: Vec<_> = cands
            .iter()
            .map(|s| templatize(&parse_program(s).unwrap()).unwrap())
            .collect();
        let mut g = generate_td_grammar(&TdSpec {
            dim_list: dims,
            n_indices,
            allow_repeated_index: false,
            include_const: false,
        });
        learn_weights(&mut g, &templates);
        g
    }

    pub(crate) fn ctx_for(g: &TemplateGrammar) -> PenaltyContext {
        PenaltyContext {
            dim_list: g.dim_list.clone(),
            grammar_has_const: g.nts.constant.is_some(),
            live_ops: g.live_ops(),
            settings: crate::penalty::PenaltySettings::all(),
        }
    }

    /// Accepts exactly one target template string.
    fn accept_only(target: &str) -> impl FnMut(&TacoProgram) -> CheckOutcome {
        let want = parse_program(target).unwrap();
        move |t: &TacoProgram| {
            if *t == want {
                CheckOutcome::Verified(t.clone())
            } else {
                CheckOutcome::Failed
            }
        }
    }

    #[test]
    fn finds_gemv_template_quickly() {
        // Candidates close to the paper's Response 1 (none exactly the
        // target template's index pattern is guaranteed).
        let g = grammar_with(
            &[
                "r(i) = m(i,j) * v(j)",
                "r(i) = m(j,i) * v(i)",
                "r(i) = m(i,j) * v(i)",
            ],
            vec![1, 2, 1],
            2,
        );
        let ctx = ctx_for(&g);
        let mut checker = accept_only("a(i) = b(i,j) * c(j)");
        let out = top_down_search(&g, &ctx, SearchBudget::default(), &mut checker);
        assert!(out.solved());
        assert!(out.attempts <= 10, "guided search should be quick: {}", out.attempts);
    }

    #[test]
    fn reaches_low_probability_regions() {
        // Target uses an index pattern no candidate suggested; default
        // weight 1 keeps it reachable.
        let g = grammar_with(&["r(i) = m(i,j) * v(j)"], vec![1, 2, 1], 2);
        let ctx = ctx_for(&g);
        let mut checker = accept_only("a(i) = b(j,i) * c(j)");
        let out = top_down_search(&g, &ctx, SearchBudget::default(), &mut checker);
        assert!(out.solved());
    }

    #[test]
    fn finds_balanced_ast() {
        // (b + c) * d: requires the tree-shaped derivation.
        let g = grammar_with(
            &[
                "o(i) = (x(i) + y(i)) * z(i)",
                "o(i) = x(i) + y(i) * z(i)",
            ],
            vec![1, 1, 1, 1],
            1,
        );
        let ctx = ctx_for(&g);
        let mut checker = accept_only("a(i) = (b(i) + c(i)) * d(i)");
        let out = top_down_search(&g, &ctx, SearchBudget::default(), &mut checker);
        assert!(out.solved(), "top-down must reach balanced ASTs");
    }

    #[test]
    fn exhausts_on_impossible_target() {
        let g = grammar_with(&["r(i) = m(i,j) * v(j)"], vec![1, 2, 1], 2);
        let ctx = ctx_for(&g);
        // Target needs 3 RHS tensors; grammar has only b, c.
        let mut never = |_t: &TacoProgram| CheckOutcome::Failed;
        let out = top_down_search(
            &g,
            &ctx,
            SearchBudget {
                max_nodes: 20_000,
                max_attempts: 500,
                ..SearchBudget::default()
            },
            &mut never,
        );
        assert!(!out.solved());
        assert!(matches!(
            out.stop,
            StopReason::BudgetExceeded | StopReason::Exhausted
        ));
        assert!(out.attempts > 0);
    }

    #[test]
    fn respects_attempt_budget() {
        let g = grammar_with(&["r(i) = m(i,j) * v(j)"], vec![1, 2, 1], 2);
        let ctx = ctx_for(&g);
        let mut never = |_t: &TacoProgram| CheckOutcome::Failed;
        let out = top_down_search(
            &g,
            &ctx,
            SearchBudget {
                max_attempts: 3,
                ..SearchBudget::default()
            },
            &mut never,
        );
        assert!(out.attempts <= 4);
    }

    /// Overrides `check_ref`: asks for every third template's program,
    /// and verifies the target from its tokens alone.
    struct Asking {
        want: TacoProgram,
        seen: u64,
        asked: u64,
    }

    impl TemplateChecker for Asking {
        fn check(&mut self, _template: &TacoProgram) -> CheckOutcome {
            panic!("a top-down search hands templates over as tokens");
        }

        fn check_ref(
            &mut self,
            template: TemplateRef<'_>,
            program: &dyn Fn() -> TacoProgram,
        ) -> CheckOutcome {
            self.seen += 1;
            if spelled(template.lhs, template.rhs) == self.want {
                return CheckOutcome::Verified(self.want.clone());
            }
            if self.seen.is_multiple_of(3) {
                self.asked += 1;
                assert_eq!(program(), spelled(template.lhs, template.rhs));
            }
            CheckOutcome::Failed
        }
    }

    #[test]
    fn programs_are_built_only_when_asked_and_for_the_winner() {
        use crate::frontier::tests::MATERIALISED;

        let g = grammar_with(&["r(i) = m(j,i) * v(i)"], vec![1, 2, 1], 2);
        let ctx = ctx_for(&g);
        for (target, solves) in [("a(i) = b(i,j) * c(j)", true), ("a(i) = b(i)", false)] {
            let mut checker = Asking {
                want: parse_program(target).unwrap(),
                seen: 0,
                asked: 0,
            };
            let before = MATERIALISED.with(|n| n.get());
            let budget = SearchBudget {
                max_attempts: 200,
                ..SearchBudget::default()
            };
            let out = top_down_search(&g, &ctx, budget, &mut checker);
            let built = MATERIALISED.with(|n| n.get()) - before;
            assert_eq!(out.solved(), solves, "{target}");
            assert_eq!(out.attempts, checker.seen, "{target}");
            assert!(checker.asked > 0, "{target}: {} attempts", out.attempts);
            assert_eq!(built, checker.asked + u64::from(solves), "{target}");
            if solves {
                assert_eq!(out.template, Some(checker.want));
            }
        }
    }

    #[test]
    fn probability_guides_order() {
        // With b(i,j) heavily favoured, the b(i,j)-first template must be
        // attempted before the b(j,i) one.
        let g = grammar_with(
            &[
                "r(i) = m(i,j) * v(j)",
                "r(i) = m(i,j) * v(j)",
                "r(i) = m(i,j) * v(j)",
                "r(i) = m(j,i) * v(j)",
            ],
            vec![1, 2, 1],
            2,
        );
        let ctx = ctx_for(&g);
        let mut seen: Vec<String> = Vec::new();
        let mut spy = |t: &TacoProgram| {
            seen.push(t.to_string());
            CheckOutcome::Failed
        };
        let _ = top_down_search(
            &g,
            &ctx,
            SearchBudget {
                max_attempts: 6,
                ..SearchBudget::default()
            },
            &mut spy,
        );
        let pos_ij = seen.iter().position(|s| s.contains("b(i,j)"));
        let pos_ji = seen.iter().position(|s| s.contains("b(j,i)"));
        match (pos_ij, pos_ji) {
            (Some(a), Some(b)) => assert!(a < b),
            (Some(_), None) => {}
            other => panic!("unexpected enumeration order: {other:?} in {seen:?}"),
        }
    }
}
