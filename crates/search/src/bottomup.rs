//! Algorithm 2: bottom-up A\* over the tail grammar (§5.2).

use gtl_template::{GrammarShape, TemplateGrammar};

use crate::driver::{SearchBudget, SearchHooks, SearchOutcome, TemplateChecker};
use crate::frontier::{run_search, Candidate, Child, Expand};
use crate::node::{Derivation, Rules};
use crate::penalty::{bu_penalty, PenaltyContext};

/// The bottom-up completion estimate g(x) of §5.2: the sum, over chain
/// positions not yet filled, of the minimal cost m(d) of adding a tensor
/// of that position's dimension.
fn bu_remaining_cost(grammar: &TemplateGrammar, rules: &Rules, current_tensors: usize) -> f64 {
    let dims = &grammar.nts.position_dims;
    if dims.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for &d in dims.iter().skip(current_tensors) {
        let Some(&nt) = grammar.nts.dim_nts.get(&d) else {
            continue;
        };
        let m = grammar
            .pcfg
            .rules_of(nt)
            .iter()
            .map(|rid| rules.cost(*rid))
            .fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            total += m;
        }
    }
    total
}

/// Runs the bottom-up A\* enumeration of Algorithm 2.
///
/// Dequeued expressions whose tensor count has reached the predicted
/// dimension-list length have their trailing `TAIL` removed
/// (`RemoveTail`) and are passed to the checker; on failure the original
/// (tail re-appended) expression is expanded further. Fully complete
/// chains are always checked.
///
/// # Panics
///
/// Panics if `grammar` is not bottom-up shaped.
pub fn bottom_up_search(
    grammar: &TemplateGrammar,
    ctx: &PenaltyContext,
    budget: SearchBudget,
    checker: &mut dyn TemplateChecker,
) -> SearchOutcome {
    bottom_up_search_hooked(grammar, ctx, budget, &SearchHooks::default(), checker)
}

/// [`bottom_up_search`] with external hooks attached: the caller's
/// [`CancelFlag`](crate::CancelFlag) stops the run between pops (outcome
/// [`StopReason::Cancelled`](crate::StopReason::Cancelled)) and the
/// caller's [`SearchProgress`](crate::SearchProgress) mirrors the pop and
/// attempt counters while it runs. Default hooks give exactly
/// [`bottom_up_search`].
///
/// # Panics
///
/// Panics if `grammar` is not bottom-up shaped.
pub fn bottom_up_search_hooked(
    grammar: &TemplateGrammar,
    ctx: &PenaltyContext,
    budget: SearchBudget,
    hooks: &SearchHooks,
    checker: &mut dyn TemplateChecker,
) -> SearchOutcome {
    let exp = BuExpand::new(grammar, ctx);
    run_search(&exp, budget, checker, hooks)
}

/// The bottom-up judgement of a dequeued chain derivation (Algorithm 2
/// lines 5–12).
pub(crate) struct BuExpand<'a> {
    grammar: &'a TemplateGrammar,
    ctx: &'a PenaltyContext,
    rules: Rules,
    /// Number of tensors that triggers validation (|tensors(x)| = |L|,
    /// Algorithm 2 line 5). With no prediction (full grammar) every
    /// strippable prefix is validated.
    predicted_rhs: Option<usize>,
    /// g(x) by the number of right-hand-side operands placed or
    /// promised; every count past the end maps to the last entry (0).
    remaining: Vec<f64>,
}

impl<'a> BuExpand<'a> {
    /// Builds the expander; panics if `grammar` is not bottom-up shaped.
    pub(crate) fn new(grammar: &'a TemplateGrammar, ctx: &'a PenaltyContext) -> BuExpand<'a> {
        assert_eq!(
            grammar.shape,
            GrammarShape::BottomUp,
            "bottom_up_search requires a bottom-up grammar"
        );
        let positions = grammar.nts.position_dims.len();
        let predicted_rhs = (positions > 0).then_some(positions);
        let rules = Rules::new(grammar);
        let remaining = (0..=positions)
            .map(|n| bu_remaining_cost(grammar, &rules, n))
            .collect();
        BuExpand {
            grammar,
            ctx,
            rules,
            predicted_rhs,
            remaining,
        }
    }
}

impl Expand for BuExpand<'_> {
    fn rules(&self) -> &Rules {
        &self.rules
    }

    fn skip(&self, _d: &Derivation) -> bool {
        false
    }

    // Lines 5–11: when big enough (or complete), strip the tail and
    // validate. Algorithm 2 line 5 gates validation strictly on the
    // predicted tensor count — shorter complete chains are never
    // validated, which is why the bottom-up variant leans entirely on
    // dimension prediction. Without a prediction (full grammar) every
    // strippable prefix is validated instead.
    fn candidate<'d>(&self, d: &'d Derivation) -> Option<Candidate<'d>> {
        let ready = match self.predicted_rhs {
            Some(n) => d.facts().rhs_operand_slots as usize >= n,
            None => true,
        };
        if !ready {
            return None;
        }
        d.bu_program(&self.rules, &self.grammar.nts.tails)
            .map(Candidate::Program)
    }

    // Line 12: expand the leftmost nonterminal.
    fn children(&self, d: &Derivation, out: &mut Vec<Child>) {
        let Some(nt) = d.leftmost_hole() else {
            return;
        };
        for &rule in self.grammar.pcfg.rules_of(nt) {
            let rule_cost = self.rules.cost(rule);
            if rule_cost.is_infinite() {
                continue;
            }
            let c = d.cost() + rule_cost;
            let facts = d.child(&self.rules, rule).facts;
            let slots = (facts.rhs_operand_slots as usize).min(self.remaining.len() - 1);
            let g = self.remaining[slots];
            let x = bu_penalty(&facts, self.ctx);
            if x.is_infinite() {
                continue;
            }
            out.push(Child { rule, f: c + g + x });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::CheckOutcome;
    use gtl_taco::{parse_program, TacoProgram};
    use gtl_template::{generate_bu_grammar, learn_weights, templatize, TdSpec};

    fn grammar_with(cands: &[&str], dims: Vec<usize>, n_indices: usize) -> TemplateGrammar {
        let templates: Vec<_> = cands
            .iter()
            .map(|s| templatize(&parse_program(s).unwrap()).unwrap())
            .collect();
        let mut g = generate_bu_grammar(&TdSpec {
            dim_list: dims,
            n_indices,
            allow_repeated_index: false,
            include_const: false,
        });
        learn_weights(&mut g, &templates);
        g
    }

    fn ctx_for(g: &TemplateGrammar) -> PenaltyContext {
        PenaltyContext {
            dim_list: g.dim_list.clone(),
            grammar_has_const: g.nts.constant.is_some(),
            live_ops: g.live_ops(),
            settings: crate::penalty::PenaltySettings::all(),
        }
    }

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
    fn finds_gemv_template() {
        let g = grammar_with(
            &["r(i) = m(i,j) * v(j)", "r(i) = m(j,i) * v(i)"],
            vec![1, 2, 1],
            2,
        );
        let ctx = ctx_for(&g);
        let mut checker = accept_only("a(i) = b(i,j) * c(j)");
        let out = bottom_up_search(&g, &ctx, SearchBudget::default(), &mut checker);
        assert!(out.solved());
    }

    #[test]
    fn chain_reaches_precedence_shapes() {
        // a*b + c is a precedence-respecting chain.
        let g = grammar_with(
            &["o(i) = x(i) * y(i) + z(i)"],
            vec![1, 1, 1, 1],
            1,
        );
        let ctx = ctx_for(&g);
        let mut checker = accept_only("a(i) = b(i) * c(i) + d(i)");
        let out = bottom_up_search(&g, &ctx, SearchBudget::default(), &mut checker);
        assert!(out.solved());
    }

    #[test]
    fn cannot_reach_balanced_ast() {
        // (b + c) * d is not expressible as a chain: search must fail.
        let g = grammar_with(
            &["o(i) = x(i) + y(i) * z(i)"],
            vec![1, 1, 1, 1],
            1,
        );
        let ctx = ctx_for(&g);
        let mut checker = accept_only("a(i) = (b(i) + c(i)) * d(i)");
        let out = bottom_up_search(
            &g,
            &ctx,
            SearchBudget {
                max_nodes: 50_000,
                max_attempts: 2_000,
                ..SearchBudget::default()
            },
            &mut checker,
        );
        assert!(!out.solved(), "RQ2: bottom-up cannot express balanced ASTs");
    }

    #[test]
    fn validates_at_predicted_size() {
        let g = grammar_with(&["r(i) = m(i,j) * v(j)"], vec![1, 2, 1], 2);
        let ctx = ctx_for(&g);
        let mut sizes: Vec<usize> = Vec::new();
        let mut spy = |t: &TacoProgram| {
            sizes.push(t.rhs.operands().len());
            CheckOutcome::Failed
        };
        let _ = bottom_up_search(
            &g,
            &ctx,
            SearchBudget {
                max_attempts: 20,
                ..SearchBudget::default()
            },
            &mut spy,
        );
        assert!(!sizes.is_empty());
        assert!(
            sizes.iter().all(|&s| s == 2),
            "validation only at the predicted tensor count: {sizes:?}"
        );
    }

    #[test]
    fn fewer_attempts_than_topdown_on_common_query() {
        // The BU grammar fixes dimension order, so it enumerates fewer
        // templates than TD on the same query (Table 1's attempts gap).
        let cands = [
            "r(i) = m(i,j) * v(j)",
            "r(i) = m(j,i) * v(i)",
            "r(i) = m(i,j) + v(i)",
        ];
        let bu = grammar_with(&cands, vec![1, 2, 1], 2);
        let bu_ctx = ctx_for(&bu);
        let mut bu_count = 0u64;
        let mut bu_spy = |_t: &TacoProgram| {
            bu_count += 1;
            CheckOutcome::Failed
        };
        let budget = SearchBudget {
            max_nodes: 20_000,
            max_attempts: 10_000,
            ..SearchBudget::default()
        };
        let out_bu = bottom_up_search(&bu, &bu_ctx, budget, &mut bu_spy);

        let templates: Vec<_> = cands
            .iter()
            .map(|s| {
                gtl_template::templatize(&parse_program(s).unwrap()).unwrap()
            })
            .collect();
        let mut td = gtl_template::generate_td_grammar(&TdSpec {
            dim_list: vec![1, 2, 1],
            n_indices: 2,
            allow_repeated_index: false,
            include_const: false,
        });
        learn_weights(&mut td, &templates);
        let td_ctx = PenaltyContext {
            dim_list: td.dim_list.clone(),
            grammar_has_const: td.nts.constant.is_some(),
            live_ops: td.live_ops(),
            settings: crate::penalty::PenaltySettings::all(),
        };
        let mut td_count = 0u64;
        let mut td_spy = |_t: &TacoProgram| {
            td_count += 1;
            CheckOutcome::Failed
        };
        let out_td = crate::topdown::top_down_search(&td, &td_ctx, budget, &mut td_spy);
        assert!(
            out_bu.attempts <= out_td.attempts,
            "BU ({}) should enumerate no more templates than TD ({})",
            out_bu.attempts,
            out_td.attempts
        );
    }
}
