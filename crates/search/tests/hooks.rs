//! The external hooks of a search run — cancellation and live progress —
//! through the public `*_search_hooked` entry points, for both
//! algorithms.

use std::cell::Cell;
use std::sync::Arc;

use gtl_search::{
    bottom_up_search_hooked, top_down_search_hooked, CancelFlag, CheckOutcome, PenaltyContext,
    PenaltySettings, SearchBudget, SearchHooks, SearchOutcome, SearchProgress, StopReason,
    TemplateChecker,
};
use gtl_taco::{parse_program, TacoProgram};
use gtl_template::{
    generate_bu_grammar, generate_td_grammar, learn_weights, templatize, TdSpec, TemplateGrammar,
};

/// Which algorithm a test drives.
#[derive(Debug, Clone, Copy)]
enum Algo {
    TopDown,
    BottomUp,
}

const BOTH: [Algo; 2] = [Algo::TopDown, Algo::BottomUp];

fn grammar(algo: Algo, cands: &[&str], dim_list: Vec<usize>, n_indices: usize) -> TemplateGrammar {
    let templates: Vec<_> = cands
        .iter()
        .map(|s| templatize(&parse_program(s).unwrap()).unwrap())
        .collect();
    let spec = TdSpec {
        dim_list,
        n_indices,
        allow_repeated_index: false,
        include_const: false,
    };
    let mut g = match algo {
        Algo::TopDown => generate_td_grammar(&spec),
        Algo::BottomUp => generate_bu_grammar(&spec),
    };
    learn_weights(&mut g, &templates);
    g
}

/// The gemv-shaped grammar the tests search.
fn gemv(algo: Algo) -> TemplateGrammar {
    grammar(
        algo,
        &["r(i) = m(i,j) * v(j)", "r(i) = m(j,i) * v(i)"],
        vec![1, 2, 1],
        2,
    )
}

fn run(
    algo: Algo,
    g: &TemplateGrammar,
    budget: SearchBudget,
    hooks: &SearchHooks,
    checker: &mut dyn TemplateChecker,
) -> SearchOutcome {
    let ctx = PenaltyContext {
        dim_list: g.dim_list.clone(),
        grammar_has_const: g.nts.constant.is_some(),
        live_ops: g.live_ops(),
        settings: PenaltySettings::all(),
    };
    match algo {
        Algo::TopDown => top_down_search_hooked(g, &ctx, budget, hooks, checker),
        Algo::BottomUp => bottom_up_search_hooked(g, &ctx, budget, hooks, checker),
    }
}

fn large_budget() -> SearchBudget {
    SearchBudget {
        max_attempts: 100_000,
        max_nodes: 1_000_000,
        ..SearchBudget::default()
    }
}

#[test]
fn pre_raised_cancel_stops_before_any_check() {
    for algo in BOTH {
        let cancel = Arc::new(CancelFlag::new());
        cancel.cancel();
        let hooks = SearchHooks::with_cancel(cancel);
        let mut checker =
            |_t: &TacoProgram| -> CheckOutcome { panic!("{algo:?}: must never be checked") };
        let out = run(algo, &gemv(algo), large_budget(), &hooks, &mut checker);
        assert_eq!(out.stop, StopReason::Cancelled, "{algo:?}");
        assert_eq!(out.attempts, 0, "{algo:?}");
    }
}

#[test]
fn cancel_raised_inside_a_check_stops_after_that_check() {
    // The flag is raised inside the fifth check; the search polls it at
    // the next pop, so exactly five checks run.
    for algo in BOTH {
        let cancel = Arc::new(CancelFlag::new());
        let hooks = SearchHooks::with_cancel(Arc::clone(&cancel));
        let calls = Cell::new(0u64);
        let mut checker = |_t: &TacoProgram| {
            calls.set(calls.get() + 1);
            if calls.get() == 5 {
                cancel.cancel();
            }
            CheckOutcome::Failed
        };
        let out = run(algo, &gemv(algo), large_budget(), &hooks, &mut checker);
        assert_eq!(out.stop, StopReason::Cancelled, "{algo:?}");
        assert!(!out.solved(), "{algo:?}");
        assert_eq!(calls.get(), 5, "{algo:?}");
        assert_eq!(out.attempts, 5, "{algo:?}");
    }
}

fn with_progress() -> (SearchHooks, Arc<SearchProgress>) {
    let progress = Arc::new(SearchProgress::new());
    let hooks = SearchHooks {
        cancel: None,
        progress: Some(Arc::clone(&progress)),
    };
    (hooks, progress)
}

#[test]
fn progress_equals_outcome_on_an_exhausted_run() {
    // A one-index, depth-limited space small enough to exhaust.
    for algo in BOTH {
        let g = grammar(algo, &["r(i) = m(i) + v(i)"], vec![1, 1, 1], 1);
        let budget = SearchBudget {
            max_depth: 3,
            ..large_budget()
        };
        let (hooks, progress) = with_progress();
        let mut never = |_t: &TacoProgram| CheckOutcome::Failed;
        let out = run(algo, &g, budget, &hooks, &mut never);
        assert_eq!(out.stop, StopReason::Exhausted, "{algo:?}");
        assert!(out.nodes_expanded > 0, "{algo:?}");
        assert_eq!(progress.nodes(), out.nodes_expanded, "{algo:?}");
        assert_eq!(progress.attempts(), out.attempts, "{algo:?}");
    }
}

#[test]
fn progress_equals_outcome_on_a_solved_run() {
    // The run returns from inside the winning check; the tracker must
    // still count that pop and that attempt.
    let want = parse_program("a(i) = b(j,i) * c(j)").unwrap();
    for algo in BOTH {
        let (hooks, progress) = with_progress();
        let mut checker = |t: &TacoProgram| {
            if *t == want {
                CheckOutcome::Verified(t.clone())
            } else {
                CheckOutcome::Failed
            }
        };
        let out = run(algo, &gemv(algo), large_budget(), &hooks, &mut checker);
        assert_eq!(out.stop, StopReason::Solved, "{algo:?}");
        assert!(out.nodes_expanded > 1, "{algo:?}");
        assert_eq!(progress.nodes(), out.nodes_expanded, "{algo:?}");
        assert_eq!(progress.attempts(), out.attempts, "{algo:?}");
    }
}
