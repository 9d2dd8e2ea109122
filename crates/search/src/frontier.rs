//! The best-first frontier loop behind both search algorithms.
//!
//! Top-down and bottom-up search are the same best-first loop over
//! partial derivation trees; they differ only in how a dequeued tree is
//! judged (skip / check / expand). That per-algorithm logic is the
//! [`Expand`] trait, implemented by the two algorithm modules; the loop
//! itself is [`run_search`], byte-identical in pop order to the paper
//! artifact's single-thread searches.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use gtl_taco::TacoProgram;

use crate::driver::{
    CheckOutcome, Priority, RunState, SearchBudget, SearchHooks, SearchOutcome,
    TemplateChecker,
};
use crate::node::Tree;

/// One prioritised successor produced by [`Expand::children`].
pub(crate) struct Child {
    /// The successor tree.
    pub tree: Tree,
    /// Accumulated rule cost `c(x)`.
    pub cost: f64,
    /// Full priority `f(x) = c(x) + g(x) + X(x)`.
    pub f: f64,
}

/// Algorithm-specific judgement of a dequeued tree.
///
/// Implementations are read-only views of the grammar and penalty
/// context.
pub(crate) trait Expand {
    /// The initial search state.
    fn root(&self) -> Tree;

    /// Whether the node is discarded outright (counted as a queue pop,
    /// but neither checked nor expanded) — the top-down depth limit.
    fn skip(&self, tree: &Tree) -> bool;

    /// The complete template to send to the checker at this node, if any.
    fn candidate(&self, tree: &Tree) -> Option<TacoProgram>;

    /// Prioritised successors of the node (empty for complete trees).
    fn children(&self, tree: &Tree, cost: f64) -> Vec<Child>;
}

/// A frontier entry. Ordering matches the pre-refactor arena encoding:
/// best (lowest) `f` first, ties broken toward the most recently pushed
/// entry.
struct QEntry {
    f: Priority,
    seq: u64,
    tree: Tree,
    cost: f64,
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f && self.seq == other.seq
    }
}

impl Eq for QEntry {}

impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // `Priority` already reverses for min-f-first in a max-heap; on
        // ties the larger (younger) sequence number wins, exactly like
        // the old `(Priority, arena_index)` tuples.
        self.f.cmp(&other.f).then(self.seq.cmp(&other.seq))
    }
}

/// The best-first loop. Preserves the exact pop order, counter updates
/// and stop conditions of the paper artifact's searches.
///
/// External hooks ride along: the cancel flag is polled once per pop
/// (the outcome then reports `Cancelled`) and the loop counters are
/// mirrored into the progress tracker after every iteration and once
/// more on return, so a finished run's tracker equals its outcome. With
/// default hooks both additions are untaken branches, leaving pop order
/// and counters unchanged.
pub(crate) fn run_search(
    exp: &dyn Expand,
    budget: SearchBudget,
    checker: &mut dyn TemplateChecker,
    hooks: &SearchHooks,
) -> SearchOutcome {
    let outcome = best_first(exp, budget, checker, hooks);
    if let Some(progress) = &hooks.progress {
        progress.record(outcome.nodes_expanded, outcome.attempts);
    }
    outcome
}

fn best_first(
    exp: &dyn Expand,
    budget: SearchBudget,
    checker: &mut dyn TemplateChecker,
    hooks: &SearchHooks,
) -> SearchOutcome {
    let mut state = RunState::new(budget);
    let mut queue: BinaryHeap<QEntry> = BinaryHeap::new();
    let mut seq = 0u64;
    queue.push(QEntry {
        f: Priority(0.0),
        seq,
        tree: exp.root(),
        cost: 0.0,
    });

    while let Some(entry) = queue.pop() {
        if hooks.cancelled() {
            return state.outcome_cancelled();
        }
        if state.over_budget() {
            return state.outcome(None, false);
        }
        state.nodes += 1;
        if exp.skip(&entry.tree) {
            continue;
        }
        if let Some(template) = exp.candidate(&entry.tree) {
            state.attempts += 1;
            if let CheckOutcome::Verified(concrete) = checker.check(&template) {
                return state.outcome(Some((template, concrete)), false);
            }
        }
        for child in exp.children(&entry.tree, entry.cost) {
            seq += 1;
            queue.push(QEntry {
                f: Priority(child.f),
                seq,
                tree: child.tree,
                cost: child.cost,
            });
        }
        if let Some(progress) = &hooks.progress {
            progress.record(state.nodes, state.attempts);
        }
    }
    state.outcome(None, true)
}
