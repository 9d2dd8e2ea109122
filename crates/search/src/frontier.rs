//! The best-first frontier loop behind both search algorithms.
//!
//! Top-down and bottom-up search are the same best-first loop over
//! leftmost derivations; they differ only in how a dequeued derivation is
//! judged (skip / check / expand). That per-algorithm logic is the
//! [`Expand`] trait, implemented by the two algorithm modules; the loop
//! itself is [`run_search`], byte-identical in pop order to the paper
//! artifact's single-thread searches.
//!
//! The frontier holds plain data. A heap entry is 16 bytes:
//! `(f, node, len)`, where `node` is a `u32` index into an arena of
//! [`Node`]s (each a parent index plus one rule) and `len` is the number
//! of rules in its derivation. The arena index doubles as the push
//! sequence number that breaks priority ties. A popped entry is replayed
//! into one reusable [`Derivation`], which rewinds to the prefix it
//! shares with the previous pop and applies only the rest; children are
//! scored from it and pushed as arena slots, and only a popped complete
//! derivation becomes a [`TacoProgram`]. A finished search clears the
//! two vectors and, if they grew large, keeps them for the next one.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::RangeInclusive;
use std::sync::{Mutex, MutexGuard, PoisonError};

use gtl_grammar::RuleId;
use gtl_taco::TacoProgram;

use crate::driver::{
    CheckOutcome, Priority, RunState, SearchBudget, SearchHooks, SearchOutcome,
    TemplateChecker,
};
use crate::node::{Derivation, Node, Rules};

/// One prioritised successor produced by [`Expand::children`]: the
/// popped derivation extended by `rule`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Child {
    /// The rule applied to the leftmost hole.
    pub rule: RuleId,
    /// Full priority `f(x) = c(x) + g(x) + X(x)`.
    pub f: f64,
}

/// Algorithm-specific judgement of a dequeued derivation.
///
/// Implementations are read-only views of the grammar and penalty
/// context.
pub(crate) trait Expand {
    /// The grammar's interned rules, which popped nodes are replayed
    /// against.
    fn rules(&self) -> &Rules;

    /// Whether the node is discarded outright (counted as a queue pop,
    /// but neither checked nor expanded) — the top-down depth limit.
    fn skip(&self, d: &Derivation) -> bool;

    /// The complete template to send to the checker at this node, if any.
    fn candidate(&self, d: &Derivation) -> Option<TacoProgram>;

    /// Appends the prioritised successors of the node (none for a
    /// complete derivation) to `out`, in push order.
    fn children(&self, d: &Derivation, out: &mut Vec<Child>);
}

/// The arena capacities, in entries, at which [`run_search`] keeps a
/// search's storage for a later one: an arena of 1 to 8 MiB, and a heap
/// of at most as many entries. A smaller frontier is cheap to grow again and finds room in memory
/// the process has freed; one grown past the range by an unusually large
/// budget should give its memory back.
const KEEP_NODES: RangeInclusive<usize> = (1 << 17)..=(1 << 20);

/// Frontier storage kept between searches: an empty arena and heap
/// vector. A budget-exhausting search grows them to MiBs by doubling,
/// and where the allocator finds room for each doubled block (and so the
/// process's peak memory) varied from run to run. Reusing them, a later
/// search neither grows nor moves them. Concurrent searches that find
/// the storage taken grow their own, and only the largest is kept.
static SPARE: Mutex<(Vec<Node>, Vec<QEntry>)> = Mutex::new((Vec::new(), Vec::new()));

/// A frontier entry: best (lowest) `f` first, ties broken toward the
/// most recently pushed entry (the larger arena index).
struct QEntry {
    f: Priority,
    /// The arena index of the state.
    node: u32,
    /// The number of rules in its derivation.
    len: u32,
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f && self.node == other.node
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
        // ties the younger entry wins.
        self.f.cmp(&other.f).then(self.node.cmp(&other.node))
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
    let (mut arena, queue) = std::mem::take(&mut *spare());
    let mut queue = BinaryHeap::from(queue);
    let outcome = best_first(exp, budget, checker, hooks, &mut arena, &mut queue);
    if KEEP_NODES.contains(&arena.capacity()) && queue.capacity() <= *KEEP_NODES.end() {
        arena.clear();
        queue.clear();
        let mut spare = spare();
        if spare.0.capacity() < arena.capacity() {
            *spare = (arena, queue.into_vec());
        }
    }
    if let Some(progress) = &hooks.progress {
        progress.record(outcome.nodes_expanded, outcome.attempts);
    }
    outcome
}

fn spare() -> MutexGuard<'static, (Vec<Node>, Vec<QEntry>)> {
    SPARE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn best_first(
    exp: &dyn Expand,
    budget: SearchBudget,
    checker: &mut dyn TemplateChecker,
    hooks: &SearchHooks,
    arena: &mut Vec<Node>,
    queue: &mut BinaryHeap<QEntry>,
) -> SearchOutcome {
    debug_assert!(arena.is_empty() && queue.is_empty());
    let mut state = RunState::new(budget);
    arena.push(Node::ROOT);
    let mut derivation = Derivation::default();
    let mut children = Vec::new();
    queue.push(QEntry {
        f: Priority(0.0),
        node: 0,
        len: 0,
    });

    while let Some(entry) = queue.pop() {
        if hooks.cancelled() {
            return state.outcome_cancelled();
        }
        if state.over_budget() {
            return state.outcome(None, false);
        }
        state.nodes += 1;
        derivation.replay(exp.rules(), arena, entry.node, entry.len);
        if exp.skip(&derivation) {
            continue;
        }
        if let Some(template) = exp.candidate(&derivation) {
            state.attempts += 1;
            if let CheckOutcome::Verified(concrete) = checker.check(&template) {
                return state.outcome(Some((template, concrete)), false);
            }
        }
        children.clear();
        exp.children(&derivation, &mut children);
        for child in &children {
            let node = u32::try_from(arena.len()).expect("fewer than 2^32 pushed states");
            arena.push(Node {
                parent: entry.node,
                rule: child.rule,
            });
            queue.push(QEntry {
                f: Priority(child.f),
                node,
                len: entry.len + 1,
            });
        }
        if let Some(progress) = &hooks.progress {
            progress.record(state.nodes, state.attempts);
        }
    }
    state.outcome(None, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frontier's memory is its entries plus the arena: a new field in
    /// either must be a deliberate choice, not a silent growth.
    #[test]
    fn frontier_entries_stay_small() {
        assert_eq!(std::mem::size_of::<QEntry>(), 16);
        assert_eq!(std::mem::size_of::<Node>(), 8);
    }
}
