//! The best-first frontier loop behind both search algorithms.
//!
//! Top-down and bottom-up search are the same best-first loop over
//! leftmost derivations; they differ only in how a dequeued derivation is
//! judged (skip / check / expand). That per-algorithm logic is the
//! [`Expand`] trait, implemented by the two algorithm modules; the loop
//! itself is [`run_search`], byte-identical in pop order to the paper
//! artifact's single-thread searches.
//!
//! The frontier holds plain data. A queued state is an 8-byte entry
//! `(node, len)`, where `node` is a `u32` index into an arena of
//! [`Node`]s (each a parent index plus one rule) and `len` is the number
//! of rules in its derivation. The queue is a [`LevelQueue`]: one LIFO
//! stack of entries per distinct priority `f`, and the live levels in
//! order. Learned weights put almost every child on a few priority
//! plateaus, so a push finds its level in O(1) nearly always and a pop
//! is O(1). The arena index doubles as the push sequence number, so the
//! top of a level's stack is the youngest entry at that `f`: the tie
//! the paper artifact's heap breaks toward. A popped entry is replayed
//! into one reusable [`Derivation`], which rewinds to the prefix it
//! shares with the previous pop and applies only the rest; children are
//! scored from it and pushed as arena slots. A popped complete top-down
//! derivation goes to the checker as tokens in one reused buffer, and
//! becomes a [`TacoProgram`] only if the checker asks for it or it
//! wins. A finished search clears the arena and the queue and, if they
//! grew large, keeps them for the next one.

use std::ops::RangeInclusive;
use std::sync::{Mutex, MutexGuard, PoisonError};

use gtl_grammar::RuleId;
use gtl_taco::{AccessRef, RhsTok, TacoProgram, TemplateRef};

use crate::driver::{
    CheckOutcome, RunState, SearchBudget, SearchHooks, SearchOutcome, TemplateChecker,
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

/// A complete template found at a popped node.
pub(crate) enum Candidate<'r> {
    /// A top-down derivation: its LHS, with its right-hand side in the
    /// token buffer passed to [`Expand::candidate`].
    Tokens(AccessRef<'r>),
    /// A bottom-up chain with its open tail removed.
    Program(TacoProgram),
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

    /// The complete template to send to the checker at this node, if
    /// any. A top-down template is written into `toks`.
    fn candidate<'r>(
        &'r self,
        d: &Derivation,
        toks: &mut Vec<RhsTok<'r>>,
    ) -> Option<Candidate<'r>>;

    /// Appends the prioritised successors of the node (none for a
    /// complete derivation) to `out`, in push order.
    fn children(&self, d: &Derivation, out: &mut Vec<Child>);
}

/// The arena capacities, in entries, at which [`run_search`] keeps a
/// search's storage for a later one: an arena of 1 to 8 MiB, and a queue
/// pool of at most as many entries. A smaller frontier is cheap to grow
/// again and finds room in memory the process has freed; one grown past
/// the range by an unusually large budget should give its memory back.
const KEEP_NODES: RangeInclusive<usize> = (1 << 17)..=(1 << 20);

/// Frontier storage kept between searches: an empty arena and queue. A
/// budget-exhausting search grows them to MiBs by doubling, and where
/// the allocator finds room for each doubled block (and so the process's
/// peak memory) varied from run to run. Reusing them, a later search
/// neither grows nor moves them. Concurrent searches that find the
/// storage taken grow their own, and only the largest is kept.
static SPARE: Mutex<(Vec<Node>, LevelQueue)> = Mutex::new((Vec::new(), LevelQueue::new()));

/// A queued state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry {
    /// The arena index of the state.
    node: u32,
    /// The number of rules in its derivation.
    len: u32,
}

/// Entries per pool chunk.
const CHUNK: usize = 64;

/// The end of a chunk chain.
const NIL: u32 = u32::MAX;

/// One live priority level: a LIFO stack of the entries queued at one
/// `f`, held as a chain of pool chunks, the top chunk first. Never empty.
struct Level {
    f: f64,
    /// The chunk holding the top of the stack.
    top: u32,
    /// How many entries of the top chunk are in use (1 to [`CHUNK`]).
    fill: u32,
}

/// Fixed-size chunks of entries shared by every level, with a free list.
struct Chunks {
    /// Chunk `c` is `pool[c * CHUNK..][..CHUNK]`.
    pool: Vec<Entry>,
    /// Per chunk: the chunk below it in its level's chain, or, for a
    /// free chunk, the next free one.
    below: Vec<u32>,
    /// The first free chunk.
    free: u32,
}

impl Chunks {
    /// A chunk on top of `below`, reusing a free one if there is one.
    fn alloc(&mut self, below: u32) -> u32 {
        let c = if self.free == NIL {
            self.pool.resize(self.pool.len() + CHUNK, Entry::default());
            self.below.push(NIL);
            u32::try_from(self.below.len() - 1).expect("fewer than 2^32 chunks")
        } else {
            let c = self.free;
            self.free = self.below[c as usize];
            c
        };
        self.below[c as usize] = below;
        c
    }

    /// Frees chunk `c` and returns the chunk below it.
    fn release(&mut self, c: u32) -> u32 {
        let below = self.below[c as usize];
        self.below[c as usize] = self.free;
        self.free = c;
        below
    }

    fn slot(&mut self, c: u32, i: u32) -> &mut Entry {
        &mut self.pool[c as usize * CHUNK + i as usize]
    }
}

/// The frontier: lowest `f` first, and within one `f` the most recently
/// pushed entry first. Pushes with increasing arena indices make that
/// the order of a binary heap on `(f, node)`, ties included, with `f`
/// compared by [`f64::total_cmp`] (so −0.0 and +0.0, and adjacent ulps,
/// are distinct levels).
struct LevelQueue {
    /// The live levels, highest `f` first, so the lowest is last.
    levels: Vec<Level>,
    chunks: Chunks,
    /// The level of the last push, tried first by the next one. Only a
    /// guess: inserts and removals shift the levels under it.
    hint: usize,
}

impl Default for LevelQueue {
    fn default() -> Self {
        LevelQueue::new()
    }
}

impl LevelQueue {
    /// An empty queue that owns no memory.
    const fn new() -> LevelQueue {
        LevelQueue {
            levels: Vec::new(),
            chunks: Chunks {
                pool: Vec::new(),
                below: Vec::new(),
                free: NIL,
            },
            hint: 0,
        }
    }

    /// Queues `entry` at priority `f`.
    fn push(&mut self, f: f64, entry: Entry) {
        let i = match self.levels.get(self.hint) {
            Some(level) if level.f.to_bits() == f.to_bits() => self.hint,
            _ => match self.levels.binary_search_by(|level| f.total_cmp(&level.f)) {
                Ok(i) => i,
                Err(i) => {
                    let top = self.chunks.alloc(NIL);
                    self.levels.insert(i, Level { f, top, fill: 0 });
                    i
                }
            },
        };
        self.hint = i;
        let level = &mut self.levels[i];
        if level.fill as usize == CHUNK {
            level.top = self.chunks.alloc(level.top);
            level.fill = 0;
        }
        *self.chunks.slot(level.top, level.fill) = entry;
        level.fill += 1;
    }

    /// Takes the youngest entry of the lowest level.
    fn pop(&mut self) -> Option<Entry> {
        let level = self.levels.last_mut()?;
        level.fill -= 1;
        let entry = *self.chunks.slot(level.top, level.fill);
        if level.fill == 0 {
            match self.chunks.release(level.top) {
                NIL => {
                    self.levels.pop();
                }
                below => {
                    level.top = below;
                    level.fill = CHUNK as u32;
                }
            }
        }
        Some(entry)
    }

    /// Whether no entry is queued.
    fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Empties the queue, keeping its memory.
    fn clear(&mut self) {
        self.levels.clear();
        self.chunks.pool.clear();
        self.chunks.below.clear();
        self.chunks.free = NIL;
        self.hint = 0;
    }

    /// The pool's capacity, in entries.
    fn capacity(&self) -> usize {
        self.chunks.pool.capacity()
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
    let (mut arena, mut queue) = std::mem::take(&mut *spare());
    let outcome = best_first(exp, budget, checker, hooks, &mut arena, &mut queue);
    if KEEP_NODES.contains(&arena.capacity()) && queue.capacity() <= *KEEP_NODES.end() {
        arena.clear();
        queue.clear();
        let mut spare = spare();
        if spare.0.capacity() < arena.capacity() {
            *spare = (arena, queue);
        }
    }
    if let Some(progress) = &hooks.progress {
        progress.record(outcome.nodes_expanded, outcome.attempts);
    }
    outcome
}

fn spare() -> MutexGuard<'static, (Vec<Node>, LevelQueue)> {
    SPARE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn best_first(
    exp: &dyn Expand,
    budget: SearchBudget,
    checker: &mut dyn TemplateChecker,
    hooks: &SearchHooks,
    arena: &mut Vec<Node>,
    queue: &mut LevelQueue,
) -> SearchOutcome {
    debug_assert!(arena.is_empty() && queue.is_empty());
    let mut state = RunState::new(budget);
    arena.push(Node::ROOT);
    let mut derivation = Derivation::default();
    let mut toks = Vec::new();
    let mut children = Vec::new();
    queue.push(0.0, Entry { node: 0, len: 0 });

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
        if let Some(candidate) = exp.candidate(&derivation, &mut toks) {
            state.attempts += 1;
            let solution = match candidate {
                Candidate::Program(template) => match checker.check(&template) {
                    CheckOutcome::Verified(concrete) => Some((template, concrete)),
                    CheckOutcome::Failed => None,
                },
                Candidate::Tokens(lhs) => {
                    let template = TemplateRef { lhs, rhs: &toks };
                    let program = || materialise(&derivation, exp.rules());
                    match checker.check_ref(template, &program) {
                        CheckOutcome::Verified(concrete) => Some((program(), concrete)),
                        CheckOutcome::Failed => None,
                    }
                }
            };
            if solution.is_some() {
                return state.outcome(solution, false);
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
            queue.push(
                child.f,
                Entry {
                    node,
                    len: entry.len + 1,
                },
            );
        }
        if let Some(progress) = &hooks.progress {
            progress.record(state.nodes, state.attempts);
        }
    }
    state.outcome(None, true)
}

/// The program of a complete top-down derivation the checker handled
/// as tokens.
fn materialise(d: &Derivation, rules: &Rules) -> TacoProgram {
    #[cfg(test)]
    tests::MATERIALISED.with(|n| n.set(n.get() + 1));
    d.td_program(rules)
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

    use super::*;
    use crate::driver::StopReason;
    use crate::topdown::tests::{ctx_for, grammar_with};
    use crate::topdown::TdExpand;

    thread_local! {
        /// Programs [`materialise`] built on this thread.
        pub(crate) static MATERIALISED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// The frontier's memory is its entries plus the arena: a new field in
    /// either must be a deliberate choice, not a silent growth.
    #[test]
    fn frontier_entries_stay_small() {
        assert!(std::mem::size_of::<Entry>() <= 8);
        assert_eq!(std::mem::size_of::<Node>(), 8);
    }

    /// An `f64` ordered totally for use as a priority (lower first).
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Priority(f64);

    impl Eq for Priority {}

    impl PartialOrd for Priority {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Priority {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap and we want min-f first.
            other.0.total_cmp(&self.0)
        }
    }

    /// The reference frontier entry, as the paper artifact's heap orders
    /// it: best (lowest) `f` first, ties broken toward the most recently
    /// pushed entry (the larger arena index).
    #[derive(Debug, PartialEq, Eq)]
    struct QEntry {
        f: Priority,
        node: u32,
        len: u32,
    }

    impl PartialOrd for QEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for QEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            self.f.cmp(&other.f).then(self.node.cmp(&other.node))
        }
    }

    #[test]
    fn priority_orders_min_first() {
        let mut heap = BinaryHeap::new();
        heap.push((Priority(3.0), "c"));
        heap.push((Priority(1.0), "a"));
        heap.push((Priority(2.0), "b"));
        assert_eq!(heap.pop().unwrap().1, "a");
        assert_eq!(heap.pop().unwrap().1, "b");
    }

    /// Priorities with few distinct values: signed zeros, adjacent ulps,
    /// and values below every other, so pushes often land under the
    /// current minimum.
    fn priorities() -> Vec<f64> {
        let one_up = f64::from_bits(1.0f64.to_bits() + 1);
        let one_down = f64::from_bits(1.0f64.to_bits() - 1);
        vec![
            0.0,
            -0.0,
            1.0,
            one_up,
            one_down,
            2.5,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            -3.0,
            f64::INFINITY,
        ]
    }

    /// One step of a random interleaving: push at a priority drawn from
    /// [`priorities`] (ops 0–2), pop (3–4), or drain both queues (5).
    fn ops() -> impl Strategy<Value = Vec<(u8, usize, u32)>> {
        prop::collection::vec((0u8..6, 0usize..10, 0u32..40), 1..600)
    }

    fn pop_reference(heap: &mut BinaryHeap<QEntry>) -> Option<Entry> {
        heap.pop().map(|e| Entry {
            node: e.node,
            len: e.len,
        })
    }

    /// Pushes and pops both queues in lockstep, with arena-like indices
    /// (one more per push); returns how many pushes went below the
    /// queue's minimum.
    fn run_both(
        ops: &[(u8, usize, u32)],
        heap: &mut BinaryHeap<QEntry>,
        queue: &mut LevelQueue,
    ) -> u64 {
        let pool = priorities();
        let mut next = 0u32;
        let mut below_min = 0;
        for &(op, pick, len) in ops {
            match op {
                0..=2 => {
                    let f = pool[pick];
                    if heap.peek().is_some_and(|top| f.total_cmp(&top.f.0).is_lt()) {
                        below_min += 1;
                    }
                    heap.push(QEntry {
                        f: Priority(f),
                        node: next,
                        len,
                    });
                    queue.push(f, Entry { node: next, len });
                    next += 1;
                }
                3 | 4 => assert_eq!(queue.pop(), pop_reference(heap)),
                _ => {
                    while !heap.is_empty() {
                        assert_eq!(queue.pop(), pop_reference(heap));
                    }
                    assert_eq!(queue.pop(), None);
                }
            }
            assert_eq!(queue.is_empty(), heap.is_empty());
        }
        below_min
    }

    proptest! {
        #[test]
        fn level_queue_pops_like_the_heap(ops in ops()) {
            let mut heap = BinaryHeap::new();
            let mut queue = LevelQueue::new();
            run_both(&ops, &mut heap, &mut queue);
            // Reused after `clear`, as a kept queue is.
            queue.clear();
            heap.clear();
            run_both(&ops, &mut heap, &mut queue);
            run_both(&[(5, 0, 0)], &mut heap, &mut queue);
        }
    }

    /// Long runs on one level cross chunk boundaries both ways, and the
    /// generator does push below the current minimum.
    #[test]
    fn level_queue_spans_chunks_and_new_minima() {
        let mut heap = BinaryHeap::new();
        let mut queue = LevelQueue::new();
        let mut ops: Vec<(u8, usize, u32)> = (0..5 * CHUNK as u32).map(|i| (0, 2, i)).collect();
        ops.extend((0..3 * CHUNK as u32).map(|i| (0, (i % 10) as usize, i)));
        ops.extend((0..2 * CHUNK as u32).map(|i| (3, 0, i)));
        ops.extend((0..CHUNK as u32).map(|i| (0, 8, i)));
        ops.push((5, 0, 0));
        assert!(run_both(&ops, &mut heap, &mut queue) > 0);
        assert!(queue.capacity() >= 8 * CHUNK);
    }

    /// A kept queue is reused in place: the same budget-exhausting search
    /// run three times over one arena and queue pops the same states and
    /// neither grows nor moves their storage after the first run.
    #[test]
    fn kept_storage_does_not_grow_across_searches() {
        let g = grammar_with(&["r(i) = m(i,j) * v(j)"], vec![1, 2, 1], 2);
        let ctx = ctx_for(&g);
        let budget = SearchBudget {
            max_attempts: 3_000,
            ..SearchBudget::default()
        };
        let exp = TdExpand::new(&g, &ctx, budget.max_depth);
        let mut arena = Vec::new();
        let mut queue = LevelQueue::new();
        let mut runs = Vec::new();
        for _ in 0..3 {
            let mut never = |_: &TacoProgram| CheckOutcome::Failed;
            let hooks = SearchHooks::default();
            let out = best_first(&exp, budget, &mut never, &hooks, &mut arena, &mut queue);
            assert_eq!(out.stop, StopReason::BudgetExceeded);
            assert!(!queue.is_empty());
            runs.push((
                out.nodes_expanded,
                arena.capacity(),
                arena.as_ptr(),
                queue.capacity(),
                queue.chunks.pool.as_ptr(),
            ));
            arena.clear();
            queue.clear();
        }
        assert!(runs[0].3 >= 16 * CHUNK, "the queue grows: {runs:?}");
        assert!(runs.iter().all(|run| *run == runs[0]), "{runs:?}");
    }
}
