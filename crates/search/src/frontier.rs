//! The best-first frontier loop behind both search algorithms.
//!
//! Top-down and bottom-up search are the same best-first loop over
//! leftmost derivations; they differ only in how a dequeued derivation is
//! judged (skip / check / expand). That per-algorithm logic is the
//! [`Expand`] trait, implemented by the two algorithm modules; the loop
//! itself is [`run_search`], byte-identical in pop order to the paper
//! artifact's searches.
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
//! scored from it and pushed as arena slots.
//!
//! The loop hands each candidate over with the pop count and attempt
//! number at which it was found. A complete top-down derivation travels
//! as its rule ids; the checking side turns them into tokens, and into a
//! [`TacoProgram`] only if the checker asks for it or it wins. A
//! bottom-up candidate travels as its program. The checker only ever
//! answers "verified, so stop", so checking need not wait for the
//! frontier. A search starts on the calling thread, checking each
//! candidate as it is found. Once it has failed [`PIPELINE_AFTER`]
//! candidates on a machine with a second core ([`pipelines`]), the same
//! loop moves to a scoped helper thread and hands candidates to the
//! checker, which stays on the calling thread, through two batches
//! ([`Handoff`]). The checker takes candidates in pop order and reports
//! the counters of the one it stops at. So pop order, attempts, pops,
//! the solution and every checker counter equal those of checking
//! inline. A verified candidate, a cancel or an unwind on either side
//! stops the other.
//!
//! A finished search clears the arena, the queue and the batches and, if
//! they grew large, keeps them for the next one.

use std::collections::VecDeque;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

use gtl_grammar::RuleId;
use gtl_taco::{RhsTok, TacoProgram, TemplateRef};

use crate::driver::{
    CheckOutcome, RunState, SearchBudget, SearchHooks, SearchOutcome, SearchProgress,
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

/// A complete template found at a popped node.
#[derive(Debug)]
pub(crate) enum Candidate<'d> {
    /// A complete top-down derivation, as its rules.
    Rules(&'d [RuleId]),
    /// A bottom-up chain with its open tail removed.
    Program(TacoProgram),
}

/// Algorithm-specific judgement of a dequeued derivation.
///
/// Implementations are read-only views of the grammar and penalty
/// context, shared by the frontier thread and the checking thread of a
/// pipelined search.
pub(crate) trait Expand: Sync {
    /// The grammar's interned rules, which popped nodes are replayed
    /// against.
    fn rules(&self) -> &Rules;

    /// Whether the node is discarded outright (counted as a queue pop,
    /// but neither checked nor expanded) — the top-down depth limit.
    fn skip(&self, d: &Derivation) -> bool;

    /// The complete template to send to the checker at this node, if
    /// any.
    fn candidate<'d>(&self, d: &'d Derivation) -> Option<Candidate<'d>>;

    /// Appends the prioritised successors of the node (none for a
    /// complete derivation) to `out`, in push order.
    fn children(&self, d: &Derivation, out: &mut Vec<Child>);
}

/// The failed candidates after which a search with a second core moves
/// its frontier to a helper thread. Every solved lift of the suite takes
/// at most 581 attempts and every served lift at most 76, so those run
/// on one thread; a budget-exhausting search switches after about 3% of
/// its 30,000 attempts.
pub(crate) const PIPELINE_AFTER: u64 = 1_024;

/// Candidates per batch of a pipelined search.
const BATCH: usize = 64;

/// Batches of a pipelined search: the checker checks one while the
/// frontier fills another, and the rest absorb the spells in which one
/// side runs faster than the other. Over the `tail` lifts, 8 batches of
/// 64 left the busier side waiting about a third as long as 2 of 256.
const BATCHES: usize = 8;

/// Rule ids reserved per candidate of a batch: more than a typical
/// top-down template derives.
const RULES_PER_CANDIDATE: usize = 16;

/// Whether a search moves its frontier to a helper thread once the
/// checker has failed its `attempts`-th candidate, with `cores` cores
/// available: once, at [`PIPELINE_AFTER`], and only with a second core
/// to run it.
fn pipelines(attempts: u64, cores: usize) -> bool {
    cores > 1 && attempts == PIPELINE_AFTER
}

/// The cores this process may run on, asked once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The arena capacities, in entries, at which [`run_search`] keeps a
/// search's storage for a later one: an arena of 1 to 8 MiB, and a queue
/// pool of at most as many entries. A smaller frontier is cheap to grow
/// again and finds room in memory the process has freed; one grown past
/// the range by an unusually large budget should give its memory back.
const KEEP_NODES: RangeInclusive<usize> = (1 << 17)..=(1 << 20);

/// A search's storage: the arena, the queue and the batches of a
/// pipelined search. The frontier thread writes the arena's and the
/// queue's headers at every push, from the calling thread's stack
/// frame, so they are kept off the cache lines of the checker's data.
#[derive(Default)]
#[repr(align(128))]
struct Storage {
    arena: Vec<Node>,
    queue: LevelQueue,
    batches: Vec<Batch>,
}

/// Frontier storage kept between searches, empty. A budget-exhausting
/// search grows the arena and queue to MiBs by doubling, and where the
/// allocator finds room for each doubled block (and so the process's
/// peak memory) varied from run to run. Reusing them, a later search
/// neither grows nor moves them. Concurrent searches that find the
/// storage taken grow their own, and only the largest is kept.
static SPARE: Mutex<Storage> = Mutex::new(Storage {
    arena: Vec::new(),
    queue: LevelQueue::new(),
    batches: Vec::new(),
});

fn spare() -> MutexGuard<'static, Storage> {
    SPARE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The storage of one running search, taken from [`SPARE`] and given
/// back when the search ends, by return or by unwind.
struct Taken(Storage);

impl Taken {
    fn take() -> Taken {
        Taken(std::mem::take(&mut *spare()))
    }
}

impl Drop for Taken {
    fn drop(&mut self) {
        let storage = &mut self.0;
        if KEEP_NODES.contains(&storage.arena.capacity())
            && storage.queue.capacity() <= *KEEP_NODES.end()
        {
            storage.arena.clear();
            storage.queue.clear();
            storage.batches.truncate(2);
            storage.batches.iter_mut().for_each(Batch::clear);
            let mut spare = spare();
            if spare.arena.capacity() < storage.arena.capacity() {
                std::mem::swap(&mut *spare, storage);
            }
        }
    }
}

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
/// and stop conditions of the paper artifact's searches, on one thread
/// or, past [`PIPELINE_AFTER`] attempts with a second core, on two.
///
/// External hooks ride along: the cancel flag is polled once per pop
/// and once per candidate checked on the far side of a pipeline (the
/// outcome then reports `Cancelled`), and the loop counters are mirrored
/// into the progress tracker after every iteration (after every checked
/// candidate once pipelined) and once more on return, so a finished
/// run's tracker equals its outcome. With default hooks both additions
/// are untaken branches, leaving pop order and counters unchanged.
pub(crate) fn run_search(
    exp: &dyn Expand,
    budget: SearchBudget,
    checker: &mut dyn TemplateChecker,
    hooks: &SearchHooks,
) -> SearchOutcome {
    run_on(exp, budget, checker, hooks, cores())
}

/// [`run_search`] as if `cores` cores were available.
pub(crate) fn run_on(
    exp: &dyn Expand,
    budget: SearchBudget,
    checker: &mut dyn TemplateChecker,
    hooks: &SearchHooks,
    cores: usize,
) -> SearchOutcome {
    let mut storage = Taken::take();
    let outcome = best_first(exp, budget, checker, hooks, cores, &mut storage.0);
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
    cores: usize,
    storage: &mut Storage,
) -> SearchOutcome {
    let Storage {
        arena,
        queue,
        batches,
    } = storage;
    debug_assert!(arena.is_empty() && queue.is_empty());
    arena.push(Node::ROOT);
    queue.push(0.0, Entry { node: 0, len: 0 });
    let mut frontier = Frontier {
        exp,
        state: RunState::new(budget),
        arena,
        queue,
        derivation: Derivation::default(),
        children: Vec::new(),
    };
    let mut checking = Checking {
        rules: exp.rules(),
        checker,
        toks: Vec::new(),
        solution: None,
    };
    let mut end = checking.inline(&mut frontier, hooks, cores);
    if end == End::Switch {
        end = match pipeline(&mut frontier, &mut checking, hooks, batches) {
            Some(Piped::Stopped(stop)) => {
                frontier.state.nodes = stop.pops;
                frontier.state.attempts = stop.attempts;
                return match stop.solution {
                    Some(solution) => frontier.state.outcome(Some(solution), false),
                    None => frontier.state.outcome_cancelled(),
                };
            }
            Some(Piped::Ended(end)) => end,
            // No helper thread: go on checking inline.
            None => checking.inline(&mut frontier, hooks, 1),
        };
    }
    match end {
        End::Exhausted => frontier.state.outcome(None, true),
        End::OverBudget => frontier.state.outcome(None, false),
        End::Cancelled => frontier.state.outcome_cancelled(),
        End::Stopped => frontier.state.outcome(checking.solution.take(), false),
        End::Switch => unreachable!("a pipelined search does not switch again"),
    }
}

/// The frontier half of a search: the loop state that pops, replays,
/// finds candidates and pushes children. Aligned like [`Storage`]: a
/// frontier thread writes it at every pop.
#[repr(align(128))]
struct Frontier<'s, 'e> {
    exp: &'e dyn Expand,
    state: RunState,
    arena: &'s mut Vec<Node>,
    queue: &'s mut LevelQueue,
    derivation: Derivation,
    children: Vec<Child>,
}

/// A candidate as the loop hands it over.
struct Found<'d> {
    candidate: Candidate<'d>,
    /// The queue pops so far, the one that found it included.
    pops: u64,
    /// Its attempt number: the candidates so far, it included.
    attempt: u64,
}

/// What the checking side answers for a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Continue,
    /// Stop the loop at once.
    Stop,
    /// Finish this pop, then return [`End::Switch`].
    Switch,
}

/// Why [`Frontier::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// The queue emptied.
    Exhausted,
    /// A budget limit was reached.
    OverBudget,
    /// The external cancel flag was raised.
    Cancelled,
    /// The checking side stopped the loop: a candidate verified, or the
    /// far side of a pipeline halted.
    Stopped,
    /// The checking side asked to go on with the frontier on a helper
    /// thread.
    Switch,
}

impl Frontier<'_, '_> {
    /// Runs the loop, handing every candidate to `hand`, until the queue
    /// empties, a budget or the cancel flag ends the search, `halt` is
    /// raised, or `hand` stops it. A loop that returned
    /// [`End::Switch`] continues where it left off when run again.
    fn run(
        &mut self,
        hooks: &SearchHooks,
        progress: Option<&SearchProgress>,
        halt: &AtomicBool,
        hand: &mut dyn FnMut(Found<'_>) -> Flow,
    ) -> End {
        let exp = self.exp;
        let rules = exp.rules();
        while let Some(entry) = self.queue.pop() {
            if hooks.cancelled() {
                return End::Cancelled;
            }
            if halt.load(Ordering::Relaxed) {
                return End::Stopped;
            }
            if self.state.over_budget() {
                return End::OverBudget;
            }
            self.state.nodes += 1;
            let d = &mut self.derivation;
            d.replay(rules, self.arena, entry.node, entry.len);
            if exp.skip(d) {
                continue;
            }
            let mut flow = Flow::Continue;
            if let Some(candidate) = exp.candidate(d) {
                self.state.attempts += 1;
                flow = hand(Found {
                    candidate,
                    pops: self.state.nodes,
                    attempt: self.state.attempts,
                });
                if flow == Flow::Stop {
                    return End::Stopped;
                }
            }
            self.children.clear();
            exp.children(d, &mut self.children);
            for child in &self.children {
                let node = u32::try_from(self.arena.len()).expect("fewer than 2^32 pushed states");
                self.arena.push(Node {
                    parent: entry.node,
                    rule: child.rule,
                });
                self.queue.push(
                    child.f,
                    Entry {
                        node,
                        len: entry.len + 1,
                    },
                );
            }
            if let Some(progress) = progress {
                progress.record(self.state.nodes, self.state.attempts);
            }
            if flow == Flow::Switch {
                return End::Switch;
            }
        }
        End::Exhausted
    }
}

/// The checking half of a search: the caller's checker, always on the
/// calling thread.
struct Checking<'c, 'r> {
    rules: &'r Rules,
    checker: &'c mut dyn TemplateChecker,
    /// The token buffer of top-down candidates.
    toks: Vec<RhsTok<'r>>,
    /// The verified template and concrete program of an inline check.
    solution: Option<(TacoProgram, TacoProgram)>,
}

/// Where the checking side of a pipelined search stopped it.
struct Stop {
    /// The verified template and concrete program; `None` for a cancel.
    solution: Option<(TacoProgram, TacoProgram)>,
    /// The pops and attempts to report: those of the verified candidate,
    /// or of the last one checked before the cancel.
    pops: u64,
    attempts: u64,
}

/// How a pipelined search ended.
enum Piped {
    /// The checker stopped it.
    Stopped(Stop),
    /// The frontier ended, and the checker failed every candidate.
    Ended(End),
}

impl<'r> Checking<'_, 'r> {
    /// Runs `frontier` on this thread, checking each candidate as it is
    /// found, until it ends or [`pipelines`] asks to switch.
    fn inline(
        &mut self,
        frontier: &mut Frontier<'_, '_>,
        hooks: &SearchHooks,
        cores: usize,
    ) -> End {
        let never = AtomicBool::new(false);
        frontier.run(
            hooks,
            hooks.progress.as_deref(),
            &never,
            &mut |found| match self.check(found.candidate) {
                Some(solution) => {
                    self.solution = Some(solution);
                    Flow::Stop
                }
                None if pipelines(found.attempt, cores) => Flow::Switch,
                None => Flow::Continue,
            },
        )
    }

    /// Checks one candidate: its template and concrete program if it
    /// verified.
    fn check(&mut self, candidate: Candidate<'_>) -> Option<(TacoProgram, TacoProgram)> {
        match candidate {
            Candidate::Program(template) => match self.checker.check(&template) {
                CheckOutcome::Verified(concrete) => Some((template, concrete)),
                CheckOutcome::Failed => None,
            },
            Candidate::Rules(derivation) => {
                let rules = self.rules;
                let lhs = rules.td_tokens(derivation, &mut self.toks);
                let template = TemplateRef {
                    lhs,
                    rhs: &self.toks,
                };
                let program = || materialise(derivation, rules);
                match self.checker.check_ref(template, &program) {
                    CheckOutcome::Verified(concrete) => Some((program(), concrete)),
                    CheckOutcome::Failed => None,
                }
            }
        }
    }

    /// Checks a batch in order. `checked` holds the pops and attempts of
    /// the last candidate checked, for a cancel to report.
    fn check_batch(
        &mut self,
        batch: &mut Batch,
        hooks: &SearchHooks,
        checked: &mut (u64, u64),
    ) -> Option<Stop> {
        let Batch {
            rules,
            programs,
            sent,
        } = batch;
        let mut programs = programs.drain(..);
        let mut start = 0;
        for s in sent.iter() {
            if hooks.cancelled() {
                let (pops, attempts) = *checked;
                return Some(Stop {
                    solution: None,
                    pops,
                    attempts,
                });
            }
            let end = s.rules_end as usize;
            let candidate = if s.program {
                Candidate::Program(programs.next().expect("a program per program entry"))
            } else {
                Candidate::Rules(&rules[start..end])
            };
            start = end;
            if let Some(solution) = self.check(candidate) {
                return Some(Stop {
                    solution: Some(solution),
                    pops: s.pops,
                    attempts: s.attempt,
                });
            }
            *checked = (s.pops, s.attempt);
            if let Some(progress) = &hooks.progress {
                progress.record(s.pops, s.attempt);
            }
        }
        None
    }
}

/// Runs the rest of a search with `frontier` on a scoped helper thread,
/// handing candidates over in [`Batch`]es, and the checker on this
/// thread. `None` if no helper thread could be started; the search is
/// then where it was.
fn pipeline(
    frontier: &mut Frontier<'_, '_>,
    checking: &mut Checking<'_, '_>,
    hooks: &SearchHooks,
    batches: &mut Vec<Batch>,
) -> Option<Piped> {
    let handoff = Handoff::new(batches);
    let checked = (frontier.state.nodes, frontier.state.attempts);
    let piped = thread::scope(|scope| {
        let producer = thread::Builder::new()
            .name("search-frontier".into())
            .spawn_scoped(scope, || handoff.produce(frontier, hooks))
            .ok()?;
        let stop = {
            // Dropped before the join, by return or by unwind, so that a
            // frontier the checker no longer needs stops.
            let _halt = Halt(&handoff);
            handoff.consume(checking, hooks, checked)
        };
        let end = producer
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        Some(match stop {
            Some(stop) => Piped::Stopped(stop),
            None => Piped::Ended(end),
        })
    });
    handoff.keep(batches);
    piped
}

/// Candidates handed from the frontier thread to the checker, in pop
/// order.
#[derive(Default)]
struct Batch {
    /// The top-down candidates' rules, one after another.
    rules: Vec<RuleId>,
    /// The bottom-up candidates' programs, in order.
    programs: Vec<TacoProgram>,
    /// One record per candidate.
    sent: Vec<Sent>,
}

/// One candidate of a [`Batch`].
struct Sent {
    /// Where its rules end in [`Batch::rules`]; they start where the
    /// previous candidate's end.
    rules_end: u32,
    /// Whether it is the next of [`Batch::programs`] instead.
    program: bool,
    /// The queue pops so far when it was found, its own included.
    pops: u64,
    /// Its attempt number.
    attempt: u64,
}

impl Batch {
    fn new() -> Batch {
        Batch {
            rules: Vec::with_capacity(BATCH * RULES_PER_CANDIDATE),
            programs: Vec::new(),
            sent: Vec::with_capacity(BATCH),
        }
    }

    fn push(&mut self, found: Found<'_>) {
        let program = match found.candidate {
            Candidate::Rules(rules) => {
                self.rules.extend_from_slice(rules);
                false
            }
            Candidate::Program(program) => {
                self.programs.push(program);
                true
            }
        };
        self.sent.push(Sent {
            rules_end: u32::try_from(self.rules.len()).expect("fewer than 2^32 rules per batch"),
            program,
            pops: found.pops,
            attempt: found.attempt,
        });
    }

    fn clear(&mut self) {
        self.rules.clear();
        self.programs.clear();
        self.sent.clear();
    }
}

/// The batches between the frontier thread and the checker: while the
/// checker checks one, the frontier fills another, and the frontier waits
/// when the checker holds every other batch. Aligned like [`Storage`]:
/// the frontier reads `halt` at every pop.
#[repr(align(128))]
struct Handoff {
    slots: Mutex<Slots>,
    turn: Condvar,
    /// Raised when the checker stops early; the frontier polls it at
    /// every pop.
    halt: AtomicBool,
}

struct Slots {
    /// Filled batches the checker has not taken yet, oldest first.
    full: VecDeque<Batch>,
    /// Emptied batches the frontier may fill.
    empty: Vec<Batch>,
    /// The frontier has handed over its last batch, or unwound.
    closed: bool,
    /// The checker has stopped, or unwound.
    halted: bool,
}

/// Marks the frontier's side of a [`Handoff`] closed when dropped.
struct Close<'h>(&'h Handoff);

impl Drop for Close<'_> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.turn.notify_all();
    }
}

/// Halts the frontier's side of a [`Handoff`] when dropped.
struct Halt<'h>(&'h Handoff);

impl Drop for Halt<'_> {
    fn drop(&mut self) {
        self.0.halt.store(true, Ordering::Relaxed);
        self.0.lock().halted = true;
        self.0.turn.notify_all();
    }
}

impl Handoff {
    /// A handoff over [`BATCHES`] batches, taken from `kept` where it
    /// has them.
    fn new(kept: &mut Vec<Batch>) -> Handoff {
        let mut empty: Vec<Batch> = kept.drain(..).take(BATCHES).collect();
        empty.resize_with(BATCHES, Batch::new);
        Handoff {
            slots: Mutex::new(Slots {
                full: VecDeque::new(),
                empty,
                closed: false,
                halted: false,
            }),
            turn: Condvar::new(),
            halt: AtomicBool::new(false),
        }
    }

    /// Gives the batches back to `kept`.
    fn keep(self, kept: &mut Vec<Batch>) {
        let slots = self
            .slots
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        kept.extend(slots.full);
        kept.extend(slots.empty);
    }

    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'g>(&self, slots: MutexGuard<'g, Slots>) -> MutexGuard<'g, Slots> {
        self.turn
            .wait(slots)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The frontier's side: runs the loop on, batching its candidates,
    /// and returns how it ended.
    fn produce(&self, frontier: &mut Frontier<'_, '_>, hooks: &SearchHooks) -> End {
        let _close = Close(self);
        let mut batch = self.lock().empty.pop().unwrap_or_default();
        let end = frontier.run(hooks, None, &self.halt, &mut |found| {
            batch.push(found);
            if batch.sent.len() < BATCH {
                return Flow::Continue;
            }
            match self.send(std::mem::take(&mut batch)) {
                Some(next) => {
                    batch = next;
                    Flow::Continue
                }
                None => Flow::Stop,
            }
        });
        let mut slots = self.lock();
        if batch.sent.is_empty() {
            slots.empty.push(batch);
        } else {
            slots.full.push_back(batch);
            self.turn.notify_all();
        }
        end
    }

    /// Hands `full` over and returns an emptied batch to fill next,
    /// waiting while the checker holds every other batch; `None` once it
    /// has halted.
    fn send(&self, full: Batch) -> Option<Batch> {
        let mut slots = self.lock();
        slots.full.push_back(full);
        self.turn.notify_all();
        while slots.empty.is_empty() && !slots.halted {
            slots = self.wait(slots);
        }
        if slots.halted {
            return None;
        }
        slots.empty.pop()
    }

    /// The checker's side: checks the batches in order until a candidate
    /// verifies, a cancel stops it, or the frontier has ended and every
    /// batch is checked. `checked` holds the pops and attempts of the
    /// last candidate checked so far.
    fn consume(
        &self,
        checking: &mut Checking<'_, '_>,
        hooks: &SearchHooks,
        mut checked: (u64, u64),
    ) -> Option<Stop> {
        let mut done: Option<Batch> = None;
        loop {
            let mut batch = {
                if let Some(batch) = done.as_mut() {
                    batch.clear();
                }
                let mut slots = self.lock();
                slots.empty.extend(done.take());
                self.turn.notify_all();
                loop {
                    if let Some(batch) = slots.full.pop_front() {
                        break batch;
                    }
                    if slots.closed {
                        return None;
                    }
                    slots = self.wait(slots);
                }
            };
            let stop = checking.check_batch(&mut batch, hooks, &mut checked);
            if stop.is_some() {
                self.lock().empty.push(batch);
                return stop;
            }
            done = Some(batch);
        }
    }
}

/// The program of a complete top-down derivation the checker handled
/// as tokens.
fn materialise(derivation: &[RuleId], rules: &Rules) -> TacoProgram {
    #[cfg(test)]
    tests::MATERIALISED.with(|n| n.set(n.get() + 1));
    rules.td_program(derivation)
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    use gtl_template::{generate_bu_grammar, GrammarShape, TdSpec, TemplateGrammar};

    use super::*;
    use crate::bottomup::BuExpand;
    use crate::driver::{CancelFlag, StopReason};
    use crate::node::spelled;
    use crate::node::tests::exhaustive_grammars;
    use crate::penalty::PenaltyContext;
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
        let mut storage = Storage::default();
        let mut runs = Vec::new();
        for _ in 0..3 {
            let mut never = |_: &TacoProgram| CheckOutcome::Failed;
            let hooks = SearchHooks::default();
            let out = best_first(&exp, budget, &mut never, &hooks, 1, &mut storage);
            assert_eq!(out.stop, StopReason::BudgetExceeded);
            let Storage { arena, queue, .. } = &mut storage;
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

    /// The exhaustive top-down test grammar, and a bottom-up one of the
    /// same generator whose space (3,456 templates) outlasts the switch
    /// and two batches; each with equal weights and its penalty context.
    fn exhaustive_contexts() -> Vec<(TemplateGrammar, PenaltyContext)> {
        let [td, _] = exhaustive_grammars();
        let bu = generate_bu_grammar(&TdSpec {
            dim_list: vec![2, 1, 1, 1],
            n_indices: 2,
            allow_repeated_index: false,
            include_const: false,
        });
        [td, bu]
            .into_iter()
            .map(|mut g| {
                g.pcfg.equalize_weights();
                let ctx = ctx_for(&g);
                (g, ctx)
            })
            .collect()
    }

    fn expander<'a>(g: &'a TemplateGrammar, ctx: &'a PenaltyContext) -> Box<dyn Expand + 'a> {
        match g.shape {
            GrammarShape::TopDown => Box::new(TdExpand::new(g, ctx, 6)),
            GrammarShape::BottomUp => Box::new(BuExpand::new(g, ctx)),
        }
    }

    /// More attempts than any test below needs.
    const LIMIT: u64 = 4_000;

    fn budget(max_attempts: u64) -> SearchBudget {
        SearchBudget {
            max_attempts,
            max_nodes: 10_000_000,
            time_limit: std::time::Duration::from_secs(600),
            ..SearchBudget::default()
        }
    }

    /// A checker that records every template it is handed and, at given
    /// attempts, verifies, raises a cancel flag or panics.
    #[derive(Default)]
    struct Script {
        verify: Option<u64>,
        cancel: Option<(u64, Arc<CancelFlag>)>,
        panic: Option<u64>,
        seen: Vec<TacoProgram>,
    }

    impl Script {
        fn verifying(k: u64) -> Script {
            Script {
                verify: Some(k),
                ..Script::default()
            }
        }

        fn judge(&mut self, template: TacoProgram) -> CheckOutcome {
            self.seen.push(template.clone());
            let n = self.seen.len() as u64;
            assert_ne!(self.panic, Some(n), "the checker panics at attempt {n}");
            if let Some((at, flag)) = &self.cancel {
                if *at == n {
                    flag.cancel();
                }
            }
            if self.verify == Some(n) {
                CheckOutcome::Verified(template)
            } else {
                CheckOutcome::Failed
            }
        }
    }

    impl TemplateChecker for Script {
        fn check(&mut self, template: &TacoProgram) -> CheckOutcome {
            self.judge(template.clone())
        }

        fn check_ref(
            &mut self,
            template: TemplateRef<'_>,
            _program: &dyn Fn() -> TacoProgram,
        ) -> CheckOutcome {
            self.judge(spelled(template.lhs, template.rhs))
        }
    }

    type Summary = (
        Option<TacoProgram>,
        Option<TacoProgram>,
        u64,
        u64,
        StopReason,
    );

    /// Everything an outcome reports but its time.
    fn summary(out: &SearchOutcome) -> Summary {
        (
            out.template.clone(),
            out.solution.clone(),
            out.attempts,
            out.nodes_expanded,
            out.stop,
        )
    }

    fn search(
        exp: &dyn Expand,
        max_attempts: u64,
        checker: &mut Script,
        cores: usize,
    ) -> SearchOutcome {
        run_on(
            exp,
            budget(max_attempts),
            checker,
            &SearchHooks::default(),
            cores,
        )
    }

    #[test]
    fn pipelines_once_past_the_threshold_with_a_second_core() {
        let t = PIPELINE_AFTER;
        assert!(!pipelines(t, 1), "one core checks inline");
        assert!(!pipelines(t, 0));
        for cores in [2, 3, 64] {
            assert!(pipelines(t, cores), "{cores} cores");
            for attempts in [0, 1, t - 1, t + 1, 2 * t, u64::MAX] {
                assert!(
                    !pipelines(attempts, cores),
                    "{attempts} attempts, {cores} cores"
                );
            }
        }
    }

    /// Verifying at attempt `k` returns the `k`-th template of a run that
    /// never verifies, after exactly `k` checks, with the pops of a run
    /// capped at `k` attempts, on one core and on two alike: around the
    /// switch, around the first two batch boundaries after it, and at the
    /// last attempt.
    #[test]
    fn pipeline_verifies_the_kth_template_with_the_inline_counters() {
        let (t, b) = (PIPELINE_AFTER, BATCH as u64);
        for (g, ctx) in exhaustive_contexts() {
            let exp = expander(&g, &ctx);
            let mut never = Script::default();
            let all = search(&*exp, LIMIT, &mut never, 2);
            let n = all.attempts;
            assert!(n > t + 2 * b + 1, "{:?}: {n} attempts", g.shape);
            assert_eq!(never.seen.len() as u64, n);
            assert_eq!(
                summary(&all),
                summary(&search(&*exp, LIMIT, &mut Script::default(), 1))
            );
            for k in [
                1,
                t - 1,
                t,
                t + 1,
                t + b,
                t + b + 1,
                t + 2 * b,
                t + 2 * b + 1,
                n,
            ] {
                let at = format!("{:?}, k = {k}", g.shape);
                let mut checker = Script::verifying(k);
                let out = search(&*exp, LIMIT, &mut checker, 2);
                assert_eq!(out.stop, StopReason::Solved, "{at}");
                assert_eq!(out.attempts, k, "{at}");
                assert_eq!(checker.seen.len() as u64, k, "{at}");
                assert_eq!(
                    out.template.as_ref(),
                    Some(&never.seen[k as usize - 1]),
                    "{at}"
                );
                assert_eq!(out.solution, out.template, "{at}");
                let capped = search(&*exp, k, &mut Script::default(), 2);
                assert_eq!(out.nodes_expanded, capped.nodes_expanded, "{at}");
                let inline = search(&*exp, LIMIT, &mut Script::verifying(k), 1);
                assert_eq!(summary(&out), summary(&inline), "{at}");
            }
        }
    }

    /// A cancel raised inside a check after the switch stops the search
    /// before the next check, with the counters of checking inline.
    #[test]
    fn pipeline_cancel_stops_at_the_next_check() {
        for (g, ctx) in exhaustive_contexts() {
            let exp = expander(&g, &ctx);
            for k in [PIPELINE_AFTER + 5, PIPELINE_AFTER + BATCH as u64] {
                let runs: Vec<(Summary, usize)> = [1, 2]
                    .into_iter()
                    .map(|cores| {
                        let flag = Arc::new(CancelFlag::new());
                        let mut checker = Script {
                            cancel: Some((k, Arc::clone(&flag))),
                            ..Script::default()
                        };
                        let hooks = SearchHooks::with_cancel(flag);
                        let out = run_on(&*exp, budget(LIMIT), &mut checker, &hooks, cores);
                        (summary(&out), checker.seen.len())
                    })
                    .collect();
                let at = format!("{:?}, k = {k}", g.shape);
                assert_eq!(runs[0], runs[1], "{at}");
                assert_eq!(runs[1].0 .4, StopReason::Cancelled, "{at}");
                assert_eq!(runs[1].0 .2, k, "{at}");
                assert_eq!(runs[1].1 as u64, k, "{at}");
            }
        }
    }

    /// A finished pipelined run's progress tracker equals its outcome,
    /// solved or not.
    #[test]
    fn pipeline_progress_equals_the_outcome() {
        for (g, ctx) in exhaustive_contexts() {
            let exp = expander(&g, &ctx);
            for verify in [Some(PIPELINE_AFTER + 200), None] {
                let progress = Arc::new(SearchProgress::new());
                let hooks = SearchHooks {
                    cancel: None,
                    progress: Some(Arc::clone(&progress)),
                };
                let mut checker = Script {
                    verify,
                    ..Script::default()
                };
                let out = run_on(&*exp, budget(LIMIT), &mut checker, &hooks, 2);
                assert!(out.attempts > PIPELINE_AFTER, "{:?}", g.shape);
                assert_eq!(out.solved(), verify.is_some(), "{:?}", g.shape);
                assert_eq!(progress.nodes(), out.nodes_expanded, "{:?}", g.shape);
                assert_eq!(progress.attempts(), out.attempts, "{:?}", g.shape);
            }
        }
    }

    /// A checker that panics after the switch makes the search call panic
    /// (the frontier thread stops and is joined), and the next search in
    /// the process runs as usual.
    #[test]
    fn pipeline_checker_panic_reaches_the_caller() {
        let [td, _] = exhaustive_grammars();
        let ctx = ctx_for(&td);
        let exp = TdExpand::new(&td, &ctx, 6);
        let k = PIPELINE_AFTER + 300;
        let reference = summary(&search(&exp, LIMIT, &mut Script::verifying(k), 1));
        for at in [PIPELINE_AFTER + 1, PIPELINE_AFTER + 100] {
            let mut checker = Script {
                panic: Some(at),
                ..Script::default()
            };
            let caught =
                std::panic::catch_unwind(AssertUnwindSafe(|| search(&exp, LIMIT, &mut checker, 2)));
            assert!(caught.is_err(), "the panic at {at} reaches the caller");
            assert_eq!(checker.seen.len() as u64, at);
            let again = search(&exp, LIMIT, &mut Script::verifying(k), 2);
            assert_eq!(summary(&again), reference);
        }
    }

    /// [`TdExpand`] that panics in its `n`-th call of `children`.
    struct PanicAt<'a> {
        inner: TdExpand<'a>,
        calls: AtomicU64,
        n: u64,
    }

    impl Expand for PanicAt<'_> {
        fn rules(&self) -> &Rules {
            self.inner.rules()
        }

        fn skip(&self, d: &Derivation) -> bool {
            self.inner.skip(d)
        }

        fn candidate<'d>(&self, d: &'d Derivation) -> Option<Candidate<'d>> {
            self.inner.candidate(d)
        }

        fn children(&self, d: &Derivation, out: &mut Vec<Child>) {
            let call = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                + 1;
            assert_ne!(call, self.n, "the frontier panics at expansion {call}");
            self.inner.children(d, out);
        }
    }

    /// A panic on the frontier thread reaches the caller once the checker
    /// has taken what the frontier handed over.
    #[test]
    fn pipeline_frontier_panic_reaches_the_caller() {
        let [td, _] = exhaustive_grammars();
        let ctx = ctx_for(&td);
        let plain = TdExpand::new(&td, &ctx, 6);
        let mut never = Script::default();
        let out = search(&plain, LIMIT, &mut never, 1);
        // An expansion well after the switch.
        let n = out.nodes_expanded.min(PIPELINE_AFTER * 8);
        let exp = PanicAt {
            inner: TdExpand::new(&td, &ctx, 6),
            calls: AtomicU64::new(0),
            n,
        };
        let mut checker = Script::default();
        let caught =
            std::panic::catch_unwind(AssertUnwindSafe(|| search(&exp, LIMIT, &mut checker, 2)));
        assert!(caught.is_err(), "the frontier's panic reaches the caller");
        assert!(
            checker.seen.len() as u64 > PIPELINE_AFTER,
            "it panicked after the switch"
        );
        let again = search(&plain, LIMIT, &mut Script::default(), 2);
        assert_eq!(summary(&again), summary(&out));
    }
}
