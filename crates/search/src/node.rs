//! Flat derivation state: the search states of both A\* algorithms.
//!
//! §4.2.4's refined grammar (`EXPR ::= TENSOR | EXPR OP EXPR`) is
//! ambiguous as a *string* language, but leftmost derivations correspond
//! one-to-one with ASTs, so a search state is a leftmost derivation: the
//! rules applied so far, each expanding the leftmost open nonterminal
//! (line 12 of Algorithms 1 and 2).
//!
//! - The frontier stores a state as one arena [`Node`]: its parent's
//!   index plus the one rule that extends it. Nothing else is kept per
//!   state.
//! - A popped node is replayed into one reusable [`Derivation`]: its rule
//!   chain, the open-hole stack (leftmost on top, each hole with its
//!   expression depth and whether it sits after `=`), the accumulated
//!   rule cost and the penalty-relevant [`Facts`] of everything placed so
//!   far. Accesses enter those facts as per-rule facts interned once per
//!   search in [`Rules`] (tensor letter for a3/b1, "has index `i`" for
//!   a1).
//! - Replay is incremental. The derivation keeps the arena path of its
//!   current node and an undo trail, one record per applied rule (the
//!   expanded hole, how many holes the rule pushed, and the facts, depth
//!   and cost before it). Consecutive pops share most of their rules, so
//!   a replay walks up from the popped node only to the path, rewinds to
//!   that shared prefix and applies the remaining rules.
//! - A child is scored from that summary plus one rule
//!   ([`Derivation::child`], [`Derivation::child_remaining_cost`]): no
//!   child is built unless it is pushed, and pushing one costs an arena
//!   slot.
//! - A popped complete top-down derivation reaches the checker as
//!   borrowed tokens ([`Derivation::td_tokens`]) whose tensor and index
//!   names carry ids [`Rules`] interned once per search; its [`TacoProgram`]
//!   is built only when the checker asks for it or the search returns
//!   it ([`Derivation::td_program`]). A bottom-up candidate is built as
//!   a program ([`Derivation::bu_program`]).
//!
//! Every quantity is computed as the tree-shaped state this replaced
//! computed it — the same holes summed in the same left-to-right order,
//! the same rule costs summed root to leaf — so priorities, and hence pop
//! order, are bit-identical to it, however a replay got there.

use std::ops::Range;

use gtl_grammar::{NtId, RuleId, Sym, TemplateTok};
use gtl_taco::{Access, AccessRef, BinOp, Expr, NameTable, RhsTok, TacoProgram};
use gtl_template::{build_chain_expr, TemplateGrammar};

/// One pushed search state: the arena index of its parent and the rule
/// that extends the parent's derivation. Index 0 of an arena is the root
/// (the start symbol alone); its `rule` is never read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// Arena index of the parent state.
    pub parent: u32,
    /// The rule applied to the parent's leftmost hole.
    pub rule: RuleId,
}

impl Node {
    /// The root entry of every arena.
    pub(crate) const ROOT: Node = Node {
        parent: 0,
        rule: RuleId(u32::MAX),
    };
}

/// The terminal a rule places, if it is a single-terminal rule.
#[derive(Debug, Clone)]
enum Leaf {
    /// The rule places no tensor, constant or operator.
    Nothing,
    /// A tensor access.
    Access {
        access: Access,
        /// Where its ids start in [`Rules::ids`]: the tensor's, then
        /// each index's.
        ids_at: u32,
        /// `Some(n)` when the tensor symbol is the `n`-th letter of the
        /// alphabet (`a` is 0): a3/b1 compare first appearances to it.
        letter: Option<u8>,
        /// Whether the access uses index `i` (a1).
        has_i: bool,
    },
    /// The symbolic constant.
    Const,
    /// A binary operator.
    Op(BinOp),
}

/// One nonterminal of a rule's right-hand side.
#[derive(Debug, Clone, Copy)]
struct RhsNt {
    nt: NtId,
    /// `-log2 h(nt)`, the hole's share of g(x).
    h: f64,
    /// Whether an `=` precedes it inside the rule itself.
    after_eq: bool,
    /// Whether the hole promises an operand once it sits after `=`: it
    /// is neither `OP` nor a bottom-up `TAIL` (which may become ε).
    operand: bool,
    /// Whether it is the `OP` nonterminal.
    op: bool,
}

/// What one rule contributes to a derivation, computed once per search.
#[derive(Debug, Clone)]
struct RuleInfo {
    /// `-log2 P[r]`.
    cost: f64,
    leaf: Leaf,
    /// This rule's right-hand-side nonterminals in [`Rules::rhs`].
    rhs: Range<usize>,
    /// `EXPR OP EXPR`: its holes sit one expression level deeper.
    binary: bool,
    /// Right-hand-side `OP` holes.
    op_holes: u32,
    /// Operand holes on the right-hand side (counted as operand slots
    /// when the expanded hole sits after `=`).
    operands: u32,
    /// Operand holes behind an `=` inside the rule itself (counted when
    /// the expanded hole sits before `=`).
    operands_after_local_eq: u32,
}

/// A grammar prepared for search: costs, heuristics and the interned
/// facts of every rule.
#[derive(Debug, Clone)]
pub(crate) struct Rules {
    info: Vec<RuleInfo>,
    rhs: Vec<RhsNt>,
    /// The names of every access the grammar places, interned once per
    /// search: the ids its tokens carry to the checker.
    ids: Vec<u32>,
    start: Hole,
}

impl Rules {
    /// Interns the rules of `grammar`.
    ///
    /// # Panics
    ///
    /// Panics if a rule of more than one symbol contains a terminal other
    /// than `=` and ε. Both generated grammar shapes place every tensor,
    /// constant and operator through a single-terminal rule, which is
    /// what lets a derivation's terminals be recorded in rule order.
    pub(crate) fn new(grammar: &TemplateGrammar) -> Rules {
        let pcfg = &grammar.pcfg;
        let costs = pcfg.costs();
        let heuristic = pcfg.heuristic_costs();
        let op_nt = grammar.nts.op;
        let rhs_nt = |nt: NtId, after_eq: bool| RhsNt {
            nt,
            h: heuristic[nt.index()],
            after_eq,
            operand: nt != op_nt && !grammar.nts.tails.contains(&nt),
            op: nt == op_nt,
        };
        let names = NameTable::new(pcfg.rules().iter().filter_map(
            |rule| match rule.rhs.as_slice() {
                [Sym::T(TemplateTok::Access(a))] => Some(a),
                _ => None,
            },
        ));
        let mut ids = Vec::new();
        let mut rhs = Vec::new();
        let mut info = Vec::with_capacity(pcfg.rules().len());
        for (id, rule) in pcfg.iter_rules() {
            let leaf = match rule.rhs.as_slice() {
                [Sym::T(TemplateTok::Access(a))] => Leaf::Access {
                    access: a.clone(),
                    ids_at: {
                        let at = ids.len() as u32;
                        names.push_ids(a, &mut ids);
                        at
                    },
                    letter: match a.tensor.as_str().as_bytes() {
                        [c @ b'a'..=b'z'] => Some(c - b'a'),
                        _ => None,
                    },
                    has_i: a.indices.iter().any(|ix| ix.as_str() == "i"),
                },
                [Sym::T(TemplateTok::ConstSym)] => Leaf::Const,
                [Sym::T(TemplateTok::Op(op))] => Leaf::Op(*op),
                _ => Leaf::Nothing,
            };
            let first = rhs.len();
            let mut after_eq = false;
            for sym in &rule.rhs {
                match sym {
                    Sym::Nt(nt) => rhs.push(rhs_nt(*nt, after_eq)),
                    Sym::T(TemplateTok::Eq) => after_eq = true,
                    Sym::T(TemplateTok::Epsilon) => {}
                    Sym::T(t) => assert!(
                        rule.rhs.len() == 1,
                        "rule {id:?} places `{t}` inside a multi-symbol right-hand side"
                    ),
                }
            }
            let nts = &rhs[first..];
            let count =
                |pred: &dyn Fn(&RhsNt) -> bool| nts.iter().filter(|r| pred(r)).count() as u32;
            info.push(RuleInfo {
                cost: costs[id.index()],
                leaf,
                binary: matches!(nts, [_, RhsNt { op: true, .. }, _]) && rule.rhs.len() == 3,
                op_holes: count(&|r| r.op),
                operands: count(&|r| r.operand),
                operands_after_local_eq: count(&|r| r.operand && r.after_eq),
                rhs: first..rhs.len(),
            });
        }
        let root = rhs_nt(pcfg.start(), false);
        Rules {
            info,
            rhs,
            ids,
            start: Hole {
                nt: root.nt,
                h: root.h,
                depth: 1,
                after_eq: false,
                slot: false,
                op: root.op,
            },
        }
    }

    /// The cost `-log2 P[r]` of applying `rule`.
    pub(crate) fn cost(&self, rule: RuleId) -> f64 {
        self.info[rule.index()].cost
    }

    fn info(&self, rule: RuleId) -> &RuleInfo {
        &self.info[rule.index()]
    }

    fn access(&self, rule: RuleId) -> &Access {
        self.access_ref(rule).access
    }

    /// The access `rule` places, with its interned names.
    fn access_ref(&self, rule: RuleId) -> AccessRef<'_> {
        match &self.info(rule).leaf {
            Leaf::Access { access, ids_at, .. } => self.interned(access, *ids_at),
            other => panic!("rule {rule:?} places {other:?}, not an access"),
        }
    }

    /// `access` with the ids interned for it at `ids_at`.
    fn interned<'r>(&'r self, access: &'r Access, ids_at: u32) -> AccessRef<'r> {
        let at = ids_at as usize;
        AccessRef {
            access,
            tensor: self.ids[at],
            indices: &self.ids[at + 1..at + 1 + access.rank()],
        }
    }

    /// The top-down expression derived from the front of `rules`, which
    /// it consumes.
    fn td_expr(&self, rules: &mut std::slice::Iter<'_, RuleId>, consts: &mut u32) -> Expr {
        let rule = *rules
            .next()
            .expect("a complete derivation derives every hole");
        let info = self.info(rule);
        match &info.leaf {
            Leaf::Access { access, .. } => Expr::Access(access.clone()),
            Leaf::Const => {
                *consts += 1;
                Expr::ConstSym(*consts - 1)
            }
            Leaf::Nothing if info.binary => {
                let lhs = self.td_expr(rules, consts);
                let op_rule = *rules.next().expect("a binary rule's operator is derived");
                let Leaf::Op(op) = self.info(op_rule).leaf else {
                    panic!("rule {op_rule:?} fills an operator hole without an operator");
                };
                let rhs = self.td_expr(rules, consts);
                Expr::binary(op, lhs, rhs)
            }
            // A unit rule such as `EXPR → TENSOR`.
            Leaf::Nothing if info.rhs.len() == 1 => self.td_expr(rules, consts),
            other => panic!("rule {rule:?} ({other:?}) cannot derive a top-down expression"),
        }
    }
}

/// One open nonterminal of a derivation.
#[derive(Debug, Clone, Copy)]
struct Hole {
    nt: NtId,
    /// `-log2 h(nt)`.
    h: f64,
    /// Expression depth as the paper counts it: 1 plus the number of
    /// enclosing `EXPR OP EXPR` nodes. (Bottom-up search never reads it.)
    depth: u32,
    /// Whether the hole sits after `=`.
    after_eq: bool,
    /// Whether it counts as a right-hand-side operand slot.
    slot: bool,
    /// Whether it is an `OP` hole.
    op: bool,
}

/// Penalty-relevant facts of a (partial or complete) derivation — the
/// input of the penalty functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Facts {
    /// Whether the tensor symbols, in order of first appearance, are
    /// `a, b, c…` (a3/b1).
    pub alphabetical: bool,
    /// While `alphabetical`: the number of distinct symbols placed.
    pub symbols: u8,
    /// Whether an access has been placed (the first is the LHS).
    pub lhs_placed: bool,
    /// Accesses after the first that use index `i` (a1).
    pub rhs_with_i: u32,
    /// Whether a constant is placed.
    pub has_const: bool,
    /// The operators placed, one bit per [`BinOp::ALL`] position.
    pub ops: u8,
    /// Unexpanded operator holes — each may still become any operator,
    /// which the coverage penalties (a5/b2) must account for.
    pub op_holes: u32,
    /// Right-hand-side operand slots: placed accesses and constants plus
    /// remaining holes that will each produce at least one operand.
    pub rhs_operand_slots: u32,
    /// Whether no hole is left.
    pub complete: bool,
    /// Complete top-down derivations only: `+`, `-` or `/` applied to
    /// two identical operands (a4).
    pub a4_violated: bool,
}

impl Facts {
    /// The facts of the bare start symbol.
    pub(crate) const ROOT: Facts = Facts {
        alphabetical: true,
        symbols: 0,
        lhs_placed: false,
        rhs_with_i: 0,
        has_const: false,
        ops: 0,
        op_holes: 0,
        rhs_operand_slots: 0,
        complete: false,
        a4_violated: false,
    };
}

/// A child of a derivation, scored without being built.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    /// The child's penalty facts.
    pub facts: Facts,
    /// The child's expression depth.
    pub depth: u32,
}

/// What applying one rule overwrote, so that [`Derivation::replay`] can
/// take the rule back.
#[derive(Debug, Clone, Copy)]
struct Undo {
    /// The hole the rule expanded.
    hole: Hole,
    /// How many holes the rule pushed in its place.
    pushed: u32,
    /// The derivation's facts before the rule.
    facts: Facts,
    /// The derivation's depth before the rule.
    depth: u32,
    /// The accumulated rule cost before the rule.
    cost: f64,
}

/// The scratch summary of one popped derivation; the frontier replays
/// every popped node into the same value, so its buffers are reused and
/// only the rules that differ from the previous pop are re-applied.
#[derive(Debug)]
pub(crate) struct Derivation {
    /// The arena nodes of the derivation, root first: `path[k]` is the
    /// state after `k` rules. Empty until the first replay.
    path: Vec<u32>,
    /// The rules applied so far, in leftmost-derivation order.
    rules: Vec<RuleId>,
    /// One record per applied rule, to rewind it.
    trail: Vec<Undo>,
    /// Open holes, the leftmost on top.
    holes: Vec<Hole>,
    /// Expression depth of the derivation tree.
    depth: u32,
    facts: Facts,
    /// Accumulated rule cost `c(x)`, summed root to leaf.
    cost: f64,
    /// With one hole left: an a4 violation among the closed binary nodes.
    a4_closed: bool,
    /// With one hole left: the rules whose placement in that hole makes
    /// some open `+`/`-`/`/` node's operands identical.
    a4_completing: Vec<RuleId>,
    /// Scratch for [`Derivation::replay`]: the nodes to apply, leaf first.
    suffix: Vec<u32>,
}

impl Default for Derivation {
    fn default() -> Self {
        Derivation {
            path: Vec::new(),
            rules: Vec::new(),
            trail: Vec::new(),
            holes: Vec::new(),
            depth: 1,
            facts: Facts::ROOT,
            cost: 0.0,
            a4_closed: false,
            a4_completing: Vec::new(),
            suffix: Vec::new(),
        }
    }
}

impl Derivation {
    /// Makes this the summary of arena node `node`, whose derivation has
    /// `len` rules.
    ///
    /// Walks up from `node` only until it meets the current path,
    /// rewinds to that shared prefix through the trail, and applies the
    /// remaining rules. Each rule is applied by the same [`apply`] as a
    /// replay from the root, so every quantity is bit-identical to one.
    ///
    /// [`apply`]: Derivation::apply
    pub(crate) fn replay(&mut self, rules: &Rules, arena: &[Node], node: u32, len: u32) {
        if self.path.is_empty() {
            self.path.push(0);
            self.holes.push(rules.start);
        }
        self.suffix.clear();
        let (mut at, mut k) = (node, len as usize);
        while self.path.get(k) != Some(&at) {
            self.suffix.push(at);
            at = arena[at as usize].parent;
            k -= 1;
        }
        while self.path.len() > k + 1 {
            self.undo();
        }
        // `apply` reads the a4 state through `child`; a replay from the
        // root applies every rule with it clear.
        self.a4_closed = false;
        self.a4_completing.clear();
        while let Some(at) = self.suffix.pop() {
            self.apply(rules, arena[at as usize].rule);
            self.path.push(at);
        }
        // a4 concerns `+`, `-` and `/` nodes only: with none placed,
        // `prepare_a4` finds nothing.
        if self.holes.len() == 1 && self.facts.ops & A4_OPS != 0 {
            self.prepare_a4(rules);
        }
    }

    /// Takes back the last applied rule.
    fn undo(&mut self) {
        let u = self.trail.pop().expect("a rule to take back");
        self.holes.truncate(self.holes.len() - u.pushed as usize);
        self.holes.push(u.hole);
        self.facts = u.facts;
        self.depth = u.depth;
        self.cost = u.cost;
        self.rules.pop();
        self.path.pop();
    }

    /// Expands the leftmost hole with `rule`.
    fn apply(&mut self, rules: &Rules, rule: RuleId) {
        let step = self.child(rules, rule);
        let top = self
            .holes
            .pop()
            .expect("a derivation with a hole to expand");
        let info = rules.info(rule);
        self.trail.push(Undo {
            hole: top,
            pushed: info.rhs.len() as u32,
            facts: self.facts,
            depth: self.depth,
            cost: self.cost,
        });
        let depth = top.depth + u32::from(info.binary);
        for r in rules.rhs[info.rhs.clone()].iter().rev() {
            let after_eq = top.after_eq || r.after_eq;
            self.holes.push(Hole {
                nt: r.nt,
                h: r.h,
                depth,
                after_eq,
                slot: after_eq && r.operand,
                op: r.op,
            });
        }
        self.facts = step.facts;
        self.depth = step.depth;
        self.cost += info.cost;
        self.rules.push(rule);
    }

    /// The leftmost hole's nonterminal, if any hole is open.
    pub(crate) fn leftmost_hole(&self) -> Option<NtId> {
        self.holes.last().map(|h| h.nt)
    }

    /// Expression depth (leaves and holes count 1, each enclosing
    /// `EXPR OP EXPR` one more).
    pub(crate) fn depth(&self) -> u32 {
        self.depth
    }

    /// The derivation's penalty facts.
    pub(crate) fn facts(&self) -> &Facts {
        &self.facts
    }

    /// The accumulated rule cost `c(x)`.
    pub(crate) fn cost(&self) -> f64 {
        self.cost
    }

    /// The facts and depth of the child that expands the leftmost hole
    /// with `rule`.
    ///
    /// # Panics
    ///
    /// Panics if the derivation is complete.
    pub(crate) fn child(&self, rules: &Rules, rule: RuleId) -> Step {
        let top = self
            .holes
            .last()
            .expect("a derivation with a hole to expand");
        let info = rules.info(rule);
        let mut f = self.facts;
        f.complete = self.holes.len() == 1 && info.rhs.is_empty();
        f.op_holes = f.op_holes - u32::from(top.op) + info.op_holes;
        f.rhs_operand_slots = f.rhs_operand_slots - u32::from(top.slot)
            + if top.after_eq {
                info.operands
            } else {
                info.operands_after_local_eq
            };
        match &info.leaf {
            Leaf::Nothing => {}
            Leaf::Access { letter, has_i, .. } => {
                f.rhs_operand_slots += u32::from(top.after_eq);
                if f.lhs_placed {
                    f.rhs_with_i += u32::from(*has_i);
                }
                f.lhs_placed = true;
                match letter {
                    Some(l) if f.alphabetical && *l <= f.symbols => {
                        f.symbols = f.symbols.max(l + 1);
                    }
                    _ => f.alphabetical = false,
                }
            }
            Leaf::Const => {
                f.has_const = true;
                f.rhs_operand_slots += u32::from(top.after_eq);
            }
            Leaf::Op(op) => f.ops |= op_bit(*op),
        }
        f.a4_violated = f.complete && (self.a4_closed || self.a4_completing.contains(&rule));
        Step {
            facts: f,
            depth: self.depth.max(top.depth + u32::from(info.binary)),
        }
    }

    /// The completion estimate g of the child that expands the leftmost
    /// hole with `rule`: `-log2 h` summed over the child's holes, left to
    /// right (the rule's own nonterminals, then the rest of the stack).
    pub(crate) fn child_remaining_cost(&self, rules: &Rules, rule: RuleId) -> f64 {
        let below = &self.holes[..self.holes.len() - 1];
        rules.rhs[rules.info(rule).rhs.clone()]
            .iter()
            .map(|r| r.h)
            .chain(below.iter().rev().map(|h| h.h))
            .sum()
    }

    /// Precomputes a4 for the complete children of a derivation with one
    /// hole left.
    ///
    /// For every `EXPR OP EXPR` node with a `+`, `-` or `/`, the two
    /// operands are compared as prefix rule spans. A span containing a
    /// constant never matches: each `Const` is a distinct symbol. A node
    /// whose right operand is already closed decides now
    /// (`a4_closed`); one whose right operand ends in the open hole
    /// matches exactly when the hole receives the left span's last rule
    /// (`a4_completing`).
    fn prepare_a4(&mut self, rules: &Rules) {
        let seq = &self.rules;
        let span_end = |start: usize| -> Option<usize> {
            let mut need = 1usize;
            for (i, r) in seq.iter().enumerate().skip(start) {
                need = need - 1 + rules.info(*r).rhs.len();
                if need == 0 {
                    return Some(i + 1);
                }
            }
            None
        };
        for p in 0..seq.len() {
            if !rules.info(seq[p]).binary {
                continue;
            }
            let Some(q) = span_end(p + 1).filter(|&q| q < seq.len()) else {
                continue;
            };
            let Leaf::Op(op) = rules.info(seq[q]).leaf else {
                continue;
            };
            let lhs = &seq[p + 1..q];
            if !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Div)
                || lhs
                    .iter()
                    .any(|r| matches!(rules.info(*r).leaf, Leaf::Const))
            {
                continue;
            }
            match span_end(q + 1) {
                Some(end) => self.a4_closed |= &seq[q + 1..end] == lhs,
                None => {
                    let open = &seq[q + 1..];
                    if let Some((last, init)) = lhs.split_last() {
                        if init == open {
                            self.a4_completing.push(*last);
                        }
                    }
                }
            }
        }
    }

    /// The template of a complete top-down derivation as tokens: fills
    /// `out` with its right-hand side and returns its LHS. The tokens
    /// follow the derivation, as [`Derivation::td_program`]'s AST does,
    /// and carry the names the search interned in [`Rules`].
    ///
    /// # Panics
    ///
    /// Panics if the derivation is incomplete.
    pub(crate) fn td_tokens<'r>(
        &self,
        rules: &'r Rules,
        out: &mut Vec<RhsTok<'r>>,
    ) -> AccessRef<'r> {
        assert!(
            self.holes.is_empty(),
            "only a complete derivation is a template"
        );
        out.clear();
        let mut consts = 0;
        // `PROGRAM → TENSOR1 "=" EXPR`, then `TENSOR1 → <lhs access>`,
        // then the derivation of EXPR.
        for &rule in &self.rules[2..] {
            let info = rules.info(rule);
            out.push(match &info.leaf {
                Leaf::Access { access, ids_at, .. } => {
                    RhsTok::Access(rules.interned(access, *ids_at))
                }
                Leaf::Const => {
                    consts += 1;
                    RhsTok::ConstSym(consts - 1)
                }
                Leaf::Op(op) => RhsTok::Op(*op),
                Leaf::Nothing if info.binary => RhsTok::Binary,
                // A unit rule such as `EXPR → TENSOR`.
                Leaf::Nothing if info.rhs.len() == 1 => continue,
                other => panic!("rule {rule:?} ({other:?}) cannot derive a top-down expression"),
            });
        }
        rules.access_ref(self.rules[1])
    }

    /// The template of a complete top-down derivation. The AST follows
    /// the derivation, so `(b + c) * d` and `b + c * d` stay distinct.
    ///
    /// # Panics
    ///
    /// Panics if the derivation is incomplete.
    pub(crate) fn td_program(&self, rules: &Rules) -> TacoProgram {
        assert!(
            self.holes.is_empty(),
            "only a complete derivation is a program"
        );
        // `PROGRAM → TENSOR1 "=" EXPR`, then `TENSOR1 → <lhs access>`,
        // then the derivation of EXPR.
        let mut it = self.rules.iter();
        it.next();
        let lhs = rules
            .access(*it.next().expect("the LHS is derived"))
            .clone();
        let rhs = rules.td_expr(&mut it, &mut 0);
        TacoProgram::new(lhs, rhs)
    }

    /// The template of a bottom-up derivation whose open holes are all
    /// `tails`, with those tails removed — the paper's `RemoveTail`
    /// (Algorithm 2, line 7). `None` when another hole is open or the
    /// chain is not balanced.
    pub(crate) fn bu_program(&self, rules: &Rules, tails: &[NtId]) -> Option<TacoProgram> {
        if !self.holes.iter().all(|h| tails.contains(&h.nt)) || self.rules.len() < 2 {
            return None;
        }
        // The first two rules place `TENSOR1 "=" EXPR` and the LHS.
        let lhs = rules.access(self.rules[1]).clone();
        let mut leaves = Vec::new();
        let mut ops = Vec::new();
        let mut consts = 0u32;
        for r in &self.rules[2..] {
            match &rules.info(*r).leaf {
                Leaf::Access { access, .. } => leaves.push(Expr::Access(access.clone())),
                Leaf::Const => {
                    leaves.push(Expr::ConstSym(consts));
                    consts += 1;
                }
                Leaf::Op(op) => ops.push(*op),
                Leaf::Nothing => {}
            }
        }
        if !self.holes.is_empty() && leaves.len() != ops.len() + 1 {
            return None;
        }
        Some(TacoProgram::new(lhs, build_chain_expr(&leaves, &ops)?))
    }
}

/// The bit of `op` in [`Facts::ops`] (its position in [`BinOp::ALL`]).
const fn op_bit(op: BinOp) -> u8 {
    1 << op as u8
}

/// The [`Facts::ops`] bits of the operators a4 inspects.
const A4_OPS: u8 = op_bit(BinOp::Add) | op_bit(BinOp::Sub) | op_bit(BinOp::Div);

/// The program a template's tokens spell, whichever table interned its
/// names: what tests compare tokens by.
#[cfg(test)]
pub(crate) fn spelled(lhs: AccessRef<'_>, rhs: &[RhsTok<'_>]) -> TacoProgram {
    fn expr(toks: &mut std::slice::Iter<'_, RhsTok<'_>>) -> Expr {
        match *toks.next().expect("a complete expression") {
            RhsTok::Access(a) => Expr::Access(a.access.clone()),
            RhsTok::Const(c) => Expr::Const(c),
            RhsTok::ConstSym(s) => Expr::ConstSym(s),
            RhsTok::Neg => Expr::Neg(Box::new(expr(toks))),
            RhsTok::Binary => {
                let l = expr(toks);
                let Some(&RhsTok::Op(op)) = toks.next() else {
                    panic!("a binary node without its operator");
                };
                Expr::binary(op, l, expr(toks))
            }
            RhsTok::Op(op) => panic!("operator `{op}` outside a binary node"),
        }
    }
    let mut toks = rhs.iter();
    let program = TacoProgram::new(lhs.access.clone(), expr(&mut toks));
    assert!(toks.next().is_none(), "tokens after a complete expression");
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_taco::{parse_program, CanonEncoder, TemplateRef};
    use gtl_template::{
        bu_derivation, generate_bu_grammar, generate_td_grammar, td_derivation, GrammarShape,
        TdSpec, Template,
    };
    use std::collections::HashMap;

    fn spec(dims: Vec<usize>, n_indices: usize) -> TdSpec {
        TdSpec {
            dim_list: dims,
            n_indices,
            allow_repeated_index: false,
            include_const: false,
        }
    }

    /// Replays the first `len` rules of `rules` through an arena chain.
    fn replay(g: &TemplateGrammar, rules: &[RuleId], len: usize) -> (Rules, Derivation) {
        let table = Rules::new(g);
        let mut arena = vec![Node::ROOT];
        for (n, rule) in rules[..len].iter().enumerate() {
            arena.push(Node {
                parent: n as u32,
                rule: *rule,
            });
        }
        let mut d = Derivation::default();
        d.replay(&table, &arena, len as u32, len as u32);
        (table, d)
    }

    /// Every derivation of `g` in breadth-first order, as an arena with
    /// each node's length, until `cap` nodes.
    fn exhaustive_arena(g: &TemplateGrammar, table: &Rules, cap: usize) -> (Vec<Node>, Vec<u32>) {
        let mut arena = vec![Node::ROOT];
        let mut lens = vec![0u32];
        let mut next = 0;
        while next < arena.len() && arena.len() < cap {
            let mut d = Derivation::default();
            d.replay(table, &arena, next as u32, lens[next]);
            if let Some(nt) = d.leftmost_hole() {
                for &rule in g.pcfg.rules_of(nt) {
                    arena.push(Node {
                        parent: next as u32,
                        rule,
                    });
                    lens.push(lens[next] + 1);
                }
            }
            next += 1;
        }
        (arena, lens)
    }

    /// One shared derivation replays every node of an exhaustive arena in
    /// a shuffled order, so most replays rewind; each must leave exactly
    /// the state of a replay from the root.
    #[test]
    fn incremental_replay_equals_replay_from_the_root() {
        for g in &exhaustive_grammars() {
            let table = Rules::new(g);
            let (arena, lens) = exhaustive_arena(g, &table, 6000);
            let mut order: Vec<usize> = (0..arena.len()).collect();
            let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
            for i in (1..order.len()).rev() {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                order.swap(i, (seed % (i as u64 + 1)) as usize);
            }
            let (mut a4_nodes, mut complete) = (0, 0);
            let mut shared = Derivation::default();
            for &n in &order {
                shared.replay(&table, &arena, n as u32, lens[n]);
                let mut fresh = Derivation::default();
                fresh.replay(&table, &arena, n as u32, lens[n]);
                // `Debug` prints every field, trail and a4 state included,
                // and each `f64` in its shortest exact form.
                assert_eq!(format!("{shared:?}"), format!("{fresh:?}"), "node {n}");
                a4_nodes += usize::from(shared.a4_closed || !shared.a4_completing.is_empty());
                complete += usize::from(shared.facts.complete);
            }
            assert!(
                complete > 0,
                "no complete derivation in {} nodes",
                arena.len()
            );
            if g.shape == GrammarShape::TopDown {
                assert!(a4_nodes > 0, "no a4 state in {} nodes", arena.len());
            }
        }
    }

    /// The exhaustive arenas: a top-down grammar with `CONSTANT` and all
    /// four operators, and a bottom-up one.
    fn exhaustive_grammars() -> [TemplateGrammar; 2] {
        let mut td = generate_td_grammar(&TdSpec {
            include_const: true,
            ..spec(vec![1, 1, 1], 1)
        });
        td.pcfg.equalize_weights();
        [td, generate_bu_grammar(&spec(vec![1, 1, 1, 1], 1))]
    }

    /// Where the replay guard skips `prepare_a4` (no `+`, `-` or `/`
    /// placed), running it anyway finds nothing.
    #[test]
    fn a4_guard_skips_only_empty_preparations() {
        for g in &exhaustive_grammars() {
            let table = Rules::new(g);
            let (arena, lens) = exhaustive_arena(g, &table, 6000);
            let mut skipped = 0;
            for (n, &len) in lens.iter().enumerate() {
                let mut d = Derivation::default();
                d.replay(&table, &arena, n as u32, len);
                if d.holes.len() != 1 || d.facts.ops & A4_OPS != 0 {
                    continue;
                }
                skipped += 1;
                d.prepare_a4(&table);
                assert!(!d.a4_closed && d.a4_completing.is_empty(), "node {n}");
            }
            assert!(skipped > 0, "the guard never skipped");
        }
    }

    /// Every complete derivation of the exhaustive top-down arena loads
    /// from its tokens exactly as from its program: equal facts and
    /// byte-equal canonical keys.
    #[test]
    fn tokens_load_like_the_program() {
        let [td, _] = exhaustive_grammars();
        let table = Rules::new(&td);
        let (arena, lens) = exhaustive_arena(&td, &table, 20_000);
        let (mut by_tokens, mut by_program) = (CanonEncoder::default(), CanonEncoder::default());
        let mut toks = Vec::new();
        let (mut complete, mut ops, mut consts) = (0, 0u8, 0);
        let mut d = Derivation::default();
        for (n, &len) in lens.iter().enumerate() {
            d.replay(&table, &arena, n as u32, len);
            if !d.holes.is_empty() {
                continue;
            }
            complete += 1;
            ops |= d.facts.ops;
            consts += usize::from(d.facts.has_const);
            let lhs = d.td_tokens(&table, &mut toks);
            let program = d.td_program(&table);
            let facts = by_tokens.load_ref(TemplateRef { lhs, rhs: &toks });
            assert_eq!(facts, by_program.load(&program), "facts of {program}");
            assert_eq!(by_tokens.key(), by_program.key(), "key of {program}");
        }
        assert!(complete > 500, "{complete} complete derivations");
        assert_eq!(ops, 0b1111, "every operator placed");
        assert!(consts > 0, "a constant placed");
    }

    /// Over every complete derivation of the exhaustive top-down arenas,
    /// checking from tokens whose names the search interned once gives
    /// the facts of loading the built program, and groups templates into
    /// exactly the classes that program keys do: the seen-set prunes the
    /// same templates either way.
    #[test]
    fn interned_tokens_partition_like_program_keys() {
        let [td, _] = exhaustive_grammars();
        let mut wide = generate_td_grammar(&TdSpec {
            include_const: true,
            ..spec(vec![2, 1, 2], 2)
        });
        wide.pcfg.equalize_weights();
        for g in [td, wide] {
            let table = Rules::new(&g);
            let (arena, lens) = exhaustive_arena(&g, &table, 20_000);
            let mut enc = CanonEncoder::default();
            let mut toks = Vec::new();
            // Per complete derivation: the first derivation with its key,
            // by tokens and by program.
            let (mut by_tokens, mut by_program) = (HashMap::new(), HashMap::new());
            let (mut classes_tok, mut classes_prog) = (Vec::new(), Vec::new());
            let mut d = Derivation::default();
            for (n, &len) in lens.iter().enumerate() {
                d.replay(&table, &arena, n as u32, len);
                if !d.holes.is_empty() {
                    continue;
                }
                let lhs = d.td_tokens(&table, &mut toks);
                let program = d.td_program(&table);
                let facts = enc.load_ref(TemplateRef { lhs, rhs: &toks });
                let first = classes_tok.len();
                classes_tok.push(*by_tokens.entry(enc.key().to_vec()).or_insert(first));
                assert_eq!(facts, enc.load(&program), "facts of {program}");
                classes_prog.push(*by_program.entry(enc.key().to_vec()).or_insert(first));
            }
            assert_eq!(classes_tok, classes_prog);
            let complete = classes_tok.len();
            assert!(
                complete > 500 && 4 * by_tokens.len() < 3 * complete,
                "{complete} complete derivations in {} classes",
                by_tokens.len()
            );
        }
    }

    fn template(src: &str) -> Template {
        Template {
            program: parse_program(src).unwrap(),
        }
    }

    #[test]
    fn complete_top_down_derivation_is_its_program() {
        let g = generate_td_grammar(&spec(vec![1, 1, 1, 1], 1));
        let src = "a(i) = (b(i) + c(i)) * d(i)";
        let rules = td_derivation(&g, &template(src)).unwrap();
        let (table, d) = replay(&g, &rules, rules.len());
        assert!(d.facts().complete);
        assert_eq!(d.depth(), 3);
        assert_eq!(d.td_program(&table).to_string(), src);
        let f = d.facts();
        assert_eq!(f.rhs_operand_slots, 3, "the LHS is not an operand slot");
        assert_eq!(f.ops, op_bit(BinOp::Add) | op_bit(BinOp::Mul));
        assert!(f.alphabetical);
    }

    #[test]
    fn partial_facts_count_promised_operands() {
        let g = generate_td_grammar(&spec(vec![1, 2, 1], 2));
        let rules = td_derivation(&g, &template("a(i) = b(i,j) * c(j)")).unwrap();
        // PROGRAM, TENSOR1, EXPR → EXPR OP EXPR: holes EXPR, OP, EXPR.
        let (_, d) = replay(&g, &rules, 3);
        assert_eq!(d.leftmost_hole(), Some(g.nts.expr));
        let f = d.facts();
        assert_eq!((f.rhs_operand_slots, f.op_holes), (2, 1));
        assert!(!f.complete && f.lhs_placed);
        assert_eq!(d.depth(), 2);
    }

    #[test]
    fn bottom_up_prefix_strips_its_open_tail() {
        let g = generate_bu_grammar(&spec(vec![1, 1, 1, 1], 1));
        let tails = &g.nts.tails;
        let rules = bu_derivation(&g, &template("a(i) = b(i) * c(i) + d(i)")).unwrap();
        let (table, d) = replay(&g, &rules, rules.len());
        let full = d.bu_program(&table, tails).unwrap();
        assert_eq!(full.to_string(), "a(i) = b(i) * c(i) + d(i)");
        assert!(
            matches!(full.rhs, Expr::Binary { op: BinOp::Add, .. }),
            "precedence"
        );
        // PROGRAM, TENSOR1, EXPR, b, TAIL1 → OP TENSOR TAIL2, *, c: only
        // TAIL2 is open, so it is removed.
        let (table, d) = replay(&g, &rules, 7);
        assert_eq!(
            d.bu_program(&table, tails).unwrap().to_string(),
            "a(i) = b(i) * c(i)"
        );
        // With the operator still open there is nothing to validate.
        let (table, d) = replay(&g, &rules, 5);
        assert!(d.bu_program(&table, tails).is_none());
    }
}
