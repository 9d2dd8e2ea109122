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
//!   expression depth and whether it sits after `=`) and the
//!   penalty-relevant [`Facts`] of everything placed so far. Accesses
//!   enter those facts as per-rule facts interned once per search in
//!   [`Rules`] (tensor letter for a3/b1, "has index `i`" for a1).
//! - A child is scored from that summary plus one rule
//!   ([`Derivation::child`], [`Derivation::child_remaining_cost`]): no
//!   child is built unless it is pushed, and pushing one costs an arena
//!   slot.
//! - A [`TacoProgram`] is built only for a popped derivation
//!   ([`Derivation::td_program`], [`Derivation::bu_program`]).
//!
//! Every quantity is computed as the tree-shaped state this replaced
//! computed it — the same holes summed in the same left-to-right order —
//! so priorities, and hence pop order, are bit-identical to it.

use std::ops::Range;

use gtl_grammar::{NtId, RuleId, Sym, TemplateTok};
use gtl_taco::{Access, BinOp, Expr, TacoProgram};
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
        let mut rhs = Vec::new();
        let mut info = Vec::with_capacity(pcfg.rules().len());
        for (id, rule) in pcfg.iter_rules() {
            let leaf = match rule.rhs.as_slice() {
                [Sym::T(TemplateTok::Access(a))] => Leaf::Access {
                    access: a.clone(),
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
        match &self.info(rule).leaf {
            Leaf::Access { access, .. } => access,
            other => panic!("rule {rule:?} places {other:?}, not an access"),
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

/// The scratch summary of one popped derivation; the frontier replays
/// every popped node into the same value, so its buffers are reused.
#[derive(Debug)]
pub(crate) struct Derivation {
    /// The rules applied so far, in leftmost-derivation order.
    rules: Vec<RuleId>,
    /// Open holes, the leftmost on top.
    holes: Vec<Hole>,
    /// Expression depth of the derivation tree.
    depth: u32,
    facts: Facts,
    /// With one hole left: an a4 violation among the closed binary nodes.
    a4_closed: bool,
    /// With one hole left: the rules whose placement in that hole makes
    /// some open `+`/`-`/`/` node's operands identical.
    a4_completing: Vec<RuleId>,
}

impl Default for Derivation {
    fn default() -> Self {
        Derivation {
            rules: Vec::new(),
            holes: Vec::new(),
            depth: 1,
            facts: Facts::ROOT,
            a4_closed: false,
            a4_completing: Vec::new(),
        }
    }
}

impl Derivation {
    /// Rebuilds the summary of arena node `node`.
    pub(crate) fn replay(&mut self, rules: &Rules, arena: &[Node], node: u32) {
        self.rules.clear();
        let mut at = node;
        while at != 0 {
            let n = arena[at as usize];
            self.rules.push(n.rule);
            at = n.parent;
        }
        self.rules.reverse();
        self.holes.clear();
        self.holes.push(rules.start);
        self.depth = 1;
        self.facts = Facts::ROOT;
        self.a4_closed = false;
        self.a4_completing.clear();
        for i in 0..self.rules.len() {
            self.apply(rules, self.rules[i]);
        }
        if self.holes.len() == 1 {
            self.prepare_a4(rules);
        }
    }

    /// Expands the leftmost hole with `rule`.
    fn apply(&mut self, rules: &Rules, rule: RuleId) {
        let step = self.child(rules, rule);
        let top = self
            .holes
            .pop()
            .expect("a derivation with a hole to expand");
        let info = rules.info(rule);
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
fn op_bit(op: BinOp) -> u8 {
    1 << op as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_taco::parse_program;
    use gtl_template::{
        bu_derivation, generate_bu_grammar, generate_td_grammar, td_derivation, TdSpec, Template,
    };

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
        d.replay(&table, &arena, len as u32);
        (table, d)
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
