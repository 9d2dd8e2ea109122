//! The tree-shaped search state that [`crate::node`] replaced, kept as
//! the reference for differential tests (compiled for tests only).
//!
//! A state here is a partial derivation tree whose leaves are terminals
//! or nonterminal holes; expanding the leftmost hole clones the tree.
//! Children are judged by walking the whole tree ([`tree_facts`]) and, for
//! complete ones, converting it to a program — exactly what the search
//! did before the flat state, including penalties over those facts. The
//! tests below random-walk derivations through both and require the same
//! children, priorities and costs (bit for bit), depth verdicts and
//! candidates. Jump walks also revisit earlier nodes through one shared
//! flat state, so its incremental replay must rewind correctly.

use gtl_grammar::{NtId, Pcfg, RuleId, Sym, TemplateTok};
use gtl_taco::{Access, BinOp, Expr, TacoProgram};
use gtl_template::{build_chain_expr, TemplateGrammar};

use crate::penalty::PenaltyContext;

/// A node of a partial derivation tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Tree {
    /// An unexpanded nonterminal.
    Hole(NtId),
    /// A terminal leaf.
    Term(TemplateTok),
    /// The children produced by applying a multi-symbol rule.
    Branch(Vec<Tree>),
}

impl Tree {
    /// Whether the tree contains no holes.
    pub(crate) fn is_complete(&self) -> bool {
        match self {
            Tree::Hole(_) => false,
            Tree::Term(_) => true,
            Tree::Branch(cs) => cs.iter().all(Tree::is_complete),
        }
    }

    /// The leftmost hole, if any.
    pub(crate) fn leftmost_hole(&self) -> Option<NtId> {
        match self {
            Tree::Hole(n) => Some(*n),
            Tree::Term(_) => None,
            Tree::Branch(cs) => cs.iter().find_map(Tree::leftmost_hole),
        }
    }

    /// All holes, left to right.
    pub(crate) fn holes(&self) -> Vec<NtId> {
        let mut out = Vec::new();
        self.collect_holes(&mut out);
        out
    }

    fn collect_holes(&self, out: &mut Vec<NtId>) {
        match self {
            Tree::Hole(n) => out.push(*n),
            Tree::Term(_) => {}
            Tree::Branch(cs) => {
                for c in cs {
                    c.collect_holes(out);
                }
            }
        }
    }

    /// Replaces the leftmost hole with the RHS of `rule`, returning the
    /// new tree. Returns `None` if there is no hole.
    pub(crate) fn expand_leftmost(&self, rule_rhs: &[Sym]) -> Option<Tree> {
        let mut done = false;
        let out = self.expand_inner(rule_rhs, &mut done);
        if done {
            Some(out)
        } else {
            None
        }
    }

    fn expand_inner(&self, rhs: &[Sym], done: &mut bool) -> Tree {
        if *done {
            return self.clone();
        }
        match self {
            Tree::Hole(_) => {
                *done = true;
                subtree_of_rhs(rhs)
            }
            Tree::Term(t) => Tree::Term(t.clone()),
            Tree::Branch(cs) => {
                Tree::Branch(cs.iter().map(|c| c.expand_inner(rhs, done)).collect())
            }
        }
    }

    /// Expression depth as the paper counts it (leaves depth 1, index
    /// expressions excluded); holes count as depth-1 leaves.
    pub(crate) fn expr_depth(&self) -> usize {
        match self {
            Tree::Hole(_) | Tree::Term(_) => 1,
            Tree::Branch(cs) => {
                // A binary-expression branch is [lhs, OP, rhs]; other
                // branches (program root, chains) are traversed without
                // adding depth for the operator slot.
                if cs.len() == 3 && is_op_slot(&cs[1]) {
                    1 + cs[0].expr_depth().max(cs[2].expr_depth())
                } else {
                    cs.iter().map(Tree::expr_depth).max().unwrap_or(1)
                }
            }
        }
    }
}

/// Whether a middle child marks a binary-expression branch. In top-down
/// trees the middle slot of `EXPR OP EXPR` is either an expanded operator
/// or a still-open `OP` hole; the program root's middle slot is `=` and is
/// therefore excluded.
fn is_op_slot(t: &Tree) -> bool {
    matches!(t, Tree::Term(TemplateTok::Op(_)) | Tree::Hole(_))
}

/// Builds the subtree for a rule right-hand side.
fn subtree_of_rhs(rhs: &[Sym]) -> Tree {
    let nodes: Vec<Tree> = rhs
        .iter()
        .map(|s| match s {
            Sym::Nt(n) => Tree::Hole(*n),
            Sym::T(t) => Tree::Term(t.clone()),
        })
        .collect();
    if nodes.len() == 1 {
        nodes.into_iter().next().expect("length checked")
    } else {
        Tree::Branch(nodes)
    }
}

/// Surface facts about a (possibly partial) tree, consumed by the
/// penalty functions.
#[derive(Debug, Clone, Default)]
pub(crate) struct TreeFacts {
    /// Tensor accesses placed so far, in order (LHS first).
    pub accesses: Vec<Access>,
    /// Whether a `Const` terminal is present.
    pub has_const: bool,
    /// Operators placed so far, in order.
    pub ops: Vec<BinOp>,
    /// Total operand slots on the right-hand side: placed accesses,
    /// placed constants and remaining holes that will each produce at
    /// least one operand.
    pub rhs_operand_slots: usize,
    /// Unexpanded operator holes — each may still become any operator,
    /// which the coverage penalties (a5/b2) must account for.
    pub op_holes: usize,
    /// Whether the tree is complete.
    pub complete: bool,
}

/// Extracts penalty-relevant facts. `op_nt` is the operator nonterminal
/// (its holes count as potential operators, not operands); `tails` are
/// the bottom-up `TAIL` nonterminals, whose holes may collapse to ε and
/// therefore promise nothing.
pub(crate) fn tree_facts(tree: &Tree, op_nt: NtId, tails: &[NtId]) -> TreeFacts {
    let mut f = TreeFacts {
        complete: tree.is_complete(),
        ..TreeFacts::default()
    };
    // The root is Branch([tensor1, '=', expr]); everything after '=' is
    // RHS. Walk the whole tree but only count operand slots after Eq.
    let mut seen_eq = false;
    walk(tree, op_nt, tails, &mut seen_eq, &mut f);
    f
}

fn walk(t: &Tree, op_nt: NtId, tails: &[NtId], seen_eq: &mut bool, f: &mut TreeFacts) {
    match t {
        Tree::Term(TemplateTok::Eq) => *seen_eq = true,
        Tree::Term(TemplateTok::Access(a)) => {
            f.accesses.push(a.clone());
            if *seen_eq {
                f.rhs_operand_slots += 1;
            }
        }
        Tree::Term(TemplateTok::ConstSym) => {
            f.has_const = true;
            if *seen_eq {
                f.rhs_operand_slots += 1;
            }
        }
        Tree::Term(TemplateTok::Op(o)) => f.ops.push(*o),
        Tree::Term(TemplateTok::Epsilon) => {}
        Tree::Hole(n) => {
            if *n == op_nt {
                f.op_holes += 1;
            } else if *seen_eq && !tails.contains(n) {
                f.rhs_operand_slots += 1;
            }
        }
        Tree::Branch(cs) => {
            for c in cs {
                walk(c, op_nt, tails, &mut *seen_eq, f);
            }
        }
    }
}

/// Converts a complete *top-down* tree into a TACO template program,
/// preserving the derivation's AST structure (so `(b + c) * d` and
/// `b + c * d` stay distinct).
pub(crate) fn td_tree_to_program(tree: &Tree) -> Option<TacoProgram> {
    let Tree::Branch(parts) = tree else {
        return None;
    };
    let [lhs_part, Tree::Term(TemplateTok::Eq), rhs_part] = parts.as_slice() else {
        return None;
    };
    let lhs = match lhs_part {
        Tree::Term(TemplateTok::Access(a)) => a.clone(),
        _ => return None,
    };
    let mut const_counter = 0u32;
    let rhs = td_expr(rhs_part, &mut const_counter)?;
    Some(TacoProgram::new(lhs, rhs))
}

fn td_expr(t: &Tree, consts: &mut u32) -> Option<Expr> {
    match t {
        Tree::Term(TemplateTok::Access(a)) => Some(Expr::Access(a.clone())),
        Tree::Term(TemplateTok::ConstSym) => {
            let id = *consts;
            *consts += 1;
            Some(Expr::ConstSym(id))
        }
        Tree::Branch(cs) => match cs.as_slice() {
            [l, Tree::Term(TemplateTok::Op(op)), r] => Some(Expr::Binary {
                op: *op,
                lhs: Box::new(td_expr(l, consts)?),
                rhs: Box::new(td_expr(r, consts)?),
            }),
            [single] => td_expr(single, consts),
            _ => None,
        },
        _ => None,
    }
}

/// Converts a *bottom-up* tree (a tail chain) into a TACO template,
/// stripping an unexpanded trailing `TAIL` hole if present — the paper's
/// `RemoveTail` (Algorithm 2, line 7). `tails` identifies which
/// nonterminals are strippable; any other hole aborts the conversion.
pub(crate) fn bu_tree_to_program(tree: &Tree, tails: &[NtId]) -> Option<TacoProgram> {
    let Tree::Branch(parts) = tree else {
        return None;
    };
    let [lhs_part, Tree::Term(TemplateTok::Eq), rhs_part] = parts.as_slice() else {
        return None;
    };
    let lhs = match lhs_part {
        Tree::Term(TemplateTok::Access(a)) => a.clone(),
        _ => return None,
    };
    let mut leaves = Vec::new();
    let mut ops = Vec::new();
    let mut const_counter = 0u32;
    if !flatten_chain(rhs_part, tails, &mut leaves, &mut ops, &mut const_counter) {
        return None;
    }
    let rhs = build_chain_expr(&leaves, &ops)?;
    Some(TacoProgram::new(lhs, rhs))
}

/// Flattens a BU chain tree. Returns `false` if a non-tail hole remains.
/// A trailing tail hole (the last position) is silently stripped.
fn flatten_chain(
    t: &Tree,
    tails: &[NtId],
    leaves: &mut Vec<Expr>,
    ops: &mut Vec<BinOp>,
    consts: &mut u32,
) -> bool {
    match t {
        Tree::Term(TemplateTok::Access(a)) => {
            leaves.push(Expr::Access(a.clone()));
            true
        }
        Tree::Term(TemplateTok::ConstSym) => {
            let id = *consts;
            *consts += 1;
            leaves.push(Expr::ConstSym(id));
            true
        }
        Tree::Term(TemplateTok::Op(o)) => {
            ops.push(*o);
            true
        }
        Tree::Term(TemplateTok::Epsilon) | Tree::Term(TemplateTok::Eq) => true,
        // Only a TAIL hole in trailing position (balanced chain so far)
        // may be stripped.
        Tree::Hole(n) => tails.contains(n) && leaves.len() == ops.len() + 1,
        Tree::Branch(cs) => cs
            .iter()
            .all(|c| flatten_chain(c, tails, leaves, ops, consts)),
    }
}

/// Lookup table for rule application: the per-rule cost vector plus
/// heuristic costs per nonterminal.
#[derive(Debug, Clone)]
pub(crate) struct CostModel {
    /// `-log2 P[r]` per rule.
    pub rule_cost: Vec<f64>,
    /// `-log2 h(α)` per nonterminal.
    pub heuristic: Vec<f64>,
}

impl CostModel {
    /// Builds the cost model from a grammar.
    pub(crate) fn new(pcfg: &Pcfg) -> CostModel {
        CostModel {
            rule_cost: pcfg.costs(),
            heuristic: pcfg.heuristic_costs(),
        }
    }

    /// The cost of applying `rule`.
    pub(crate) fn cost(&self, rule: RuleId) -> f64 {
        self.rule_cost[rule.index()]
    }

    /// The heuristic g(x): sum of `-log2 h(α)` over the holes of `tree`.
    pub(crate) fn remaining_cost(&self, tree: &Tree) -> f64 {
        tree.holes().iter().map(|n| self.heuristic[n.index()]).sum()
    }
}

/// Does the sequence of distinct tensor symbols, in order of first
/// appearance, follow the alphabet `a, b, c…`? (a3 / b1.)
fn alphabetical_by_first_appearance(facts: &TreeFacts) -> bool {
    let mut seen: Vec<&str> = Vec::new();
    for acc in &facts.accesses {
        let name = acc.tensor.as_str();
        if !seen.contains(&name) {
            seen.push(name);
        }
    }
    seen.iter()
        .enumerate()
        .all(|(n, s)| s.as_bytes() == [b'a' + n as u8])
}

/// a1 over tree facts.
fn a1_violated(facts: &TreeFacts, ctx: &PenaltyContext) -> bool {
    if !ctx.grammar_has_const {
        return false;
    }
    if facts.rhs_operand_slots < 3 {
        return false;
    }
    let tensors_with_i = facts
        .accesses
        .iter()
        .skip(1) // LHS
        .filter(|a| a.indices.iter().any(|ix| ix.as_str() == "i"))
        .count();
    tensors_with_i < 2 || !facts.has_const
}

/// a4: a complete template applying `+`, `-` or `/` to two structurally
/// identical operands.
pub(crate) fn a4_violated(program: &TacoProgram) -> bool {
    fn scan(e: &Expr) -> bool {
        match e {
            Expr::Binary { op, lhs, rhs } => {
                let same = lhs == rhs;
                let bad_op = matches!(op, BinOp::Add | BinOp::Sub | BinOp::Div);
                (same && bad_op) || scan(lhs) || scan(rhs)
            }
            Expr::Neg(inner) => scan(inner),
            Expr::Access(_) | Expr::Const(_) | Expr::ConstSym(_) => false,
        }
    }
    scan(&program.rhs)
}

/// a5/b2 over tree facts.
fn op_coverage_violated(facts: &TreeFacts, ctx: &PenaltyContext) -> bool {
    if facts.ops.is_empty() && facts.op_holes == 0 {
        return false;
    }
    let mut distinct: Vec<BinOp> = Vec::new();
    for o in &facts.ops {
        if !distinct.contains(o) {
            distinct.push(*o);
        }
    }
    distinct.len() + facts.op_holes < ctx.min_ops()
}

/// The top-down penalty over tree facts; `program` is the converted
/// template when complete.
pub(crate) fn td_penalty(
    facts: &TreeFacts,
    program: Option<&TacoProgram>,
    ctx: &PenaltyContext,
) -> f64 {
    let s = &ctx.settings;
    let mut x = 0.0f64;
    if s.a1 && a1_violated(facts, ctx) {
        x += 10.0;
    }
    if s.a2 {
        if let Some(len) = ctx.predicted_len() {
            let current = facts.rhs_operand_slots + 1;
            let violated = if facts.complete {
                current != len
            } else {
                current > len
            };
            if violated {
                x += 100.0;
            }
        }
    }
    if s.a3 && !alphabetical_by_first_appearance(facts) {
        return f64::INFINITY;
    }
    if let Some(p) = program {
        if s.a4 && a4_violated(p) {
            return f64::INFINITY;
        }
        if s.a5 && op_coverage_violated(facts, ctx) {
            return f64::INFINITY;
        }
    }
    x
}

/// The bottom-up penalty over tree facts.
pub(crate) fn bu_penalty(facts: &TreeFacts, ctx: &PenaltyContext) -> f64 {
    let s = &ctx.settings;
    let mut x = 0.0f64;
    if s.b1 && !alphabetical_by_first_appearance(facts) {
        x += 100.0;
    }
    if s.b2 {
        if let Some(len) = ctx.predicted_len() {
            if facts.rhs_operand_slots + 1 >= len && op_coverage_violated(facts, ctx) {
                return f64::INFINITY;
            }
        }
    }
    x
}

/// One successor produced by the reference expanders.
#[derive(Debug, Clone)]
pub(crate) struct RefChild {
    pub rule: RuleId,
    pub tree: Tree,
    pub cost: f64,
    pub f: f64,
}

/// The tree-based judgement of both algorithms, as the search ran it
/// before the flat state.
pub(crate) struct RefExpand<'a> {
    pub grammar: &'a TemplateGrammar,
    pub ctx: &'a PenaltyContext,
    pub costs: CostModel,
    pub max_depth: usize,
}

impl<'a> RefExpand<'a> {
    pub(crate) fn new(
        grammar: &'a TemplateGrammar,
        ctx: &'a PenaltyContext,
        max_depth: usize,
    ) -> RefExpand<'a> {
        RefExpand {
            grammar,
            ctx,
            costs: CostModel::new(&grammar.pcfg),
            max_depth,
        }
    }

    fn top_down(&self) -> bool {
        self.grammar.shape == gtl_template::GrammarShape::TopDown
    }

    pub(crate) fn root(&self) -> Tree {
        Tree::Hole(self.grammar.pcfg.start())
    }

    pub(crate) fn skip(&self, tree: &Tree) -> bool {
        self.top_down() && tree.expr_depth() > self.max_depth
    }

    pub(crate) fn candidate(&self, tree: &Tree) -> Option<TacoProgram> {
        if self.top_down() {
            if !tree.is_complete() {
                return None;
            }
            return td_tree_to_program(tree);
        }
        let tails = &self.grammar.nts.tails;
        let facts = tree_facts(tree, self.grammar.nts.op, tails);
        let ready = match self.grammar.nts.position_dims.len() {
            0 => true,
            n => facts.rhs_operand_slots >= n,
        };
        if !ready {
            return None;
        }
        bu_tree_to_program(tree, tails)
    }

    /// The successors in push order. A complete top-down child that
    /// fails to convert panics: the flat state relies on every complete
    /// derivation converting.
    pub(crate) fn children(&self, tree: &Tree, cost: f64) -> Vec<RefChild> {
        if tree.is_complete() {
            return Vec::new();
        }
        let Some(nt) = tree.leftmost_hole() else {
            return Vec::new();
        };
        let nts = &self.grammar.nts;
        let mut out = Vec::new();
        for rid in self.grammar.pcfg.rules_of(nt) {
            let rule_cost = self.costs.cost(*rid);
            if rule_cost.is_infinite() {
                continue;
            }
            let rhs = &self.grammar.pcfg.rule(*rid).rhs;
            let child = tree.expand_leftmost(rhs).expect("leftmost hole exists");
            let c = cost + rule_cost;
            let (g, x) = if self.top_down() {
                if child.expr_depth() > self.max_depth {
                    continue;
                }
                let g = self.costs.remaining_cost(&child);
                if g.is_infinite() {
                    continue;
                }
                let facts = tree_facts(&child, nts.op, &[]);
                let program = if facts.complete {
                    Some(td_tree_to_program(&child).expect("a complete tree converts"))
                } else {
                    None
                };
                (g, td_penalty(&facts, program.as_ref(), self.ctx))
            } else {
                let facts = tree_facts(&child, nts.op, &nts.tails);
                let g = bu_remaining_cost(self.grammar, &self.costs, facts.rhs_operand_slots);
                (g, bu_penalty(&facts, self.ctx))
            };
            if x.is_infinite() {
                continue;
            }
            out.push(RefChild {
                rule: *rid,
                tree: child,
                cost: c,
                f: c + g + x,
            });
        }
        out
    }
}

/// The bottom-up completion estimate, recomputed per child.
fn bu_remaining_cost(grammar: &TemplateGrammar, costs: &CostModel, current_tensors: usize) -> f64 {
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
            .map(|rid| costs.cost(*rid))
            .fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            total += m;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_grammar::Pcfg;

    fn toks() -> (TemplateTok, TemplateTok, TemplateTok) {
        (
            TemplateTok::Access(Access::new("a", &["i"])),
            TemplateTok::Access(Access::new("b", &["i", "j"])),
            TemplateTok::Access(Access::new("c", &["j"])),
        )
    }

    #[test]
    fn expansion_fills_leftmost() {
        let mut g = Pcfg::new();
        let s = g.add_nonterminal("S");
        let e = g.add_nonterminal("E");
        g.set_start(s);
        let tree = Tree::Hole(s);
        let rhs = vec![Sym::Nt(e), Sym::T(TemplateTok::Eq), Sym::Nt(e)];
        let t2 = tree.expand_leftmost(&rhs).unwrap();
        assert_eq!(t2.holes().len(), 2);
        assert_eq!(t2.leftmost_hole(), Some(e));
        // Expanding again touches the left hole only.
        let t3 = t2
            .expand_leftmost(&[Sym::T(TemplateTok::ConstSym)])
            .unwrap();
        assert_eq!(t3.holes().len(), 1);
    }

    #[test]
    fn complete_td_tree_roundtrip() {
        let (a, b, c) = toks();
        // a(i) = b(i,j) * c(j)
        let tree = Tree::Branch(vec![
            Tree::Term(a),
            Tree::Term(TemplateTok::Eq),
            Tree::Branch(vec![
                Tree::Term(b),
                Tree::Term(TemplateTok::Op(BinOp::Mul)),
                Tree::Term(c),
            ]),
        ]);
        assert!(tree.is_complete());
        let p = td_tree_to_program(&tree).unwrap();
        assert_eq!(p.to_string(), "a(i) = b(i,j) * c(j)");
    }

    #[test]
    fn depth_counts_binary_nesting() {
        let (a, b, c) = toks();
        let leaf = |t: &TemplateTok| Tree::Term(t.clone());
        let mul = |l, r| Tree::Branch(vec![l, Tree::Term(TemplateTok::Op(BinOp::Mul)), r]);
        let t = Tree::Branch(vec![
            leaf(&a),
            Tree::Term(TemplateTok::Eq),
            mul(mul(leaf(&b), leaf(&c)), leaf(&b)),
        ]);
        assert_eq!(t.expr_depth(), 3);
    }

    #[test]
    fn facts_count_rhs_only() {
        let (a, b, c) = toks();
        let mut g = Pcfg::new();
        let op = g.add_nonterminal("OP");
        let tree = Tree::Branch(vec![
            Tree::Term(a),
            Tree::Term(TemplateTok::Eq),
            Tree::Branch(vec![
                Tree::Term(b),
                Tree::Term(TemplateTok::Op(BinOp::Mul)),
                Tree::Term(c),
            ]),
        ]);
        let f = tree_facts(&tree, op, &[]);
        assert_eq!(f.rhs_operand_slots, 2, "LHS access is not an operand slot");
        assert_eq!(f.accesses.len(), 3);
        assert_eq!(f.ops, vec![BinOp::Mul]);
        assert!(f.complete);
    }

    #[test]
    fn bu_chain_strips_tail() {
        let (a, b, c) = toks();
        let mut g = Pcfg::new();
        let tail = g.add_nonterminal("TAIL2");
        // a(i) = b(i,j) [chain: * c(j), TAIL2-hole]
        let tree = Tree::Branch(vec![
            Tree::Term(a),
            Tree::Term(TemplateTok::Eq),
            Tree::Branch(vec![
                Tree::Term(b),
                Tree::Branch(vec![
                    Tree::Term(TemplateTok::Op(BinOp::Mul)),
                    Tree::Term(c),
                    Tree::Hole(tail),
                ]),
            ]),
        ]);
        let p = bu_tree_to_program(&tree, &[tail]).unwrap();
        assert_eq!(p.to_string(), "a(i) = b(i,j) * c(j)");
    }

    #[test]
    fn bu_chain_respects_precedence() {
        let (a, b, c) = toks();
        // a(i) = b + c * b  → Add(b, Mul(c, b))
        let tree = Tree::Branch(vec![
            Tree::Term(a),
            Tree::Term(TemplateTok::Eq),
            Tree::Branch(vec![
                Tree::Term(b.clone()),
                Tree::Branch(vec![
                    Tree::Term(TemplateTok::Op(BinOp::Add)),
                    Tree::Term(c),
                    Tree::Branch(vec![
                        Tree::Term(TemplateTok::Op(BinOp::Mul)),
                        Tree::Term(b),
                        Tree::Term(TemplateTok::Epsilon),
                    ]),
                ]),
            ]),
        ]);
        let p = bu_tree_to_program(&tree, &[]).unwrap();
        assert_eq!(p.to_string(), "a(i) = b(i,j) + c(j) * b(i,j)");
        match p.rhs {
            Expr::Binary { op, .. } => assert_eq!(op, BinOp::Add),
            other => panic!("expected top-level Add, got {other:?}"),
        }
    }

    #[test]
    fn incomplete_bu_with_inner_hole_rejected() {
        let (a, b, _) = toks();
        let mut g = Pcfg::new();
        let opnt = g.add_nonterminal("OP");
        let tree = Tree::Branch(vec![
            Tree::Term(a),
            Tree::Term(TemplateTok::Eq),
            Tree::Branch(vec![
                Tree::Term(b.clone()),
                Tree::Branch(vec![
                    Tree::Hole(opnt), // unexpanded operator: not strippable
                    Tree::Term(b),
                ]),
            ]),
        ]);
        assert!(bu_tree_to_program(&tree, &[]).is_none());
    }
}

/// Differential tests: the flat state against the tree reference.
#[cfg(test)]
mod differential {
    use super::*;
    use crate::bottomup::BuExpand;
    use crate::frontier::{Candidate, Child, Expand};
    use crate::node::{spelled, Derivation, Node};
    use crate::penalty::PenaltySettings;
    use crate::topdown::TdExpand;
    use gtl_taco::parse_program;
    use gtl_template::{
        generate_bu_full_grammar, generate_bu_grammar, generate_td_full_grammar,
        generate_td_grammar, td_derivation, GrammarShape, TdSpec, Template,
    };
    use proptest::prelude::*;

    /// Walks per generated grammar.
    const WALKS: usize = 6;

    fn ctx_for(g: &TemplateGrammar, settings: PenaltySettings) -> PenaltyContext {
        PenaltyContext {
            dim_list: g.dim_list.clone(),
            grammar_has_const: g.nts.constant.is_some(),
            live_ops: g.live_ops(),
            settings,
        }
    }

    /// Rule weights cycled from `weights` (zeros make rules and whole
    /// nonterminals unreachable), and a penalty mask: bit `n` drops the
    /// `n`-th of a1…a5, b1, b2.
    fn shaped(
        mut g: TemplateGrammar,
        weights: &[u8],
        drop: u8,
    ) -> (TemplateGrammar, PenaltyContext) {
        let ids: Vec<RuleId> = g.pcfg.iter_rules().map(|(id, _)| id).collect();
        for (n, id) in ids.into_iter().enumerate() {
            g.pcfg.set_weight(id, f64::from(weights[n % weights.len()]));
        }
        let mut settings = PenaltySettings::all();
        for (bit, name) in ["a1", "a2", "a3", "a4", "a5", "b1", "b2"]
            .iter()
            .enumerate()
        {
            if drop & (1 << bit) != 0 {
                settings = settings.drop_rule(name);
            }
        }
        let ctx = ctx_for(&g, settings);
        (g, ctx)
    }

    fn expander<'a>(
        g: &'a TemplateGrammar,
        ctx: &'a PenaltyContext,
        max_depth: usize,
    ) -> Box<dyn Expand + 'a> {
        match g.shape {
            GrammarShape::TopDown => Box::new(TdExpand::new(g, ctx, max_depth)),
            GrammarShape::BottomUp => Box::new(BuExpand::new(g, ctx)),
        }
    }

    /// Requires both states to agree at one node: skip verdict, leftmost
    /// hole, candidate, every rule's depth (top-down), the accumulated
    /// cost, and the pushed children's rules and priorities bit for bit.
    /// Returns the reference children, in push order.
    fn agree(
        flat: &dyn Expand,
        reference: &RefExpand<'_>,
        d: &Derivation,
        tree: &Tree,
        cost: f64,
        at: &str,
    ) -> Vec<RefChild> {
        let g = reference.grammar;
        let top_down = g.shape == GrammarShape::TopDown;
        assert_eq!(flat.skip(d), reference.skip(tree), "skip, {at}");
        assert_eq!(d.leftmost_hole(), tree.leftmost_hole(), "hole, {at}");
        let want = reference.candidate(tree);
        if top_down && tree.is_complete() {
            assert!(want.is_some(), "a complete derivation converts, {at}");
        }
        let mut toks = Vec::new();
        let got = match flat.candidate(d) {
            Some(Candidate::Rules(rules)) => {
                let lhs = flat.rules().td_tokens(rules, &mut toks);
                let program = flat.rules().td_program(d.rules());
                assert_eq!(spelled(lhs, &toks), program, "tokens, {at}");
                Some(program)
            }
            Some(Candidate::Program(program)) => Some(program),
            None => None,
        };
        assert_eq!(got, want, "candidate, {at}");
        if top_down {
            if let Some(nt) = tree.leftmost_hole() {
                for rule in g.pcfg.rules_of(nt) {
                    let child = tree.expand_leftmost(&g.pcfg.rule(*rule).rhs).unwrap();
                    assert_eq!(
                        d.child(flat.rules(), *rule).depth as usize,
                        child.expr_depth(),
                        "depth of {rule:?}, {at}"
                    );
                }
            }
        }
        assert_eq!(d.cost().to_bits(), cost.to_bits(), "cost, {at}");
        let mut kids = Vec::new();
        flat.children(d, &mut kids);
        let want = reference.children(tree, cost);
        let got: Vec<_> = kids.iter().map(|c| (c.rule, c.f.to_bits())).collect();
        let expected: Vec<_> = want.iter().map(|c| (c.rule, c.f.to_bits())).collect();
        assert_eq!(got, expected, "children, {at}");
        want
    }

    /// Follows one derivation, choosing each next state among the pushed
    /// children by `choices`, and requires both states to [`agree`] at
    /// every step.
    fn walk(g: &TemplateGrammar, ctx: &PenaltyContext, max_depth: usize, choices: &[u64]) {
        let flat = expander(g, ctx, max_depth);
        let reference = RefExpand::new(g, ctx, max_depth);
        let mut arena = vec![Node::ROOT];
        let mut node = 0u32;
        let mut d = Derivation::default();
        let mut tree = reference.root();
        let mut cost = 0.0;
        for step in 0..=choices.len() {
            d.replay(flat.rules(), &arena, node, step as u32);
            let at = format!("step {step} at `{tree:?}`");
            let want = agree(flat.as_ref(), &reference, &d, &tree, cost, &at);
            let Some(&choice) = choices.get(step) else {
                break;
            };
            if want.is_empty() {
                break;
            }
            let pick = (choice % want.len() as u64) as usize;
            arena.push(Node {
                parent: node,
                rule: want[pick].rule,
            });
            node = (arena.len() - 1) as u32;
            tree = want[pick].tree.clone();
            cost = want[pick].cost;
        }
    }

    fn walks(g: &TemplateGrammar, ctx: &PenaltyContext, max_depth: usize, choices: &[u64]) {
        for n in 0..WALKS {
            let shifted: Vec<u64> = choices
                .iter()
                .map(|c| c.rotate_left(8 * n as u32))
                .collect();
            walk(g, ctx, max_depth, &shifted);
            jump_walk(g, ctx, max_depth, &shifted);
        }
    }

    /// A state of the jump walk's arena, as the reference knows it.
    struct Visited {
        tree: Tree,
        cost: f64,
        /// The number of rules in its derivation.
        len: u32,
        /// The arena indices of its pushed children, once it was visited.
        children: Option<std::ops::Range<usize>>,
    }

    /// Visits a random sequence of arena nodes with one shared
    /// [`Derivation`], as the frontier does, and requires both states to
    /// [`agree`] at every visit. A first visit pushes every child; then
    /// `choices` picks the next node: a child, an ancestor, a sibling, any
    /// earlier node (a cousin, the root), or a complete derivation. Every
    /// move other than to a child makes the replay rewind.
    fn jump_walk(g: &TemplateGrammar, ctx: &PenaltyContext, max_depth: usize, choices: &[u64]) {
        let flat = expander(g, ctx, max_depth);
        let reference = RefExpand::new(g, ctx, max_depth);
        let mut arena = vec![Node::ROOT];
        let mut states = vec![Visited {
            tree: reference.root(),
            cost: 0.0,
            len: 0,
            children: None,
        }];
        let mut complete = Vec::new();
        let mut d = Derivation::default();
        let mut node = 0usize;
        for (step, &choice) in choices.iter().enumerate() {
            d.replay(flat.rules(), &arena, node as u32, states[node].len);
            let s = &states[node];
            let at = format!("step {step}, node {node} at `{:?}`", s.tree);
            let want = agree(flat.as_ref(), &reference, &d, &s.tree, s.cost, &at);
            if s.children.is_none() {
                let first = arena.len();
                let len = s.len + 1;
                for child in want {
                    if child.tree.holes().is_empty() {
                        complete.push(arena.len());
                    }
                    arena.push(Node {
                        parent: node as u32,
                        rule: child.rule,
                    });
                    states.push(Visited {
                        tree: child.tree,
                        cost: child.cost,
                        len,
                        children: None,
                    });
                }
                states[node].children = Some(first..arena.len());
            }
            let pick = |n: usize| (choice >> 3) as usize % n.max(1);
            let child_of = |of: usize| match states[of].children.clone() {
                Some(kids) if !kids.is_empty() => Some(kids.start + pick(kids.len())),
                _ => None,
            };
            let any = pick(arena.len());
            node = match choice % 8 {
                0..=3 => child_of(node).unwrap_or(any),
                4 => {
                    let mut up = node;
                    for _ in 0..=pick(states[node].len as usize) {
                        up = arena[up].parent as usize;
                    }
                    up
                }
                5 => child_of(arena[node].parent as usize).unwrap_or(any),
                6 => any,
                _ => complete.get(pick(complete.len())).copied().unwrap_or(any),
            };
        }
    }

    fn spec(dims: Vec<usize>, n_indices: usize, repeated: bool, include_const: bool) -> TdSpec {
        TdSpec {
            dim_list: dims,
            n_indices,
            allow_repeated_index: repeated,
            include_const,
        }
    }

    proptest! {
        #[test]
        fn top_down_without_constant_matches_the_tree(
            dims in prop::collection::vec(1usize..4, 1..5),
            n_indices in 1usize..4,
            repeated in 0u8..2,
            weights in prop::collection::vec(0u8..6, 1..12),
            drop in 0u8..32,
            max_depth in 1usize..7,
            choices in prop::collection::vec(0u64..u64::MAX, 1..40),
        ) {
            let g = generate_td_grammar(&spec(dims, n_indices, repeated == 1, false));
            prop_assert!(g.nts.constant.is_none());
            let (g, ctx) = shaped(g, &weights, drop);
            walks(&g, &ctx, max_depth, &choices);
        }

        #[test]
        fn top_down_with_constant_matches_the_tree(
            dims in prop::collection::vec(0usize..3, 2..5),
            n_indices in 1usize..3,
            weights in prop::collection::vec(0u8..6, 1..12),
            drop in 0u8..32,
            max_depth in 2usize..7,
            choices in prop::collection::vec(0u64..u64::MAX, 1..40),
        ) {
            let g = generate_td_grammar(&spec(dims, n_indices, false, true));
            prop_assert!(g.nts.constant.is_some());
            let (g, ctx) = shaped(g, &weights, drop);
            walks(&g, &ctx, max_depth, &choices);
        }

        #[test]
        fn bottom_up_matches_the_tree(
            dims in prop::collection::vec(0usize..4, 1..6),
            n_indices in 1usize..4,
            repeated in 0u8..2,
            with_const in 0u8..2,
            weights in prop::collection::vec(0u8..6, 1..12),
            drop in 0u8..128,
            choices in prop::collection::vec(0u64..u64::MAX, 1..40),
        ) {
            let g = generate_bu_grammar(&spec(dims, n_indices, repeated == 1, with_const == 1));
            let (g, ctx) = shaped(g, &weights, drop);
            walks(&g, &ctx, 6, &choices);
        }

        #[test]
        fn full_grammars_match_the_tree(
            max_tensors in 1usize..4,
            max_dim in 0usize..3,
            lhs_dim in 0usize..3,
            weights in prop::collection::vec(0u8..6, 1..12),
            drop in 0u8..128,
            choices in prop::collection::vec(0u64..u64::MAX, 1..40),
        ) {
            for g in [
                generate_td_full_grammar(max_tensors, max_dim, Some(lhs_dim)),
                generate_bu_full_grammar(max_tensors, max_dim, None),
            ] {
                let (g, ctx) = shaped(g, &weights, drop);
                walks(&g, &ctx, 5, &choices);
            }
        }
    }

    /// Replays the derivation of `template` minus its last rule and
    /// returns that last rule's pushed child, if any.
    fn last_step(src: &str) -> (Option<Child>, Option<RefChild>) {
        let mut g = generate_td_grammar(&spec(vec![1, 1, 1], 1, false, true));
        g.pcfg.equalize_weights();
        let ctx = PenaltyContext {
            live_ops: vec![BinOp::Sub],
            ..ctx_for(&g, PenaltySettings::all())
        };
        let program = parse_program(src).unwrap();
        let rules = td_derivation(&g, &Template { program }).expect("in the language");
        let (last, init) = rules.split_last().unwrap();
        let flat = TdExpand::new(&g, &ctx, 6);
        let reference = RefExpand::new(&g, &ctx, 6);
        let mut arena = vec![Node::ROOT];
        let mut tree = reference.root();
        let mut cost = 0.0;
        for rule in init {
            arena.push(Node {
                parent: (arena.len() - 1) as u32,
                rule: *rule,
            });
            tree = tree.expand_leftmost(&g.pcfg.rule(*rule).rhs).unwrap();
            cost += reference.costs.cost(*rule);
        }
        let mut d = Derivation::default();
        d.replay(flat.rules(), &arena, init.len() as u32, init.len() as u32);
        let mut kids = Vec::new();
        flat.children(&d, &mut kids);
        let flat_child = kids.into_iter().find(|c| c.rule == *last);
        let ref_child = reference
            .children(&tree, cost)
            .into_iter()
            .find(|c| c.rule == *last);
        (flat_child, ref_child)
    }

    #[test]
    fn a4_kills_self_subtraction() {
        let (flat, reference) = last_step("a(i) = b(i) - b(i)");
        assert!(flat.is_none(), "a4 must prune b(i) - b(i)");
        assert!(reference.is_none());
        // A different right operand survives.
        let (flat, reference) = last_step("a(i) = b(i) - c(i)");
        assert_eq!(
            flat.map(|c| c.f.to_bits()),
            reference.map(|c| c.f.to_bits())
        );
        assert!(flat.is_some());
    }

    #[test]
    fn a4_spares_constant_pairs() {
        // Each `Const` is its own symbol: `c0 - c1` is not self-subtraction.
        let (flat, reference) = last_step("a(i) = 2 - 3");
        let flat = flat.expect("Const - Const must survive a4");
        assert!(flat.f.is_finite());
        assert_eq!(Some(flat.f.to_bits()), reference.map(|c| c.f.to_bits()));
    }
}
