//! The penalty functions X(x) of §5.1 (top-down: a1–a5) and §5.2
//! (bottom-up: b1–b2).
//!
//! Interpretive notes (the paper leaves some wording open; these choices
//! are documented in DESIGN.md):
//!
//! - A template's *length* is its operand count including the LHS, which
//!   equals the dimension-list length when they match.
//! - a2 fires on complete templates of the wrong length and on partial
//!   templates that have already *exceeded* the predicted length (they
//!   cannot shrink).
//! - a5/b2's "operations defined in the grammar" are the operators with
//!   substantial learned weight ([`gtl_template::TemplateGrammar::live_ops`]);
//!   templates with no operator at all are exempt.

use gtl_taco::BinOp;

use crate::node::Facts;

/// Which penalty rules are active — the knobs behind Table 2's
/// `Drop(a1)…Drop(b2)` ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PenaltySettings {
    /// a1: bias against long expressions with poor index variety and no
    /// constant (weight 10).
    pub a1: bool,
    /// a2: length must match the dimension list (weight 100).
    pub a2: bool,
    /// a3: tensor symbols alphabetical by first appearance (∞).
    pub a3: bool,
    /// a4: no `+`, `-`, `/` applied to two copies of the same tensor (∞).
    pub a4: bool,
    /// a5: must use at least half the live operators (∞).
    pub a5: bool,
    /// b1: bottom-up alphabetical-order penalty (weight 100).
    pub b1: bool,
    /// b2: bottom-up operator-coverage penalty (∞).
    pub b2: bool,
}

impl PenaltySettings {
    /// Everything enabled (the paper's default).
    pub fn all() -> PenaltySettings {
        PenaltySettings {
            a1: true,
            a2: true,
            a3: true,
            a4: true,
            a5: true,
            b1: true,
            b2: true,
        }
    }

    /// Everything disabled — the `Drop(A)` / `Drop(B)` ablations.
    pub fn none() -> PenaltySettings {
        PenaltySettings {
            a1: false,
            a2: false,
            a3: false,
            a4: false,
            a5: false,
            b1: false,
            b2: false,
        }
    }

    /// Disables one named rule (e.g. `"a3"`).
    ///
    /// # Panics
    ///
    /// Panics on an unknown rule name.
    pub fn drop_rule(mut self, name: &str) -> PenaltySettings {
        match name {
            "a1" => self.a1 = false,
            "a2" => self.a2 = false,
            "a3" => self.a3 = false,
            "a4" => self.a4 = false,
            "a5" => self.a5 = false,
            "b1" => self.b1 = false,
            "b2" => self.b2 = false,
            other => panic!("unknown penalty rule `{other}`"),
        }
        self
    }
}

impl Default for PenaltySettings {
    fn default() -> Self {
        PenaltySettings::all()
    }
}

/// Static context shared by all penalty evaluations for one query.
#[derive(Debug, Clone)]
pub struct PenaltyContext {
    /// The predicted dimension list (may be empty for full grammars).
    pub dim_list: Vec<usize>,
    /// Whether the grammar includes a constant expression (a1's guard).
    pub grammar_has_const: bool,
    /// Operators with substantial learned weight.
    pub live_ops: Vec<BinOp>,
    /// Active rules.
    pub settings: PenaltySettings,
}

impl PenaltyContext {
    pub(crate) fn predicted_len(&self) -> Option<usize> {
        if self.dim_list.is_empty() {
            None
        } else {
            Some(self.dim_list.len())
        }
    }

    /// Minimum distinct operators a complete multi-operand template must
    /// use: half the live set, rounded up.
    pub(crate) fn min_ops(&self) -> usize {
        self.live_ops.len().div_ceil(2)
    }
}

/// a1: grammar has constants, expression is long, but the template lacks
/// index variety or a constant (weight 10).
fn a1_violated(facts: &Facts, ctx: &PenaltyContext) -> bool {
    if !ctx.grammar_has_const {
        return false;
    }
    // "length of x exceeds 3": operand count including the LHS.
    if facts.rhs_operand_slots < 3 {
        return false;
    }
    facts.rhs_with_i < 2 || !facts.has_const
}

/// Operator-coverage check shared by a5 and b2: a template with at least
/// one operator position must be able to use at least `min_ops` distinct
/// live operators. Unexpanded operator holes count as potential distinct
/// operators so partial derivations are not pruned prematurely.
fn op_coverage_violated(facts: &Facts, ctx: &PenaltyContext) -> bool {
    if facts.ops == 0 && facts.op_holes == 0 {
        return false;
    }
    ((facts.ops.count_ones() + facts.op_holes) as usize) < ctx.min_ops()
}

/// The top-down penalty X(x) over (partial or complete) templates
/// (§5.1). a4 and a5 judge complete templates only.
pub(crate) fn td_penalty(facts: &Facts, ctx: &PenaltyContext) -> f64 {
    let s = &ctx.settings;
    let mut x = 0.0f64;
    if s.a1 && a1_violated(facts, ctx) {
        x += 10.0;
    }
    if s.a2 {
        if let Some(len) = ctx.predicted_len() {
            let current = facts.rhs_operand_slots as usize + 1;
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
    // a3: tensor symbols alphabetical by first appearance.
    if s.a3 && !facts.alphabetical {
        return f64::INFINITY;
    }
    if facts.complete {
        if s.a4 && facts.a4_violated {
            return f64::INFINITY;
        }
        if s.a5 && op_coverage_violated(facts, ctx) {
            return f64::INFINITY;
        }
    }
    x
}

/// The bottom-up penalty X(x) (§5.2).
pub(crate) fn bu_penalty(facts: &Facts, ctx: &PenaltyContext) -> f64 {
    let s = &ctx.settings;
    let mut x = 0.0f64;
    if s.b1 && !facts.alphabetical {
        x += 100.0;
    }
    if s.b2 {
        if let Some(len) = ctx.predicted_len() {
            // Fires once the template holds at least the predicted number
            // of tensors yet uses too few operators.
            if facts.rhs_operand_slots as usize + 1 >= len && op_coverage_violated(facts, ctx) {
                return f64::INFINITY;
            }
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_taco::parse_program;

    /// The facts of a complete template, read off its parsed program.
    fn facts_of(src: &str) -> Facts {
        let p = parse_program(src).unwrap();
        let mut accesses = vec![&p.lhs];
        accesses.extend(p.rhs.accesses());
        let mut seen: Vec<&str> = Vec::new();
        for a in &accesses {
            if !seen.contains(&a.tensor.as_str()) {
                seen.push(a.tensor.as_str());
            }
        }
        let alphabetical = seen
            .iter()
            .enumerate()
            .all(|(n, s)| s.as_bytes() == [b'a' + n as u8]);
        Facts {
            alphabetical,
            symbols: seen.len() as u8,
            lhs_placed: true,
            rhs_with_i: accesses[1..]
                .iter()
                .filter(|a| a.indices.iter().any(|ix| ix.as_str() == "i"))
                .count() as u32,
            has_const: p.rhs.has_const_sym(),
            ops: p.rhs.operators().iter().fold(0, |m, op| m | 1 << *op as u8),
            op_holes: 0,
            rhs_operand_slots: p.rhs.operands().len() as u32,
            complete: true,
            a4_violated: crate::reference::a4_violated(&p),
        }
    }

    fn ctx(dim_list: Vec<usize>, live: Vec<BinOp>) -> PenaltyContext {
        PenaltyContext {
            dim_list,
            grammar_has_const: true,
            live_ops: live,
            settings: PenaltySettings::all(),
        }
    }

    #[test]
    fn a3_kills_out_of_order_symbols() {
        let facts = facts_of("a(i) = c(i) * b(i)");
        let c = ctx(vec![1, 1, 1], vec![BinOp::Mul]);
        assert!(td_penalty(&facts, &c).is_infinite());
    }

    #[test]
    fn a2_penalises_wrong_length() {
        let facts = facts_of("a(i) = b(i)");
        let c = ctx(vec![1, 1, 1], vec![BinOp::Mul]);
        let x = td_penalty(&facts, &c);
        assert!((x - 100.0).abs() < 1e-9);
    }

    #[test]
    fn a4_kills_self_subtraction() {
        let facts = facts_of("a(i) = b(i) - b(i)");
        let c = ctx(vec![1, 1, 1], vec![BinOp::Sub]);
        assert!(td_penalty(&facts, &c).is_infinite());
        // Self-multiplication is fine (sum of squares).
        let f2 = facts_of("a = b(i) * b(i)");
        let c2 = ctx(vec![0, 1, 1], vec![BinOp::Mul]);
        assert_eq!(td_penalty(&f2, &c2), 0.0);
    }

    #[test]
    fn a5_requires_op_coverage() {
        // Live ops {+, *}: min 1 distinct → * alone passes.
        let facts = facts_of("a(i) = b(i,j) * c(j)");
        let c = ctx(vec![1, 2, 1], vec![BinOp::Add, BinOp::Mul]);
        assert_eq!(td_penalty(&facts, &c), 0.0);
        // Live ops {+,-,*}: min 2 distinct → * alone fails.
        let c3 = ctx(vec![1, 2, 1], vec![BinOp::Add, BinOp::Sub, BinOp::Mul]);
        assert!(td_penalty(&facts, &c3).is_infinite());
    }

    #[test]
    fn a1_bias_on_long_expressions() {
        // 3 RHS operands (length 4), has const in grammar, no const used,
        // and only one tensor uses i.
        let facts = facts_of("a(i) = b(i) + c(j) + d(j)");
        let mut c = ctx(vec![1, 1, 1, 1], vec![BinOp::Add]);
        let x = td_penalty(&facts, &c);
        assert!(x >= 10.0);
        // Dropping a1 removes the bias.
        c.settings = c.settings.drop_rule("a1");
        let x2 = td_penalty(&facts, &c);
        assert!(x2 < 10.0);
    }

    #[test]
    fn b1_soft_alphabetical() {
        let facts = facts_of("a(i) = c(i) * b(i)");
        let c = ctx(vec![1, 1, 1], vec![BinOp::Mul]);
        assert_eq!(bu_penalty(&facts, &c), 100.0);
    }

    #[test]
    fn b2_fires_at_predicted_size() {
        let facts = facts_of("a(i) = b(i) + c(i)");
        // Live {+,-,*,/}: min 2; only + used and size reached.
        let c = ctx(vec![1, 1, 1], BinOp::ALL.to_vec());
        assert!(bu_penalty(&facts, &c).is_infinite());
        // Below predicted size: no penalty.
        let c2 = ctx(vec![1, 1, 1, 1], BinOp::ALL.to_vec());
        assert_eq!(bu_penalty(&facts, &c2), 0.0);
    }

    #[test]
    fn partial_a2_only_when_exceeded() {
        let facts = Facts {
            lhs_placed: true,
            symbols: 1,
            rhs_operand_slots: 1,
            ..Facts::ROOT
        };
        let mut c = ctx(vec![1, 1, 1], vec![BinOp::Mul]);
        c.grammar_has_const = false; // isolate a2 from a1
        assert_eq!(td_penalty(&facts, &c), 0.0, "can still grow");
        let facts_big = Facts {
            rhs_operand_slots: 4,
            ..facts
        };
        assert!((td_penalty(&facts_big, &c) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn settings_dropping() {
        let s = PenaltySettings::all().drop_rule("a4");
        assert!(!s.a4);
        assert!(s.a3);
        let facts = facts_of("a(i) = b(i) - b(i)");
        let mut c = ctx(vec![1, 1, 1], vec![BinOp::Sub]);
        c.settings = s;
        assert!(!td_penalty(&facts, &c).is_infinite());
    }
}
