//! Abstract syntax for TACO tensor-index-notation programs.
//!
//! The grammar reproduced here is Figure 5 of the paper: a program is
//! `TENSOR "=" EXPR` where expressions combine tensor accesses, integer
//! constants, unary negation and the four binary operators `+ - * /`, and
//! tensor accesses index identifiers with comma-separated index variables.

use std::fmt;

/// A tensor identifier (e.g. `Mat1`, or a symbolic template name `b`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ident(String);

impl Ident {
    /// Creates an identifier from a name.
    pub fn new(name: impl Into<String>) -> Ident {
        Ident(name.into())
    }

    /// The identifier text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Ident {
        Ident::new(s)
    }
}

/// An index variable (e.g. `i`, `j`; LLM candidates may use arbitrary
/// names like `f` before standardisation).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexVar(String);

impl IndexVar {
    /// Creates an index variable from a name.
    pub fn new(name: impl Into<String>) -> IndexVar {
        IndexVar(name.into())
    }

    /// The index variable text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for IndexVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for IndexVar {
    fn from(s: &str) -> IndexVar {
        IndexVar::new(s)
    }
}

/// The canonical index-variable alphabet `{i, j, k, l}` used by
/// standardised templates (§4.2.1).
pub const CANONICAL_INDICES: [&str; 4] = ["i", "j", "k", "l"];

/// The canonical symbolic tensor alphabet `a, b, c, …` used by templates;
/// `a` is always the left-hand side (§4.2.1).
pub fn canonical_tensor_name(position: usize) -> Ident {
    debug_assert!(position < 26, "more than 26 symbolic tensors requested");
    let c = (b'a' + (position as u8)) as char;
    Ident::new(c.to_string())
}

/// A binary operator of the TACO expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    /// Addition `+`.
    Add,
    /// Subtraction `-`.
    Sub,
    /// Multiplication `*`.
    Mul,
    /// Division `/`.
    Div,
}

impl BinOp {
    /// All four operators, in grammar order.
    pub const ALL: [BinOp; 4] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div];

    /// The surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }

    /// Parse precedence: `*`/`/` bind tighter than `+`/`-`.
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Add | BinOp::Sub => 1,
            BinOp::Mul | BinOp::Div => 2,
        }
    }

    /// Whether `a op b op c` may be reassociated as `a op (b op c)`.
    pub fn is_associative(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A tensor access: an identifier indexed with zero or more index
/// variables. Zero indices denotes a scalar access (`a` rather than
/// `a(i)`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Access {
    /// The tensor being accessed.
    pub tensor: Ident,
    /// The index variables, in order; empty for a scalar.
    pub indices: Vec<IndexVar>,
}

impl Access {
    /// Creates an access from a tensor name and index-variable names.
    pub fn new(tensor: impl Into<Ident>, indices: &[&str]) -> Access {
        Access {
            tensor: tensor.into(),
            indices: indices.iter().map(|s| IndexVar::new(*s)).collect(),
        }
    }

    /// Creates a scalar (zero-index) access.
    pub fn scalar(tensor: impl Into<Ident>) -> Access {
        Access {
            tensor: tensor.into(),
            indices: Vec::new(),
        }
    }

    /// The access's rank (number of index variables).
    pub fn rank(&self) -> usize {
        self.indices.len()
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.tensor)?;
        if !self.indices.is_empty() {
            write!(f, "(")?;
            for (n, ix) in self.indices.iter().enumerate() {
                if n > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{ix}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A TACO expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A tensor access.
    Access(Access),
    /// An integer literal constant.
    Const(i64),
    /// A symbolic constant placeholder (`Const`) inside a template,
    /// instantiated later from the constants of the source program
    /// (§4.2.1, *Constant Templatization*).
    ConstSym(u32),
    /// Unary negation.
    Neg(Box<Expr>),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for a binary node.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Convenience constructor for an access node.
    pub fn access(tensor: impl Into<Ident>, indices: &[&str]) -> Expr {
        Expr::Access(Access::new(tensor, indices))
    }

    /// Iterates over every tensor access in the expression, left to right.
    pub fn accesses(&self) -> Vec<&Access> {
        let mut out = Vec::new();
        self.collect_accesses(&mut out);
        out
    }

    fn collect_accesses<'a>(&'a self, out: &mut Vec<&'a Access>) {
        match self {
            Expr::Access(a) => out.push(a),
            Expr::Const(_) | Expr::ConstSym(_) => {}
            Expr::Neg(e) => e.collect_accesses(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_accesses(out);
                rhs.collect_accesses(out);
            }
        }
    }

    /// The operand *slots* of the expression: tensor accesses plus
    /// constants, left to right. The paper's "length" of a template counts
    /// these slots (used by penalties a1/a2 and the dimension list).
    pub fn operands(&self) -> Vec<Operand<'_>> {
        let mut out = Vec::new();
        self.collect_operands(&mut out);
        out
    }

    fn collect_operands<'a>(&'a self, out: &mut Vec<Operand<'a>>) {
        match self {
            Expr::Access(a) => out.push(Operand::Access(a)),
            Expr::Const(c) => out.push(Operand::Const(*c)),
            Expr::ConstSym(s) => out.push(Operand::ConstSym(*s)),
            Expr::Neg(e) => e.collect_operands(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_operands(out);
                rhs.collect_operands(out);
            }
        }
    }

    /// All binary operators used, left to right (duplicates preserved).
    pub fn operators(&self) -> Vec<BinOp> {
        let mut out = Vec::new();
        self.collect_ops(&mut out);
        out
    }

    fn collect_ops(&self, out: &mut Vec<BinOp>) {
        match self {
            Expr::Access(_) | Expr::Const(_) | Expr::ConstSym(_) => {}
            Expr::Neg(e) => e.collect_ops(out),
            Expr::Binary { op, lhs, rhs } => {
                lhs.collect_ops(out);
                out.push(*op);
                rhs.collect_ops(out);
            }
        }
    }

    /// Expression depth as the paper counts it (§5.1): a leaf (tensor
    /// access or constant) has depth 1, index expressions are excluded,
    /// and a binary node is one more than its deepest child.
    pub fn depth(&self) -> usize {
        match self {
            Expr::Access(_) | Expr::Const(_) | Expr::ConstSym(_) => 1,
            Expr::Neg(e) => e.depth(),
            Expr::Binary { lhs, rhs, .. } => 1 + lhs.depth().max(rhs.depth()),
        }
    }

    /// Whether the expression contains a symbolic [`Expr::ConstSym`].
    pub fn has_const_sym(&self) -> bool {
        match self {
            Expr::ConstSym(_) => true,
            Expr::Access(_) | Expr::Const(_) => false,
            Expr::Neg(e) => e.has_const_sym(),
            Expr::Binary { lhs, rhs, .. } => lhs.has_const_sym() || rhs.has_const_sym(),
        }
    }

    /// Appends the expression's [`RhsTok`]s to `out`, in derivation
    /// order.
    pub fn push_tokens<'a>(&'a self, out: &mut Vec<RhsTok<'a>>) {
        match self {
            Expr::Access(a) => out.push(RhsTok::Access(a)),
            Expr::Const(c) => out.push(RhsTok::Const(*c)),
            Expr::ConstSym(s) => out.push(RhsTok::ConstSym(*s)),
            Expr::Neg(e) => {
                out.push(RhsTok::Neg);
                e.push_tokens(out);
            }
            Expr::Binary { op, lhs, rhs } => {
                out.push(RhsTok::Binary);
                lhs.push_tokens(out);
                out.push(RhsTok::Op(*op));
                rhs.push_tokens(out);
            }
        }
    }
}

/// One token of a borrowed right-hand side. An expression is its tokens
/// in derivation order: a leaf is one token, `Neg` precedes its operand,
/// and a binary node is `Binary`, its left operand, `Op`, its right
/// operand — the order in which a leftmost derivation places them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RhsTok<'a> {
    /// A tensor access.
    Access(&'a Access),
    /// An integer literal constant.
    Const(i64),
    /// A symbolic constant placeholder.
    ConstSym(u32),
    /// Unary negation of the expression that follows.
    Neg,
    /// A binary node; its left operand, [`RhsTok::Op`] and right operand
    /// follow.
    Binary,
    /// The operator of the enclosing [`RhsTok::Binary`].
    Op(BinOp),
}

/// A template borrowed as tokens: what the checker reads of a complete
/// derivation without building its [`TacoProgram`].
///
/// ```
/// use gtl_taco::{parse_program, RhsTok, TemplateRef};
///
/// let p = parse_program("a(i) = b(i,j) * c(j)").unwrap();
/// let mut rhs = Vec::new();
/// p.rhs.push_tokens(&mut rhs);
/// let t = TemplateRef { lhs: &p.lhs, rhs: &rhs };
/// assert_eq!(t.rhs.len(), 4);
/// assert!(matches!(t.rhs[0], RhsTok::Binary));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TemplateRef<'a> {
    /// The output access.
    pub lhs: &'a Access,
    /// The right-hand side, one complete expression in derivation order.
    pub rhs: &'a [RhsTok<'a>],
}

impl<'a> TemplateRef<'a> {
    /// The right-hand side's tensor accesses, left to right.
    pub fn accesses(&self) -> impl Iterator<Item = &'a Access> + Clone {
        self.rhs.iter().filter_map(|tok| match *tok {
            RhsTok::Access(a) => Some(a),
            _ => None,
        })
    }
}

/// A reference to a single operand slot of an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand<'a> {
    /// A tensor access slot.
    Access(&'a Access),
    /// A concrete integer constant slot.
    Const(i64),
    /// A symbolic constant slot.
    ConstSym(u32),
}

/// A complete TACO program: `lhs = rhs`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TacoProgram {
    /// The output tensor access.
    pub lhs: Access,
    /// The defining expression.
    pub rhs: Expr,
}

impl TacoProgram {
    /// Creates a program from its two halves.
    pub fn new(lhs: Access, rhs: Expr) -> TacoProgram {
        TacoProgram { lhs, rhs }
    }

    /// Index variables of the LHS (the *free*/output indices).
    pub fn output_indices(&self) -> &[IndexVar] {
        &self.lhs.indices
    }

    /// Index variables that appear on the RHS but not the LHS — the
    /// implicit *summation* indices of einsum notation.
    pub fn summation_indices(&self) -> Vec<IndexVar> {
        let mut seen = Vec::new();
        for acc in self.rhs.accesses() {
            for ix in &acc.indices {
                if !self.lhs.indices.contains(ix) && !seen.contains(ix) {
                    seen.push(ix.clone());
                }
            }
        }
        seen
    }

    /// Every index variable in the program, LHS first, in order of first
    /// appearance.
    pub fn all_indices(&self) -> Vec<IndexVar> {
        let mut seen: Vec<IndexVar> = Vec::new();
        for ix in &self.lhs.indices {
            if !seen.contains(ix) {
                seen.push(ix.clone());
            }
        }
        for acc in self.rhs.accesses() {
            for ix in &acc.indices {
                if !seen.contains(ix) {
                    seen.push(ix.clone());
                }
            }
        }
        seen
    }

    /// Unique tensor names in order of first appearance, LHS first.
    pub fn tensor_order(&self) -> Vec<Ident> {
        let mut seen = vec![self.lhs.tensor.clone()];
        for acc in self.rhs.accesses() {
            if !seen.contains(&acc.tensor) {
                seen.push(acc.tensor.clone());
            }
        }
        seen
    }

    /// The dimension list (§4.2.3, Def. 4.5): ranks of the unique tensors
    /// in order of first appearance (LHS first). Constants contribute a
    /// `0` entry each, in slot order, after any tensor in the same slot
    /// order position. Following the paper, constants and scalar variables
    /// are listed as dimension 0.
    pub fn dimension_list(&self) -> Vec<usize> {
        let mut out = vec![self.lhs.rank()];
        let mut seen: Vec<&Ident> = vec![&self.lhs.tensor];
        for op in self.rhs.operands() {
            match op {
                Operand::Access(a) => {
                    if !seen.contains(&&a.tensor) {
                        seen.push(&a.tensor);
                        out.push(a.rank());
                    }
                }
                Operand::Const(_) | Operand::ConstSym(_) => out.push(0),
            }
        }
        out
    }

    /// Template depth per the paper's definition (depth of the RHS).
    pub fn depth(&self) -> usize {
        self.rhs.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot() -> TacoProgram {
        // a(i) = b(i,j) * c(j)
        TacoProgram::new(
            Access::new("a", &["i"]),
            Expr::binary(
                BinOp::Mul,
                Expr::access("b", &["i", "j"]),
                Expr::access("c", &["j"]),
            ),
        )
    }

    #[test]
    fn summation_indices() {
        let p = dot();
        assert_eq!(p.summation_indices(), vec![IndexVar::new("j")]);
        assert_eq!(p.output_indices(), &[IndexVar::new("i")]);
    }

    #[test]
    fn dimension_list() {
        let p = dot();
        assert_eq!(p.dimension_list(), vec![1, 2, 1]);

        // a = b(i) * Const : scalar output, one tensor, one constant.
        let p2 = TacoProgram::new(
            Access::scalar("a"),
            Expr::binary(BinOp::Mul, Expr::access("b", &["i"]), Expr::ConstSym(0)),
        );
        assert_eq!(p2.dimension_list(), vec![0, 1, 0]);
    }

    #[test]
    fn repeated_tensor_counts_once() {
        // a = b(i) * b(i)
        let p = TacoProgram::new(
            Access::scalar("a"),
            Expr::binary(
                BinOp::Mul,
                Expr::access("b", &["i"]),
                Expr::access("b", &["i"]),
            ),
        );
        assert_eq!(p.dimension_list(), vec![0, 1]);
        assert_eq!(p.tensor_order().len(), 2);
    }

    #[test]
    fn depth_matches_paper() {
        // b(i) has depth 1; b(i) + c(i,j) has depth 2.
        assert_eq!(Expr::access("b", &["i"]).depth(), 1);
        let e = Expr::binary(
            BinOp::Add,
            Expr::access("b", &["i"]),
            Expr::access("c", &["i", "j"]),
        );
        assert_eq!(e.depth(), 2);
    }

    #[test]
    fn operands_in_order() {
        let p = dot();
        let ops = p.rhs.operands();
        assert_eq!(ops.len(), 2);
        assert!(matches!(ops[0], Operand::Access(a) if a.tensor.as_str() == "b"));
    }

    #[test]
    fn canonical_names() {
        assert_eq!(canonical_tensor_name(0).as_str(), "a");
        assert_eq!(canonical_tensor_name(3).as_str(), "d");
    }
}
