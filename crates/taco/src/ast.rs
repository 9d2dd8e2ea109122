//! Abstract syntax for TACO tensor-index-notation programs.
//!
//! The grammar reproduced here is Figure 5 of the paper: a program is
//! `TENSOR "=" EXPR` where expressions combine tensor accesses, integer
//! constants, unary negation and the four binary operators `+ - * /`, and
//! tensor accesses index identifiers with comma-separated index variables.

use std::fmt;
use std::sync::Arc;

/// A tensor identifier (e.g. `Mat1`, or a symbolic template name `b`).
///
/// The text is shared, so a clone allocates nothing: checking a template
/// clones every name it builds a program or a kernel from. It compares,
/// hashes and prints as its text does.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ident(Arc<str>);

impl Ident {
    /// Creates an identifier from a name.
    pub fn new(name: impl Into<String>) -> Ident {
        Ident(name.into().into())
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
        Ident(s.into())
    }
}

/// An index variable (e.g. `i`, `j`; LLM candidates may use arbitrary
/// names like `f` before standardisation). Shared like [`Ident`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexVar(Arc<str>);

impl IndexVar {
    /// Creates an index variable from a name.
    pub fn new(name: impl Into<String>) -> IndexVar {
        IndexVar(name.into().into())
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
        IndexVar(s.into())
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
        self.for_each_access(&mut |a| out.push(a));
    }

    /// Calls `f` on every tensor access, left to right.
    fn for_each_access<'a>(&'a self, f: &mut impl FnMut(&'a Access)) {
        match self {
            Expr::Access(a) => f(a),
            Expr::Const(_) | Expr::ConstSym(_) => {}
            Expr::Neg(e) => e.for_each_access(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.for_each_access(f);
                rhs.for_each_access(f);
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
    /// order; `access` gives each access its interned ids, left to right.
    fn push_tokens<'a>(
        &'a self,
        access: &mut impl FnMut(&'a Access) -> AccessRef<'a>,
        out: &mut Vec<RhsTok<'a>>,
    ) {
        match self {
            Expr::Access(a) => out.push(RhsTok::Access(access(a))),
            Expr::Const(c) => out.push(RhsTok::Const(*c)),
            Expr::ConstSym(s) => out.push(RhsTok::ConstSym(*s)),
            Expr::Neg(e) => {
                out.push(RhsTok::Neg);
                e.push_tokens(access, out);
            }
            Expr::Binary { op, lhs, rhs } => {
                out.push(RhsTok::Binary);
                lhs.push_tokens(access, out);
                out.push(RhsTok::Op(*op));
                rhs.push_tokens(access, out);
            }
        }
    }
}

/// The tensor and index names of a set of accesses, each kind numbered
/// in the byte order of its names: the ids a template's tokens carry
/// ([`AccessRef`]).
///
/// Every name the parser and the template generators produce is an
/// identifier, whose bytes all sort after the `(`, `,` and `)` that
/// follow a name in a printed access. So comparing two accesses' ids —
/// the tensor's, then the index lists lexicographically — orders them as
/// their printed text does, which is what lets the canonical encoder
/// sort chain operands without printing them.
///
/// ```
/// use gtl_taco::{Access, NameTable};
///
/// let (bc, b) = (Access::new("bc", &["i", "ii"]), Access::new("b", &["i1"]));
/// let table = NameTable::new([&bc, &b]);
/// let mut ids = Vec::new();
/// table.push_ids(&bc, &mut ids);
/// table.push_ids(&b, &mut ids);
/// // Tensors b < bc, indices i < i1 < ii.
/// assert_eq!(ids, [1, 0, 2, 0, 1]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NameTable<'a> {
    /// The distinct tensor names, sorted, then the distinct index names,
    /// sorted.
    names: Vec<&'a str>,
    /// How many of `names` are tensor names.
    tensors: usize,
}

impl<'a> NameTable<'a> {
    /// The table of every name in `accesses`.
    pub fn new(accesses: impl IntoIterator<Item = &'a Access>) -> NameTable<'a> {
        let mut table = NameTable::default();
        for a in accesses {
            table.add(a);
        }
        table
    }

    /// The table emptied, as a table for names of any lifetime. It keeps
    /// its buffer: collecting the empty vector in place reuses it.
    pub fn recycle<'b>(self) -> NameTable<'b> {
        NameTable {
            names: crate::batch::recycle(self.names),
            tensors: 0,
        }
    }

    /// Adds the names of `access`. The table stays sorted and distinct
    /// as it fills: a template has a handful of names, each met often.
    fn add(&mut self, access: &'a Access) {
        let name = access.tensor.as_str();
        if let Err(at) = self.names[..self.tensors].binary_search(&name) {
            self.names.insert(at, name);
            self.tensors += 1;
        }
        for ix in &access.indices {
            let name = ix.as_str();
            if let Err(at) = self.names[self.tensors..].binary_search(&name) {
                self.names.insert(self.tensors + at, name);
            }
        }
    }

    /// Appends the id of `access`'s tensor, then the id of each of its
    /// indices, to `ids`.
    ///
    /// # Panics
    ///
    /// Panics if a name of `access` is not in the table.
    pub fn push_ids(&self, access: &Access, ids: &mut Vec<u32>) {
        let id = |names: &[&str], name: &str| -> u32 {
            let id = names
                .binary_search(&name)
                .unwrap_or_else(|_| panic!("`{name}` is not in the name table"));
            id as u32
        };
        let (tensors, indices) = self.names.split_at(self.tensors);
        ids.push(id(tensors, access.tensor.as_str()));
        ids.extend(access.indices.iter().map(|ix| id(indices, ix.as_str())));
    }
}

/// A tensor access of a borrowed template with its names interned: the
/// ids one [`NameTable`] gives them. All accesses of one template carry
/// ids from the same table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRef<'a> {
    /// The access itself.
    pub access: &'a Access,
    /// The id of its tensor name.
    pub tensor: u32,
    /// The id of each of its index names.
    pub indices: &'a [u32],
}

/// One token of a borrowed right-hand side. An expression is its tokens
/// in derivation order: a leaf is one token, `Neg` precedes its operand,
/// and a binary node is `Binary`, its left operand, `Op`, its right
/// operand — the order in which a leftmost derivation places them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RhsTok<'a> {
    /// A tensor access, with its interned names.
    Access(AccessRef<'a>),
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
/// use gtl_taco::{parse_program, RhsTok};
///
/// let p = parse_program("a(i) = b(i,j) * c(j)").unwrap();
/// let (mut ids, mut rhs) = (Vec::new(), Vec::new());
/// let t = p.template_ref(&mut ids, &mut rhs);
/// assert_eq!(t.rhs.len(), 4);
/// assert!(matches!(t.rhs[0], RhsTok::Binary));
/// // `b` and `c` are tensors 1 and 2 of `a`, `b`, `c`.
/// assert_eq!(t.accesses().map(|a| a.tensor).collect::<Vec<_>>(), [1, 2]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TemplateRef<'a> {
    /// The output access.
    pub lhs: AccessRef<'a>,
    /// The right-hand side, one complete expression in derivation order.
    pub rhs: &'a [RhsTok<'a>],
}

impl<'a> TemplateRef<'a> {
    /// The right-hand side's tensor accesses, left to right.
    pub fn accesses(&self) -> impl Iterator<Item = AccessRef<'a>> + Clone {
        self.rhs.iter().filter_map(|tok| match *tok {
            RhsTok::Access(a) => Some(a),
            _ => None,
        })
    }

    /// The template's tensor slots: the first access of each distinct
    /// right-hand-side tensor, in first-use order. The
    /// [`crate::BatchKernel`] lowered from the template has one tensor
    /// slot per item, in this order.
    pub fn tensor_slots(&self) -> impl Iterator<Item = AccessRef<'a>> + Clone {
        let accesses = self.accesses();
        accesses
            .clone()
            .enumerate()
            .filter(move |&(k, a)| !accesses.clone().take(k).any(|b| b.tensor == a.tensor))
            .map(|(_, a)| a)
    }

    /// The template's symbolic-constant slots: each distinct `Const` id,
    /// in first-use order. The [`crate::BatchKernel`] lowered from the
    /// template has one constant slot per item, in this order.
    pub fn const_slots(&self) -> impl Iterator<Item = u32> + Clone + 'a {
        let syms = self.rhs.iter().filter_map(|tok| match *tok {
            RhsTok::ConstSym(id) => Some(id),
            _ => None,
        });
        syms.clone()
            .enumerate()
            .filter(move |&(k, id)| !syms.clone().take(k).any(|s| s == id))
            .map(|(_, id)| id)
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

    /// The program as a borrowed template: its names interned by a
    /// [`NameTable`] of its own into `ids`, and its right-hand side's
    /// tokens written into `rhs`.
    pub fn template_ref<'a, 't>(
        &'a self,
        ids: &'a mut Vec<u32>,
        rhs: &'t mut Vec<RhsTok<'a>>,
    ) -> TemplateRef<'t> {
        self.template_ref_reusing(&mut NameTable::default(), ids, rhs)
    }

    /// [`TacoProgram::template_ref`] with `names` emptied and refilled
    /// with this program's names. A caller that loads one program after
    /// another keeps one table ([`NameTable::recycle`]) and, once its
    /// buffers have grown, allocates nothing.
    pub fn template_ref_reusing<'a, 't>(
        &'a self,
        names: &mut NameTable<'a>,
        ids: &'a mut Vec<u32>,
        rhs: &'t mut Vec<RhsTok<'a>>,
    ) -> TemplateRef<'t> {
        names.names.clear();
        names.tensors = 0;
        names.add(&self.lhs);
        self.rhs.for_each_access(&mut |a| names.add(a));
        self.template_ref_in(names, ids, rhs)
    }

    /// [`TacoProgram::template_ref`] with the names interned by `names`,
    /// a table that holds at least this program's names: the ids a
    /// search that interned `names` once would hand over.
    ///
    /// # Panics
    ///
    /// Panics if a name of the program is not in `names`.
    pub fn template_ref_in<'a, 't>(
        &'a self,
        names: &NameTable<'_>,
        ids: &'a mut Vec<u32>,
        rhs: &'t mut Vec<RhsTok<'a>>,
    ) -> TemplateRef<'t> {
        ids.clear();
        names.push_ids(&self.lhs, ids);
        self.rhs.for_each_access(&mut |a| names.push_ids(a, ids));
        // `ids` holds each access's tensor id, then its index ids, in
        // the order the walk below meets the accesses.
        let ids: &'a [u32] = ids;
        let mut at = 0;
        let mut interned = |access: &'a Access| {
            let end = at + 1 + access.rank();
            let a = AccessRef {
                access,
                tensor: ids[at],
                indices: &ids[at + 1..end],
            };
            at = end;
            a
        };
        let lhs = interned(&self.lhs);
        rhs.clear();
        self.rhs.push_tokens(&mut interned, rhs);
        TemplateRef { lhs, rhs }
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
