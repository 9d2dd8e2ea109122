//! Algebraic canonicalization of candidate programs.
//!
//! Grammar enumeration produces many syntactically distinct but
//! semantically identical candidates: `b(i,j) * c(j)` and
//! `c(j) * b(i,j)`, `x + 0`, `--x`, `2 * 3 * b(i)` and `6 * b(i)`. Each
//! costs a full validation pass (substitution enumeration × example
//! evaluation) even though an equivalent candidate was already tried.
//!
//! [`canonicalize`] rewrites a program into a normal form using only
//! *evaluation-preserving* rules — the canonical program computes the
//! same outputs (and errors in the same situations) as the original:
//!
//! - double negation elimination and `Neg(Const c) → Const(-c)`;
//! - flattening of associative (`+`, `*`) chains with commutative
//!   operand sorting and checked constant folding;
//! - neutral-element elimination (`x + 0 → x`, `x * 1 → x`,
//!   `x - 0 → x`, `x / 1 → x`, `0 - x → -x`);
//! - sign normalization of multiplication chains (negations pulled out
//!   of factors into the folded coefficient).
//!
//! Deliberately **not** applied: absorbing rewrites such as `x * 0 → 0`
//! or `x - x → 0` — they would erase a division error hiding inside
//! `x`, changing observable behaviour.
//!
//! # The canonical key
//!
//! [`CanonEncoder`] turns a template into a compact byte key: its
//! canonical form, α-renamed — RHS tensor slots, summation indices and
//! symbolic-constant ids numbered by first appearance in the canonical
//! form. Substitution enumeration binds slots purely by rank and draws
//! every `Const` slot from the same pool ([Fig. 8]'s filtered set), so
//! two templates equal up to such a bijective renaming generate
//! *identical* sets of concrete candidate programs: pruning one of them
//! never changes what the search can verify.
//!
//! The encoder reads a template as tokens ([`TemplateRef`], which the
//! search hands over without building a program) whose names arrive as
//! ids: a search interns its grammar's names once ([`NameTable`]), a
//! program its own ([`TacoProgram::template_ref`]). One walk over the
//! tokens builds a reusable node arena and yields the feasibility
//! [`Facts`] the pipeline checks first; no name is compared as text.
//! Canonicalization runs over the arena, and the key is written with
//! the renaming applied: no `String`, no renamed tree and no name maps
//! per call. Chain operands sort in the byte order of their printed
//! keys (names erased first, then in full) without printing them, since
//! ids order like names ([`NameTable`]), so pop order and pruning are
//! exactly those of the string form kept in [`mod@reference`].
//!
//! [`NameTable`]: crate::NameTable
//!
//! The pipeline's seen-set holds these keys exactly, in one byte arena
//! per search round ([`KeySet`]): a hash collision can never prune a
//! distinct template. [`canonical_fingerprint`] is a 64-bit hash of the
//! same key, for callers that only need a summary.
//!
//! Caveat: reassociation can, in principle, change *which* of several
//! errors a multi-error program reports first, and at astronomical
//! magnitudes it can shift exact-rational overflow between association
//! orders. Candidate filtering evaluates examples drawn from a small
//! value window where neither occurs; the prune-then-solve differential
//! suite enforces this end to end.
//!
//! [Fig. 8]: crate::batch

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::hash::{BuildHasher, Hasher};
use std::ops::Range;

use crate::ast::{Access, BinOp, Expr, NameTable, RhsTok, TacoProgram, TemplateRef};
use crate::batch::recycle;

pub mod reference;

/// Feasibility facts about a template, learned by [`CanonEncoder::load`]
/// and [`CanonEncoder::load_ref`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Facts {
    /// Whether the RHS reads any tensor.
    pub reads_tensor: bool,
    /// Whether some LHS index occurs in no RHS access: index analysis
    /// then fails for every substitution.
    pub unconstrained_output: bool,
}

/// One node of the encoder's arena. Nodes are immutable once pushed, so
/// canonical results share subtrees freely.
#[derive(Debug, Clone, Copy)]
enum Node {
    /// A tensor access, by its position in the RHS's accesses counted
    /// from the right.
    Access(u32),
    Const(i64),
    Sym(u32),
    Neg(u32),
    Bin(BinOp, u32, u32),
}

/// A loaded access: its tensor id and its index ids. Accesses are
/// numbered right to left, the order the loader meets them.
#[derive(Debug, Clone, Copy)]
struct AccessRec {
    tensor: u32,
    /// Start of the index ids in `CanonEncoder::access_indices`.
    start: u32,
    rank: u32,
}

/// Key tags: the high nibble is the node kind; an access keeps its rank
/// (up to 14) in the low nibble, a binary node its operator.
const TAG_ACCESS: u8 = 0x00;
const TAG_CONST: u8 = 0x10;
const TAG_SYM: u8 = 0x20;
const TAG_NEG: u8 = 0x30;
const TAG_BIN: u8 = 0x40;
/// Low-nibble escape: the access rank follows as a varint.
const RANK_ESCAPE: u8 = 0x0f;
const UNNAMED: u32 = u32::MAX;

/// Computes feasibility facts and canonical keys of templates, reusing
/// its buffers across calls.
///
/// ```
/// use gtl_taco::{parse_program, CanonEncoder};
///
/// let mut enc = CanonEncoder::default();
/// let facts = enc.load(&parse_program("a(i) = b(i,j) * c(j)").unwrap());
/// assert!(facts.reads_tensor && !facts.unconstrained_output);
/// let key = enc.key().to_vec();
/// // Commuted and α-renamed: the same key.
/// enc.load(&parse_program("a(i) = d(k) * c(i,k)").unwrap());
/// assert_eq!(enc.key(), key);
/// ```
#[derive(Debug, Default)]
pub struct CanonEncoder {
    /// The LHS tensor's id.
    lhs_tensor: u32,
    /// The distinct LHS index ids, in order of first appearance.
    lhs_indices: Vec<u32>,
    /// Per distinct LHS index: whether an RHS access mentions it.
    covered: Vec<bool>,
    accesses: Vec<AccessRec>,
    access_indices: Vec<u32>,
    /// One more than the largest tensor id and index id loaded.
    tensor_ids: u32,
    index_ids: u32,
    nodes: Vec<Node>,
    /// The loaded RHS.
    root: u32,
    /// Chain operands of the chains being canonicalized, innermost last;
    /// while loading, the nodes built and not yet used.
    stack: Vec<u32>,
    /// While loading: the operators of the binary nodes being built,
    /// each with the depth of `stack` when it was met.
    pending_ops: Vec<(BinOp, usize)>,
    /// Packed sort keys and nodes of one chain's operands.
    words: Vec<(u64, u32)>,
    /// α-renaming while encoding: per tensor id, its number (`UNNAMED`
    /// until first seen); per index id, its code (`UNCODED` until first
    /// seen); per `Const` id, its number.
    tensor_numbers: Vec<u32>,
    index_codes: Vec<u64>,
    sym_numbers: Vec<(u32, u32)>,
    named_tensors: u32,
    named_indices: u32,
    /// The key: its LHS part, written by the load, then its RHS.
    out: Vec<u8>,
    lhs_key_len: usize,
    /// [`CanonEncoder::load`]'s buffers for a program's name table,
    /// name ids and tokens, kept across calls.
    program_names: NameTable<'static>,
    program_ids: Vec<u32>,
    program_tokens: Vec<RhsTok<'static>>,
}

/// An index id not yet coded by the α-renaming.
const UNCODED: u64 = u64::MAX;

impl CanonEncoder {
    /// Interns `program` for [`CanonEncoder::key`] and returns its
    /// feasibility facts: [`CanonEncoder::load_ref`] over the program's
    /// tokens ([`TacoProgram::template_ref`]).
    pub fn load(&mut self, program: &TacoProgram) -> Facts {
        let mut names = std::mem::take(&mut self.program_names).recycle();
        let mut ids = std::mem::take(&mut self.program_ids);
        let mut rhs = recycle(std::mem::take(&mut self.program_tokens));
        let tokens = program.template_ref_reusing(&mut names, &mut ids, &mut rhs);
        let facts = self.load_ref(tokens);
        self.program_names = names.recycle();
        self.program_tokens = recycle(rhs);
        self.program_ids = ids;
        facts
    }

    /// Loads a borrowed template for [`CanonEncoder::key`] and returns
    /// its feasibility facts. Names are read as the ids the tokens
    /// carry; only the LHS's are read as text, for the key.
    ///
    /// # Panics
    ///
    /// Panics if `template.rhs` is not exactly one expression in
    /// derivation order.
    pub fn load_ref(&mut self, template: TemplateRef<'_>) -> Facts {
        self.accesses.clear();
        self.access_indices.clear();
        self.nodes.clear();
        let lhs = template.lhs;
        self.lhs_tensor = lhs.tensor;
        self.tensor_ids = lhs.tensor + 1;
        self.index_ids = 0;
        self.lhs_indices.clear();
        self.out.clear();
        put_bytes(&mut self.out, lhs.access.tensor.as_str().as_bytes());
        put_varint(&mut self.out, lhs.indices.len() as u64);
        for (ix, &id) in lhs.access.indices.iter().zip(lhs.indices) {
            if !self.lhs_indices.contains(&id) {
                self.lhs_indices.push(id);
            }
            self.index_ids = self.index_ids.max(id + 1);
            put_bytes(&mut self.out, ix.as_str().as_bytes());
        }
        self.lhs_key_len = self.out.len();
        self.covered.clear();
        self.covered.resize(self.lhs_indices.len(), false);
        // The tokens are the RHS in prefix order; read right to left,
        // every node's operands are built before the node itself.
        self.stack.clear();
        self.pending_ops.clear();
        for tok in template.rhs.iter().rev() {
            let node = match *tok {
                RhsTok::Access(a) => {
                    self.tensor_ids = self.tensor_ids.max(a.tensor + 1);
                    self.accesses.push(AccessRec {
                        tensor: a.tensor,
                        start: self.access_indices.len() as u32,
                        rank: a.indices.len() as u32,
                    });
                    for &id in a.indices {
                        if let Some(p) = self.lhs_indices.iter().position(|&l| l == id) {
                            self.covered[p] = true;
                        }
                        self.index_ids = self.index_ids.max(id + 1);
                        self.access_indices.push(id);
                    }
                    Node::Access(self.accesses.len() as u32 - 1)
                }
                RhsTok::Const(c) => Node::Const(c),
                RhsTok::ConstSym(id) => Node::Sym(id),
                RhsTok::Op(op) => {
                    self.pending_ops.push((op, self.stack.len()));
                    continue;
                }
                RhsTok::Neg => Node::Neg(self.stack.pop().expect("a negated expression")),
                RhsTok::Binary => {
                    // The operator sits between the operands: one node
                    // (the left operand) was built since it was met.
                    let (op, depth) = self
                        .pending_ops
                        .pop()
                        .expect("a binary node with its operator");
                    assert_eq!(
                        self.stack.len(),
                        depth + 1,
                        "an operator between two operands"
                    );
                    let l = self.stack.pop().expect("a left operand");
                    let r = self.stack.pop().expect("a right operand");
                    Node::Bin(op, l, r)
                }
            };
            let n = self.push(node);
            self.stack.push(n);
        }
        assert!(
            self.stack.len() == 1 && self.pending_ops.is_empty(),
            "not exactly one expression in derivation order"
        );
        self.root = self.stack.pop().expect("one expression");
        Facts {
            reads_tensor: !self.accesses.is_empty(),
            unconstrained_output: self.covered.contains(&false),
        }
    }

    /// The canonical key of the last loaded program. Two programs get
    /// equal keys exactly when their [`reference::canonical_key`]s are
    /// equal.
    ///
    /// # Panics
    ///
    /// Panics if no program was loaded.
    pub fn key(&mut self) -> &[u8] {
        let root = self.canon(self.root);
        self.encode(root);
        &self.out
    }

    fn push(&mut self, node: Node) -> u32 {
        self.nodes.push(node);
        self.nodes.len() as u32 - 1
    }

    /// Canonicalizes node `n` (see the module docs for the rule set) and
    /// returns the canonical node.
    fn canon(&mut self, n: u32) -> u32 {
        match self.nodes[n as usize] {
            Node::Access(_) | Node::Const(_) | Node::Sym(_) => n,
            Node::Neg(inner) => {
                let c = self.canon(inner);
                match self.nodes[c as usize] {
                    // --x → x.
                    Node::Neg(e) => e,
                    Node::Const(v) => match v.checked_neg() {
                        Some(v) => self.push(Node::Const(v)),
                        None => self.push(Node::Neg(c)),
                    },
                    _ => self.push(Node::Neg(c)),
                }
            }
            Node::Bin(op, ..) if op.is_associative() => self.chain(op, n),
            Node::Bin(op, l, r) => {
                let l = self.canon(l);
                let r = self.canon(r);
                match (op, self.nodes[l as usize], self.nodes[r as usize]) {
                    (BinOp::Sub, _, Node::Const(0)) => l,
                    (BinOp::Sub, Node::Const(0), _) => {
                        let neg = self.push(Node::Neg(r));
                        self.canon(neg)
                    }
                    (BinOp::Sub, Node::Const(a), Node::Const(b)) => match a.checked_sub(b) {
                        Some(v) => self.push(Node::Const(v)),
                        None => self.push(Node::Bin(BinOp::Sub, l, r)),
                    },
                    (BinOp::Div, _, Node::Const(1)) => l,
                    (BinOp::Div, Node::Const(a), Node::Const(b))
                        if b != 0 && a.checked_rem(b) == Some(0) =>
                    {
                        self.push(Node::Const(a / b))
                    }
                    _ => self.push(Node::Bin(op, l, r)),
                }
            }
        }
    }

    /// Flattens a `+` or `*` chain, folds constants, eliminates neutral
    /// elements, sorts the remaining operands, and rebuilds
    /// left-associated.
    fn chain(&mut self, op: BinOp, n: u32) -> u32 {
        let base = self.stack.len();
        let mut special = false;
        self.gather(op, n, &mut special);
        let ops_end = self.stack.len();

        // Fold every constant leaf into one coefficient; abort the fold
        // on i64 overflow (the constants then stay as ordinary operands).
        let identity: i64 = if op == BinOp::Add { 0 } else { 1 };
        let mut folded = Some(identity);
        let mut neg_parity = false;
        // Without a constant or a factor sign, the operands stay as they
        // are.
        let rest = if special {
            for k in base..ops_end {
                if let Node::Const(c) = self.nodes[self.stack[k] as usize] {
                    folded = folded.and_then(|acc| {
                        if op == BinOp::Add {
                            acc.checked_add(c)
                        } else {
                            acc.checked_mul(c)
                        }
                    });
                }
            }
            for k in base..ops_end {
                let e = self.stack[k];
                match self.nodes[e as usize] {
                    Node::Const(_) if folded.is_some() => {}
                    // Pull factor signs into the coefficient: (-x)·y = -(x·y).
                    Node::Neg(inner) if op == BinOp::Mul => {
                        neg_parity = !neg_parity;
                        self.stack.push(inner);
                    }
                    _ => self.stack.push(e),
                }
            }
            ops_end..self.stack.len()
        } else {
            base..ops_end
        };
        self.sort_operands(rest.clone());

        let mut coeff = folded;
        if neg_parity {
            if let Some(c) = coeff.and_then(i64::checked_neg) {
                coeff = Some(c);
                neg_parity = false;
            }
        }
        // Keep the coefficient unless it is the neutral element (or the
        // chain would otherwise be empty). Coefficient first for `*`
        // (`2 * b(i)`), last for `+` (`b(i) + 2`).
        let coeff = match coeff {
            Some(c) if c != identity || rest.is_empty() => Some(self.push(Node::Const(c))),
            _ => None,
        };
        let mut acc = if op == BinOp::Mul { coeff } else { None };
        for k in rest {
            let e = self.stack[k];
            acc = Some(self.append(op, acc, e));
        }
        if op == BinOp::Add {
            if let Some(c) = coeff {
                acc = Some(self.append(op, acc, c));
            }
        }
        let mut out = acc.expect("chain has at least one operand");
        if neg_parity {
            out = self.push(Node::Neg(out));
        }
        self.stack.truncate(base);
        out
    }

    fn append(&mut self, op: BinOp, acc: Option<u32>, e: u32) -> u32 {
        match acc {
            None => e,
            Some(a) => self.push(Node::Bin(op, a, e)),
        }
    }

    /// Pushes the operands of the `op` chain at `n` onto the stack,
    /// canonicalized, left to right. Canonicalizing an operand can
    /// surface a nested same-op chain (e.g. `--(b + c) → b + c`), whose
    /// operands merge into this chain. Sets `special` on an operand that
    /// is a constant, or a negation under `*`.
    fn gather(&mut self, op: BinOp, n: u32, special: &mut bool) {
        match self.nodes[n as usize] {
            Node::Bin(o, l, r) if o == op => {
                self.gather(op, l, special);
                self.gather(op, r, special);
            }
            // Leaves are canonical.
            Node::Access(_) | Node::Sym(_) => self.stack.push(n),
            _ => {
                let c = self.canon(n);
                self.flatten(op, c, special);
            }
        }
    }

    /// Pushes the leaves of the maximal `op` subtree at `n` onto the
    /// stack; sets `special` as [`CanonEncoder::gather`] does.
    fn flatten(&mut self, op: BinOp, n: u32, special: &mut bool) {
        match self.nodes[n as usize] {
            Node::Bin(o, l, r) if o == op => {
                self.flatten(op, l, special);
                self.flatten(op, r, special);
            }
            node => {
                *special |= matches!(node, Node::Const(_))
                    || (op == BinOp::Mul && matches!(node, Node::Neg(_)));
                self.stack.push(n);
            }
        }
    }

    /// Sorts `stack[range]` stably by (erased key, full key), compared as
    /// bytes ([`Tree::order`] computes that order without printing the
    /// keys). The erased key blanks names, so α-equivalent operands sort
    /// into the same chain position before renaming; the full key breaks
    /// ties.
    fn sort_operands(&mut self, range: Range<usize>) {
        if range.len() < 2 {
            return;
        }
        let tree = Tree {
            nodes: &self.nodes,
            accesses: &self.accesses,
            indices: &self.access_indices,
        };
        let operands = &mut self.stack[range];
        // Most chains are of small accesses and `Const` slots, whose
        // order packs into one word each.
        self.words.clear();
        self.words
            .extend(operands.iter().map_while(|&n| Some((tree.word(n)?, n))));
        if self.words.len() == operands.len() {
            // Equal words are equal printed keys: which goes first
            // cannot change the tree.
            self.words.sort_unstable();
            for (slot, &(_, n)) in operands.iter_mut().zip(&self.words) {
                *slot = n;
            }
        } else {
            operands.sort_by(|&x, &y| tree.order(x, y, true).then_with(|| tree.order(x, y, false)));
        }
    }

    /// Writes the key of canonical node `root` into `out` after the LHS
    /// the load wrote: the RHS in prefix order with the α-renaming
    /// applied.
    fn encode(&mut self, root: u32) {
        self.out.truncate(self.lhs_key_len);
        self.tensor_numbers.clear();
        self.tensor_numbers
            .resize(self.tensor_ids as usize, UNNAMED);
        // LHS indices keep their identity (even codes, by first
        // appearance in the LHS); summation indices are numbered (odd
        // codes) as the encoding meets them.
        self.index_codes.clear();
        self.index_codes.resize(self.index_ids as usize, UNCODED);
        for (p, &id) in self.lhs_indices.iter().enumerate() {
            self.index_codes[id as usize] = 2 * p as u64;
        }
        self.sym_numbers.clear();
        self.named_tensors = 0;
        self.named_indices = 0;
        // Prefix order: a node, then its operands left to right.
        self.stack.push(root);
        while let Some(n) = self.stack.pop() {
            match self.nodes[n as usize] {
                Node::Access(a) => {
                    let rec = self.accesses[a as usize];
                    if rec.rank < u32::from(RANK_ESCAPE) {
                        self.out.push(TAG_ACCESS | rec.rank as u8);
                    } else {
                        self.out.push(TAG_ACCESS | RANK_ESCAPE);
                        put_varint(&mut self.out, u64::from(rec.rank));
                    }
                    // The LHS symbol on the RHS binds the output — not a
                    // free slot, so it keeps its identity (code 0).
                    let code = if rec.tensor == self.lhs_tensor {
                        0
                    } else {
                        1 + number(
                            &mut self.tensor_numbers[rec.tensor as usize],
                            &mut self.named_tensors,
                        )
                    };
                    put_varint(&mut self.out, u64::from(code));
                    let ids =
                        &self.access_indices[rec.start as usize..(rec.start + rec.rank) as usize];
                    for &id in ids {
                        let code = &mut self.index_codes[id as usize];
                        if *code == UNCODED {
                            *code = 2 * u64::from(self.named_indices) + 1;
                            self.named_indices += 1;
                        }
                        put_varint(&mut self.out, *code);
                    }
                }
                Node::Const(c) => {
                    self.out.push(TAG_CONST);
                    put_varint(&mut self.out, ((c << 1) ^ (c >> 63)) as u64);
                }
                Node::Sym(id) => {
                    let k = match self.sym_numbers.iter().find(|(s, _)| *s == id) {
                        Some(&(_, k)) => k,
                        None => {
                            let k = self.sym_numbers.len() as u32;
                            self.sym_numbers.push((id, k));
                            k
                        }
                    };
                    self.out.push(TAG_SYM);
                    put_varint(&mut self.out, u64::from(k));
                }
                Node::Neg(inner) => {
                    self.out.push(TAG_NEG);
                    self.stack.push(inner);
                }
                Node::Bin(op, l, r) => {
                    let code = match op {
                        BinOp::Add => 0,
                        BinOp::Sub => 1,
                        BinOp::Mul => 2,
                        BinOp::Div => 3,
                    };
                    self.out.push(TAG_BIN | code);
                    self.stack.push(r);
                    self.stack.push(l);
                }
            }
        }
    }

    /// Rebuilds node `n` as an expression; `accesses` is the loaded
    /// program's RHS access list.
    fn to_expr(&self, n: u32, accesses: &[&Access]) -> Expr {
        match self.nodes[n as usize] {
            Node::Access(a) => Expr::Access(accesses[accesses.len() - 1 - a as usize].clone()),
            Node::Const(c) => Expr::Const(c),
            Node::Sym(id) => Expr::ConstSym(id),
            Node::Neg(inner) => Expr::Neg(Box::new(self.to_expr(inner, accesses))),
            Node::Bin(op, l, r) => {
                Expr::binary(op, self.to_expr(l, accesses), self.to_expr(r, accesses))
            }
        }
    }
}

/// The encoder's nodes, read-only, for ordering chain operands.
struct Tree<'a> {
    nodes: &'a [Node],
    accesses: &'a [AccessRec],
    indices: &'a [u32],
}

impl Tree<'_> {
    /// Compares nodes `x` and `y` as the bytes of their printed sort keys
    /// compare, without printing them. The printed key of a node is
    ///
    /// - an access `name(i,j)`, erased `?(?,?)`;
    /// - a constant `#c`, a `Const` slot `$id` (erased `$?`);
    /// - a negation `(- e)`, a binary node `(op l r)`.
    ///
    /// The first byte orders the kinds: `#` < `$` < `(` < `?` and every
    /// name byte. Two keys of one kind first differ inside a part both
    /// print, so the parts are compared in turn:
    ///
    /// - A key other than a number is never a proper prefix of another
    ///   key, since its parentheses close at its last byte. So once a
    ///   part orders before another, the bytes after it cannot overturn
    ///   that.
    /// - A number can be a prefix of another (`#1`, `#12`), but the byte
    ///   after a part is ` `, `)` or the end, each below every digit. So
    ///   the shorter number still orders first, as it does alone.
    /// - Names are identifiers (see [`NameTable`]): their bytes sort
    ///   after the `(`, `,` or `)` that follows a name. So printed
    ///   accesses order as (tensor id, index ids) do, a shorter index
    ///   list first, and erased ones by rank.
    /// - `(- x)` against `(- l r)`: with `x` and `l` equal, ` ` sorts
    ///   before `)`, so the subtraction orders first.
    ///
    /// [`NameTable`]: crate::NameTable
    fn order(&self, x: u32, y: u32, erase: bool) -> Ordering {
        if x == y {
            return Ordering::Equal;
        }
        match (self.nodes[x as usize], self.nodes[y as usize]) {
            (Node::Const(a), Node::Const(b)) => decimal_order(a, b),
            (Node::Sym(_), Node::Sym(_)) if erase => Ordering::Equal,
            (Node::Sym(a), Node::Sym(b)) => decimal_order(a.into(), b.into()),
            (Node::Access(a), Node::Access(b)) => {
                let (a, b) = (self.accesses[a as usize], self.accesses[b as usize]);
                if erase {
                    a.rank.cmp(&b.rank)
                } else {
                    a.tensor
                        .cmp(&b.tensor)
                        .then_with(|| self.index_ids(a).cmp(self.index_ids(b)))
                }
            }
            (Node::Neg(a), Node::Neg(b)) => self.order(a, b, erase),
            (Node::Bin(o, l, r), Node::Bin(p, m, s)) => op_byte(o)
                .cmp(&op_byte(p))
                .then_with(|| self.order(l, m, erase))
                .then_with(|| self.order(r, s, erase)),
            (Node::Neg(a), Node::Bin(o, l, _)) => b'-'
                .cmp(&op_byte(o))
                .then_with(|| self.order(a, l, erase))
                .then(Ordering::Greater),
            (Node::Bin(o, l, _), Node::Neg(a)) => op_byte(o)
                .cmp(&b'-')
                .then_with(|| self.order(l, a, erase))
                .then(Ordering::Less),
            (a, b) => kind_rank(a).cmp(&kind_rank(b)),
        }
    }

    /// Node `n`'s place in [`Tree::order`] by erased then full key,
    /// packed into one word, for an access of rank at most 7 over
    /// tensor ids below 256 and index ids below 64, or a `Const` slot id
    /// below 10 (whose decimal order is its numeric order). The kind
    /// rank leads, then the rank (erased key), then the tensor id and
    /// each index id (full key; equal ranks make equally long lists).
    fn word(&self, n: u32) -> Option<u64> {
        match self.nodes[n as usize] {
            Node::Access(a) => {
                let a = self.accesses[a as usize];
                if a.rank > 7 || a.tensor > 255 {
                    return None;
                }
                let mut word = (3 << 62) | u64::from(a.rank) << 58 | u64::from(a.tensor) << 50;
                for (k, &id) in self.index_ids(a).iter().enumerate() {
                    if id >= 64 {
                        return None;
                    }
                    word |= u64::from(id) << (44 - 6 * k);
                }
                Some(word)
            }
            Node::Sym(id) if id < 10 => Some(1 << 62 | u64::from(id)),
            _ => None,
        }
    }

    fn index_ids(&self, a: AccessRec) -> &[u32] {
        &self.indices[a.start as usize..(a.start + a.rank) as usize]
    }
}

/// The printed operator of a binary node, `(op l r)`.
fn op_byte(op: BinOp) -> u8 {
    op.symbol().as_bytes()[0]
}

/// The rank of a node kind's first printed byte: `#`, `$`, `(`, then a
/// name or `?`.
fn kind_rank(node: Node) -> u8 {
    match node {
        Node::Const(_) => 0,
        Node::Sym(_) => 1,
        Node::Neg(_) | Node::Bin(..) => 2,
        Node::Access(_) => 3,
    }
}

/// Compares `a` and `b` as the bytes of their decimal forms compare
/// (`-1` < `-12` < `100` < `12` < `3`).
fn decimal_order(a: i64, b: i64) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    let (mut da, mut db) = ([0u8; 20], [0u8; 20]);
    decimal(a, &mut da).cmp(decimal(b, &mut db))
}

/// The decimal form of `v`, written at the end of `buf`.
fn decimal(v: i64, buf: &mut [u8; 20]) -> &[u8] {
    let mut n = v.unsigned_abs();
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    &buf[at..]
}

/// The α-number of a name: assigned from `next` on first sight.
fn number(slot: &mut u32, next: &mut u32) -> u32 {
    if *slot == UNNAMED {
        *slot = *next;
        *next += 1;
    }
    *slot
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Canonicalizes a whole program (the LHS is already canonical by
/// construction; only the RHS is rewritten).
pub fn canonicalize(program: &TacoProgram) -> TacoProgram {
    let mut enc = CanonEncoder::default();
    enc.load(program);
    let root = enc.canon(enc.root);
    TacoProgram {
        lhs: program.lhs.clone(),
        rhs: enc.to_expr(root, &program.rhs.accesses()),
    }
}

/// A 64-bit hash of the program's canonical key
/// ([`CanonEncoder::key`]).
pub fn canonical_fingerprint(program: &TacoProgram) -> u64 {
    thread_local! {
        static ENCODER: RefCell<CanonEncoder> = RefCell::new(CanonEncoder::default());
    }
    ENCODER.with(|enc| {
        let mut enc = enc.borrow_mut();
        enc.load(program);
        let mut h = DefaultHasher::new();
        h.write(enc.key());
        h.finish()
    })
}

/// A set of canonical keys held exactly: the bytes of every key in one
/// arena, an open-addressing table of entry numbers over them. Keys are
/// hashed with the standard library's randomly keyed hasher, since
/// templates derive from candidates the program does not control.
#[derive(Debug, Default)]
pub struct KeySet {
    hasher: RandomState,
    bytes: Vec<u8>,
    /// Entry `e` spans `bytes[ends[e - 1]..ends[e]]`.
    ends: Vec<u32>,
    /// Linear-probing table: 0 is empty, otherwise entry number + 1.
    slots: Vec<u32>,
}

impl KeySet {
    /// Adds `key`; returns whether it was new.
    pub fn insert(&mut self, key: &[u8]) -> bool {
        // Load factor at most 3/4.
        if 4 * (self.ends.len() + 1) > 3 * self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.hasher.hash_one(key) as usize & mask;
        loop {
            match self.slots[i] {
                0 => {
                    self.bytes.extend_from_slice(key);
                    self.ends.push(self.bytes.len() as u32);
                    self.slots[i] = self.ends.len() as u32;
                    return true;
                }
                e if self.entry(e as usize - 1) == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn entry(&self, e: usize) -> &[u8] {
        let start = if e == 0 { 0 } else { self.ends[e - 1] as usize };
        &self.bytes[start..self.ends[e] as usize]
    }

    fn grow(&mut self) {
        let cap = (2 * self.slots.len()).max(64);
        let mask = cap - 1;
        let mut slots = vec![0u32; cap];
        for e in 0..self.ends.len() {
            let mut i = self.hasher.hash_one(self.entry(e)) as usize & mask;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = e as u32 + 1;
        }
        self.slots = slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn canon_str(src: &str) -> String {
        canonicalize(&parse_program(src).unwrap()).to_string()
    }

    fn key(src: &str) -> Vec<u8> {
        let mut enc = CanonEncoder::default();
        enc.load(&parse_program(src).unwrap());
        enc.key().to_vec()
    }

    fn fp(src: &str) -> u64 {
        canonical_fingerprint(&parse_program(src).unwrap())
    }

    #[test]
    fn commutative_operands_sort() {
        // Lower-rank operands sort first (the erased structural key),
        // names break ties among equal shapes.
        assert_eq!(canon_str("a(i) = b(i,j) * c(j)"), "a(i) = c(j) * b(i,j)");
        assert_eq!(
            canon_str("a(i) = c(i) + b(i) + d(i)"),
            "a(i) = b(i) + c(i) + d(i)"
        );
    }

    #[test]
    fn constants_fold() {
        assert_eq!(canon_str("a(i) = 2 * 3 * b(i)"), "a(i) = 6 * b(i)");
        assert_eq!(canon_str("a(i) = b(i) + 2 + 3"), "a(i) = b(i) + 5");
        assert_eq!(canon_str("a = 4 - 1"), "a = 3");
        assert_eq!(canon_str("a = 6 / 2"), "a = 3");
        // Inexact division does not fold.
        assert_eq!(canon_str("a = 7 / 2"), "a = 7 / 2");
    }

    #[test]
    fn neutral_elements_drop() {
        assert_eq!(canon_str("a(i) = b(i) + 0"), "a(i) = b(i)");
        assert_eq!(canon_str("a(i) = 1 * b(i)"), "a(i) = b(i)");
        assert_eq!(canon_str("a(i) = b(i) - 0"), "a(i) = b(i)");
        assert_eq!(canon_str("a(i) = b(i) / 1"), "a(i) = b(i)");
        assert_eq!(canon_str("a(i) = 0 - b(i)"), "a(i) = -b(i)");
    }

    #[test]
    fn zero_product_is_not_absorbed() {
        // `0 * b(i)` must keep the access: collapsing it would change
        // error behaviour for division-bearing factors.
        assert_eq!(canon_str("a(i) = b(i) * 0"), "a(i) = 0 * b(i)");
    }

    #[test]
    fn double_negation_and_sign_pull() {
        assert_eq!(canon_str("a(i) = --b(i)"), "a(i) = b(i)");
        assert_eq!(canon_str("a(i) = -b(i) * c(i)"), "a(i) = -1 * b(i) * c(i)");
        assert_eq!(canon_str("a(i) = -b(i) * -c(i)"), "a(i) = b(i) * c(i)");
    }

    #[test]
    fn keys_merge_commuted_variants() {
        assert_eq!(key("a(i) = b(i,j) * c(j)"), key("a(i) = c(j) * b(i,j)"));
        assert_eq!(key("a(i) = b(i) + 0"), key("a(i) = b(i)"));
        assert_eq!(fp("a(i) = b(i,j) * c(j)"), fp("a(i) = c(j) * b(i,j)"));
    }

    #[test]
    fn keys_merge_alpha_variants() {
        // Summation index renaming.
        assert_eq!(key("a(i) = b(i,j) * c(j)"), key("a(i) = b(i,k) * c(k)"));
        // Slot renaming: slots bind by rank only, so b/c swap freely.
        assert_eq!(key("a(i) = b(i)"), key("a(i) = c(i)"));
        assert_eq!(key("a(i) = b(j) * c(i,j)"), key("a(i) = c(j) * b(i,j)"));
    }

    #[test]
    fn keys_distinguish_semantics() {
        // Transposed access is a different function.
        assert_ne!(key("a(i) = b(i,j) * c(j)"), key("a(i) = b(j,i) * c(j)"));
        // Shared slots constrain substitutions; distinct slots do not.
        assert_ne!(key("a = b(i) * b(i)"), key("a = b(i) * c(i)"));
        assert_ne!(key("a(i) = b(i) + b(i)"), key("a(i) = b(i) + c(i)"));
        // Same for constant slots (Display would erase the ids).
        let shared = parse_program("a = b(i) * Const + c(i) * Const").unwrap();
        let mut free = shared.clone();
        if let Expr::Binary { rhs, .. } = &mut free.rhs {
            if let Expr::Binary { rhs: inner, .. } = rhs.as_mut() {
                **inner = Expr::ConstSym(1);
            }
        }
        assert_ne!(canonical_fingerprint(&shared), canonical_fingerprint(&free));
        // The LHS is part of the key, names included.
        assert_ne!(key("a(i,j) = b(i,j)"), key("a(j,i) = b(j,i)"));
    }

    #[test]
    fn lhs_output_binding_is_not_renamed() {
        // `a` on the RHS binds the output, not a free slot.
        assert_ne!(key("a(i) = a(i) + b(i)"), key("a(i) = b(i) + c(i)"));
    }

    #[test]
    fn facts_report_feasibility() {
        let mut enc = CanonEncoder::default();
        let facts = |enc: &mut CanonEncoder, src: &str| enc.load(&parse_program(src).unwrap());
        assert_eq!(
            facts(&mut enc, "a(i,j) = b(i) * c(k)"),
            Facts {
                reads_tensor: true,
                unconstrained_output: true
            }
        );
        assert_eq!(
            facts(&mut enc, "a(i) = 2 + Const"),
            Facts {
                reads_tensor: false,
                unconstrained_output: true
            }
        );
        assert_eq!(
            facts(&mut enc, "a = 2"),
            Facts {
                reads_tensor: false,
                unconstrained_output: false
            }
        );
        assert_eq!(
            facts(&mut enc, "a(i,i) = b(i)"),
            Facts {
                reads_tensor: true,
                unconstrained_output: false
            }
        );
    }

    /// Sort-order corner cases where printed bytes and values disagree:
    /// `#-1` < `#12` < `#3`, and `(- x)` sorts after `(- x y)`.
    #[test]
    fn agrees_with_reference_where_bytes_and_values_disagree() {
        let cases = [
            "a = b(i) + -1 * c(i) + 12 * d(i) + 3 * e(i)",
            "a(i) = (b(i) / 12) + (b(i) / 3) + (b(i) / -1)",
            "a(i) = -(b(i) - c(i)) + -b(i) + (b(i) - c(i))",
            "a(i) = (c(i) / -1) * (b(i) / 3) * (b(i) / 12)",
            "a(i) = a(i) + b(i) * Const + c(i) * Const",
            "a(i,i) = b(i,j,j) + c(j,i,j)",
            "a = 0 - (b(i) * -c(i))",
            "a = b(i) * -(c(i) * d(i))",
            "a = 0 - b(i) * -(c(i) * d(i))",
        ];
        let mut enc = CanonEncoder::default();
        for src in cases {
            let p = parse_program(src).unwrap();
            assert_eq!(canonicalize(&p), reference::canonicalize(&p), "{src}");
        }
        for a in cases {
            for b in cases {
                let (pa, pb) = (parse_program(a).unwrap(), parse_program(b).unwrap());
                enc.load(&pa);
                let ka = enc.key().to_vec();
                enc.load(&pb);
                let same = enc.key() == ka.as_slice();
                assert_eq!(
                    same,
                    reference::canonical_key(&pa) == reference::canonical_key(&pb),
                    "{a} vs {b}"
                );
            }
        }
    }

    /// Operand order without printing equals the byte order of the
    /// reference's printed sort keys, for every pair of nodes an encoder
    /// holds after canonicalizing: names that prefix one another, numbers
    /// whose bytes and values disagree, and `(- x)` beside `(- x y)`.
    #[test]
    fn operand_order_is_printed_byte_order() {
        let cases = [
            "a(i) = b(i,ii) + bc(i) + b1(i1) + b(i) + b(i,i1) + b(ii) + b + bc",
            "a(i) = b(i) * -1 * c(i) * 12 * Const * d(i) * 3 + -12 + 100",
            "a(i) = -(b(i) - c(i)) + -b(i) + (b(i) - c(i)) + (b(i) / c(i)) + -(b(i) * c(i))",
            "a(i) = (b(i) - 1) + (b(i) - 12) + (b(i) - -1) + (12 - b(i)) + (1 - b(i))",
            "a(ii,i1) = a(i1,ii) + b1(ii,i) * bc(i,i1) + -(b(i) / bc(ii))",
        ];
        let mut enc = CanonEncoder::default();
        for src in cases {
            let p = parse_program(src).unwrap();
            enc.load(&p);
            enc.canon(enc.root);
            let accesses = p.rhs.accesses();
            let printed: Vec<[String; 2]> = (0..enc.nodes.len() as u32)
                .map(|n| {
                    let e = enc.to_expr(n, &accesses);
                    [reference::erased_key(&e), reference::expr_key(&e)]
                })
                .collect();
            let tree = Tree {
                nodes: &enc.nodes,
                accesses: &enc.accesses,
                indices: &enc.access_indices,
            };
            for (x, px) in printed.iter().enumerate() {
                for (y, py) in printed.iter().enumerate() {
                    for (k, erase) in [true, false].into_iter().enumerate() {
                        assert_eq!(
                            tree.order(x as u32, y as u32, erase),
                            px[k].as_bytes().cmp(py[k].as_bytes()),
                            "{} vs {}",
                            px[k],
                            py[k]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn malformed_tokens_panic() {
        let p = parse_program("a(i) = b(i) * c(i)").unwrap();
        let (mut ids, mut rhs) = (Vec::new(), Vec::new());
        let t = p.template_ref(&mut ids, &mut rhs);
        let &[bin, b, op, c] = t.rhs else {
            panic!("{:?}", t.rhs)
        };
        for bad in [
            vec![bin, b, c, op],
            vec![bin, op, b, c],
            vec![b, c],
            vec![bin, b, op],
            vec![op],
        ] {
            let loaded = std::panic::catch_unwind(|| {
                CanonEncoder::default().load_ref(TemplateRef {
                    lhs: t.lhs,
                    rhs: &bad,
                })
            });
            assert!(loaded.is_err(), "{bad:?} loaded");
        }
    }

    #[test]
    fn reference_key_is_stable() {
        assert_eq!(
            reference::canonical_key(&parse_program("a(i) = c(k) * b(i,k)").unwrap()),
            "a(i)=(* $t0($s0) $t1(i,$s0))"
        );
    }

    #[test]
    fn key_set_holds_keys_exactly() {
        let mut set = KeySet::default();
        for n in 0u32..2000 {
            assert!(set.insert(&n.to_le_bytes()), "{n} is new");
        }
        for n in 0u32..2000 {
            assert!(!set.insert(&n.to_le_bytes()), "{n} is held");
        }
        // Prefixes and the empty key are distinct keys.
        assert!(set.insert(&[]));
        assert!(set.insert(&[1, 0]));
        assert!(!set.insert(&[]));
        assert!(!set.insert(&[1, 0]));
    }
}
