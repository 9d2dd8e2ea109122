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
//! The encoder interns names into small ids in one walk over the
//! template's tokens ([`TemplateRef`], which the search hands over
//! without building a program), which also yields the feasibility
//! [`Facts`] the pipeline checks first. Canonicalization then runs over a reusable node arena,
//! and the key is written with the renaming applied: no `String`, no
//! renamed tree and no name maps per call. Chain operands still sort by
//! the byte order of their printed keys (names erased first, then in
//! full), so pop order and pruning are exactly those of the string form
//! kept in [`mod@reference`].
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
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::hash::{BuildHasher, Hasher};
use std::io::Write as _;
use std::ops::Range;

use crate::ast::{Access, BinOp, Expr, RhsTok, TacoProgram, TemplateRef};

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
    /// A tensor access, by its position in the RHS's access order.
    Access(u32),
    Const(i64),
    Sym(u32),
    Neg(u32),
    Bin(BinOp, u32, u32),
}

/// An interned access: tensor name id and its index name ids.
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
    /// Name bytes of every interned tensor and index name.
    names: Vec<u8>,
    /// Tensor names as ranges of `names`; id 0 is the LHS tensor.
    tensors: Vec<(u32, u32)>,
    /// Index names as ranges of `names`; the LHS's come first.
    indices: Vec<(u32, u32)>,
    /// The LHS index ids, per position.
    lhs: Vec<u32>,
    /// Per distinct LHS index: whether an RHS access mentions it.
    covered: Vec<bool>,
    accesses: Vec<AccessRec>,
    access_indices: Vec<u32>,
    nodes: Vec<Node>,
    /// The loaded RHS.
    root: u32,
    /// Chain operands of the chains being canonicalized, innermost last.
    stack: Vec<u32>,
    /// Sort keys of one chain's operands: erased start, full start, full
    /// end (ranges of `keys`), node.
    sort: Vec<[u32; 4]>,
    keys: Vec<u8>,
    /// α-renaming while encoding: per tensor id and per index id, the
    /// assigned number (`UNNAMED` until first seen), and per `Const` id.
    tensor_numbers: Vec<u32>,
    index_numbers: Vec<u32>,
    sym_numbers: Vec<(u32, u32)>,
    named_tensors: u32,
    named_indices: u32,
    out: Vec<u8>,
}

impl CanonEncoder {
    /// Interns `program` for [`CanonEncoder::key`] and returns its
    /// feasibility facts: [`CanonEncoder::load_ref`] over the program's
    /// tokens.
    pub fn load(&mut self, program: &TacoProgram) -> Facts {
        let mut rhs = Vec::new();
        program.rhs.push_tokens(&mut rhs);
        self.load_ref(TemplateRef {
            lhs: &program.lhs,
            rhs: &rhs,
        })
    }

    /// Interns a borrowed template for [`CanonEncoder::key`] and returns
    /// its feasibility facts.
    ///
    /// # Panics
    ///
    /// Panics if `template.rhs` is not exactly one expression in
    /// derivation order.
    pub fn load_ref(&mut self, template: TemplateRef<'_>) -> Facts {
        self.names.clear();
        self.tensors.clear();
        self.indices.clear();
        self.lhs.clear();
        self.accesses.clear();
        self.access_indices.clear();
        self.nodes.clear();
        intern(
            &mut self.names,
            &mut self.tensors,
            template.lhs.tensor.as_str(),
        );
        for ix in &template.lhs.indices {
            let id = intern(&mut self.names, &mut self.indices, ix.as_str());
            self.lhs.push(id);
        }
        self.covered.clear();
        self.covered.resize(self.indices.len(), false);
        let mut toks = template.rhs.iter();
        self.root = self.load_expr(&mut toks);
        assert!(toks.next().is_none(), "tokens after a complete expression");
        Facts {
            reads_tensor: !self.accesses.is_empty(),
            unconstrained_output: self.covered.contains(&false),
        }
    }

    /// Interns the expression at the front of `toks`, which it consumes.
    fn load_expr(&mut self, toks: &mut std::slice::Iter<'_, RhsTok<'_>>) -> u32 {
        let node = match *toks.next().expect("a complete expression") {
            RhsTok::Access(a) => {
                let tensor = intern(&mut self.names, &mut self.tensors, a.tensor.as_str());
                let start = self.access_indices.len() as u32;
                for ix in &a.indices {
                    let id = intern(&mut self.names, &mut self.indices, ix.as_str());
                    if let Some(covered) = self.covered.get_mut(id as usize) {
                        *covered = true;
                    }
                    self.access_indices.push(id);
                }
                self.accesses.push(AccessRec {
                    tensor,
                    start,
                    rank: a.indices.len() as u32,
                });
                Node::Access(self.accesses.len() as u32 - 1)
            }
            RhsTok::Const(c) => Node::Const(c),
            RhsTok::ConstSym(id) => Node::Sym(id),
            RhsTok::Neg => Node::Neg(self.load_expr(toks)),
            RhsTok::Binary => {
                let l = self.load_expr(toks);
                let Some(&RhsTok::Op(op)) = toks.next() else {
                    panic!("a binary node without its operator");
                };
                let r = self.load_expr(toks);
                Node::Bin(op, l, r)
            }
            RhsTok::Op(op) => panic!("operator `{op}` outside a binary node"),
        };
        self.push(node)
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
        self.flatten(op, n);
        let raw_end = self.stack.len();
        // Canonicalizing an operand can surface a nested same-op chain
        // (e.g. after `--(b + c) → b + c`); re-flatten so it merges.
        for k in base..raw_end {
            let c = self.canon(self.stack[k]);
            self.flatten(op, c);
        }
        let ops_end = self.stack.len();

        // Fold every constant leaf into one coefficient; abort the fold
        // on i64 overflow (the constants then stay as ordinary operands).
        let identity: i64 = if op == BinOp::Add { 0 } else { 1 };
        let mut folded = Some(identity);
        for k in raw_end..ops_end {
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
        let mut neg_parity = false;
        for k in raw_end..ops_end {
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
        let rest = ops_end..self.stack.len();
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

    /// Pushes the leaves of the maximal `op` subtree at `n` onto the stack.
    fn flatten(&mut self, op: BinOp, n: u32) {
        match self.nodes[n as usize] {
            Node::Bin(o, l, r) if o == op => {
                self.flatten(op, l);
                self.flatten(op, r);
            }
            _ => self.stack.push(n),
        }
    }

    /// Sorts `stack[range]` by (erased key, full key), compared as bytes.
    /// The erased key blanks names, so α-equivalent operands sort into the
    /// same chain position before renaming; the full key breaks ties.
    fn sort_operands(&mut self, range: Range<usize>) {
        if range.len() < 2 {
            return;
        }
        self.keys.clear();
        self.sort.clear();
        for k in range.clone() {
            let e = self.stack[k];
            let erased = self.keys.len() as u32;
            self.write_key(e, true);
            let full = self.keys.len() as u32;
            self.write_key(e, false);
            self.sort.push([erased, full, self.keys.len() as u32, e]);
        }
        let keys = &self.keys;
        let span = |a: u32, b: u32| &keys[a as usize..b as usize];
        self.sort.sort_by(|x, y| {
            (span(x[0], x[1]), span(x[1], x[2])).cmp(&(span(y[0], y[1]), span(y[1], y[2])))
        });
        for (k, entry) in range.zip(&self.sort) {
            self.stack[k] = entry[3];
        }
    }

    /// Writes the printed sort key of node `n`: `name(i,j)`, `#c`, `$id`,
    /// `(- e)`, `(op l r)`; with `erase`, names and `Const` ids print as
    /// `?`.
    fn write_key(&mut self, n: u32, erase: bool) {
        match self.nodes[n as usize] {
            Node::Access(a) => {
                let rec = self.accesses[a as usize];
                if erase {
                    self.keys.push(b'?');
                } else {
                    let (s, e) = self.tensors[rec.tensor as usize];
                    self.keys
                        .extend_from_slice(&self.names[s as usize..e as usize]);
                }
                self.keys.push(b'(');
                for p in 0..rec.rank {
                    if p > 0 {
                        self.keys.push(b',');
                    }
                    if erase {
                        self.keys.push(b'?');
                    } else {
                        let id = self.access_indices[(rec.start + p) as usize];
                        let (s, e) = self.indices[id as usize];
                        self.keys
                            .extend_from_slice(&self.names[s as usize..e as usize]);
                    }
                }
                self.keys.push(b')');
            }
            Node::Const(c) => {
                let _ = write!(self.keys, "#{c}");
            }
            Node::Sym(id) => {
                if erase {
                    self.keys.extend_from_slice(b"$?");
                } else {
                    let _ = write!(self.keys, "${id}");
                }
            }
            Node::Neg(inner) => {
                self.keys.extend_from_slice(b"(- ");
                self.write_key(inner, erase);
                self.keys.push(b')');
            }
            Node::Bin(op, l, r) => {
                self.keys.push(b'(');
                self.keys.extend_from_slice(op.symbol().as_bytes());
                self.keys.push(b' ');
                self.write_key(l, erase);
                self.keys.push(b' ');
                self.write_key(r, erase);
                self.keys.push(b')');
            }
        }
    }

    /// Writes the key of canonical node `root` into `out`: the LHS as
    /// written, then the RHS in prefix order with the α-renaming applied.
    fn encode(&mut self, root: u32) {
        self.out.clear();
        self.tensor_numbers.clear();
        self.tensor_numbers.resize(self.tensors.len(), UNNAMED);
        self.index_numbers.clear();
        self.index_numbers.resize(self.indices.len(), UNNAMED);
        self.sym_numbers.clear();
        self.named_tensors = 0;
        self.named_indices = 0;
        let (s, e) = self.tensors[0];
        put_bytes(&mut self.out, &self.names[s as usize..e as usize]);
        put_varint(&mut self.out, self.lhs.len() as u64);
        for &id in &self.lhs {
            let (s, e) = self.indices[id as usize];
            put_bytes(&mut self.out, &self.names[s as usize..e as usize]);
        }
        self.encode_node(root);
    }

    fn encode_node(&mut self, n: u32) {
        match self.nodes[n as usize] {
            Node::Access(a) => {
                let rec = self.accesses[a as usize];
                if rec.rank < u32::from(RANK_ESCAPE) {
                    self.out.push(TAG_ACCESS | rec.rank as u8);
                } else {
                    self.out.push(TAG_ACCESS | RANK_ESCAPE);
                    put_varint(&mut self.out, u64::from(rec.rank));
                }
                // The LHS symbol on the RHS binds the output — not a free
                // slot, so it keeps its identity (code 0).
                let code = if rec.tensor == 0 {
                    0
                } else {
                    1 + number(
                        &mut self.tensor_numbers[rec.tensor as usize],
                        &mut self.named_tensors,
                    )
                };
                put_varint(&mut self.out, u64::from(code));
                for p in 0..rec.rank {
                    let id = self.access_indices[(rec.start + p) as usize];
                    // LHS indices keep their identity (even codes);
                    // summation indices are numbered (odd codes).
                    let code = if (id as usize) < self.covered.len() {
                        2 * u64::from(id)
                    } else {
                        let k = number(
                            &mut self.index_numbers[id as usize],
                            &mut self.named_indices,
                        );
                        2 * u64::from(k) + 1
                    };
                    put_varint(&mut self.out, code);
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
                self.encode_node(inner);
            }
            Node::Bin(op, l, r) => {
                let code = match op {
                    BinOp::Add => 0,
                    BinOp::Sub => 1,
                    BinOp::Mul => 2,
                    BinOp::Div => 3,
                };
                self.out.push(TAG_BIN | code);
                self.encode_node(l);
                self.encode_node(r);
            }
        }
    }

    /// Rebuilds node `n` as an expression; `accesses` is the loaded
    /// program's RHS access list.
    fn to_expr(&self, n: u32, accesses: &[&Access]) -> Expr {
        match self.nodes[n as usize] {
            Node::Access(a) => Expr::Access(accesses[a as usize].clone()),
            Node::Const(c) => Expr::Const(c),
            Node::Sym(id) => Expr::ConstSym(id),
            Node::Neg(inner) => Expr::Neg(Box::new(self.to_expr(inner, accesses))),
            Node::Bin(op, l, r) => {
                Expr::binary(op, self.to_expr(l, accesses), self.to_expr(r, accesses))
            }
        }
    }
}

/// The id of `name` in `table`, interning its bytes on first sight.
/// Tables hold a handful of names, so a linear scan wins.
fn intern(names: &mut Vec<u8>, table: &mut Vec<(u32, u32)>, name: &str) -> u32 {
    let bytes = name.as_bytes();
    if let Some(id) = table
        .iter()
        .position(|&(s, e)| &names[s as usize..e as usize] == bytes)
    {
        return id as u32;
    }
    let start = names.len() as u32;
    names.extend_from_slice(bytes);
    table.push((start, names.len() as u32));
    table.len() as u32 - 1
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
