//! The string-keyed canonical form: the executable specification of
//! [`super::CanonEncoder`].
//!
//! [`canonical_key`] canonicalizes by building a new tree, α-renames it
//! into `String`s and prints it. The production encoder reaches the same
//! equivalence classes without any of that; differential tests check
//! that two programs get equal encoder keys exactly when their
//! [`canonical_key`]s are equal, and that [`super::canonicalize`] builds
//! the same tree as [`canonicalize`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::ast::{Access, BinOp, Expr, Ident, IndexVar, TacoProgram};

/// Canonicalizes a whole program (the LHS is already canonical by
/// construction; only the RHS is rewritten).
pub fn canonicalize(program: &TacoProgram) -> TacoProgram {
    TacoProgram {
        lhs: program.lhs.clone(),
        rhs: canonicalize_expr(&program.rhs),
    }
}

/// Canonicalizes one expression (see [`super`] for the rule set).
fn canonicalize_expr(expr: &Expr) -> Expr {
    match expr {
        Expr::Access(_) | Expr::Const(_) | Expr::ConstSym(_) => expr.clone(),
        Expr::Neg(inner) => match canonicalize_expr(inner) {
            // --x → x.
            Expr::Neg(e) => *e,
            Expr::Const(c) => match c.checked_neg() {
                Some(n) => Expr::Const(n),
                None => Expr::Neg(Box::new(Expr::Const(c))),
            },
            e => Expr::Neg(Box::new(e)),
        },
        Expr::Binary { op, .. } if op.is_associative() => canonicalize_chain(*op, expr),
        Expr::Binary { op, lhs, rhs } => {
            let l = canonicalize_expr(lhs);
            let r = canonicalize_expr(rhs);
            match (*op, &l, &r) {
                (BinOp::Sub, _, Expr::Const(0)) => l,
                (BinOp::Sub, Expr::Const(0), _) => canonicalize_expr(&Expr::Neg(Box::new(r))),
                (BinOp::Sub, Expr::Const(a), Expr::Const(b)) => match a.checked_sub(*b) {
                    Some(v) => Expr::Const(v),
                    None => Expr::binary(BinOp::Sub, l, r),
                },
                (BinOp::Div, _, Expr::Const(1)) => l,
                (BinOp::Div, Expr::Const(a), Expr::Const(b))
                    if *b != 0 && a.checked_rem(*b) == Some(0) =>
                {
                    Expr::Const(a / b)
                }
                _ => Expr::binary(*op, l, r),
            }
        }
    }
}

/// Flattens a `+` or `*` chain, folds constants, eliminates neutral
/// elements, sorts the remaining operands, and rebuilds left-associated.
fn canonicalize_chain(op: BinOp, expr: &Expr) -> Expr {
    let mut raw = Vec::new();
    flatten(op, expr, &mut raw);
    // Canonicalizing an operand can surface a nested same-op chain
    // (e.g. after `--(b + c) → b + c`); re-flatten so it merges.
    let mut operands: Vec<Expr> = Vec::new();
    for e in &raw {
        flatten_owned(op, canonicalize_expr(e), &mut operands);
    }

    // Fold every constant leaf into one coefficient; abort the fold on
    // i64 overflow (the constants then stay as ordinary operands).
    let identity: i64 = if op == BinOp::Add { 0 } else { 1 };
    let mut folded: Option<i64> = Some(identity);
    for e in &operands {
        if let Expr::Const(c) = e {
            folded = folded.and_then(|acc| {
                if op == BinOp::Add {
                    acc.checked_add(*c)
                } else {
                    acc.checked_mul(*c)
                }
            });
        }
    }

    let mut rest: Vec<Expr> = Vec::new();
    let mut neg_parity = false;
    for e in operands {
        match e {
            Expr::Const(_) if folded.is_some() => {}
            // Pull factor signs into the coefficient: (-x)·y = -(x·y).
            Expr::Neg(inner) if op == BinOp::Mul => {
                neg_parity = !neg_parity;
                rest.push(*inner);
            }
            e => rest.push(e),
        }
    }
    // Primary sort key erases names so α-equivalent chains order their
    // operands identically before renaming; the full key breaks ties
    // deterministically.
    let mut keyed: Vec<(String, String, Expr)> = rest
        .into_iter()
        .map(|e| (erased_key(&e), expr_key(&e), e))
        .collect();
    keyed.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    let rest: Vec<Expr> = keyed.into_iter().map(|(_, _, e)| e).collect();

    let mut coeff = folded;
    if neg_parity {
        match coeff.and_then(i64::checked_neg) {
            Some(c) => {
                coeff = Some(c);
                neg_parity = false;
            }
            None => coeff = folded,
        }
    }

    let mut parts: Vec<Expr> = Vec::new();
    match coeff {
        // Keep the coefficient unless it is the neutral element (or the
        // chain would otherwise be empty). Coefficient first for `*`
        // (`2 * b(i)`), last for `+` (`b(i) + 2`).
        Some(c) if c != identity || rest.is_empty() => {
            if op == BinOp::Mul {
                parts.push(Expr::Const(c));
                parts.extend(rest);
            } else {
                parts.extend(rest);
                parts.push(Expr::Const(c));
            }
        }
        _ => parts.extend(rest),
    }

    let mut it = parts.into_iter();
    let first = it.next().expect("chain has at least one operand");
    let mut out = it.fold(first, |acc, e| Expr::binary(op, acc, e));
    if neg_parity {
        out = Expr::Neg(Box::new(out));
    }
    out
}

fn flatten<'a>(op: BinOp, expr: &'a Expr, out: &mut Vec<&'a Expr>) {
    match expr {
        Expr::Binary {
            op: o, lhs, rhs, ..
        } if *o == op => {
            flatten(op, lhs, out);
            flatten(op, rhs, out);
        }
        _ => out.push(expr),
    }
}

fn flatten_owned(op: BinOp, expr: Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Binary {
            op: o, lhs, rhs, ..
        } if o == op => {
            flatten_owned(op, *lhs, out);
            flatten_owned(op, *rhs, out);
        }
        e => out.push(e),
    }
}

/// An unambiguous serialization used as the commutative sort key and as
/// the fingerprint payload. Unlike `Display`, it keeps `Const` slot
/// ids (`Const` erases them), so templates that constrain two slots to
/// the same constant never collide with templates that keep them free.
pub(crate) fn expr_key(expr: &Expr) -> String {
    let mut s = String::new();
    write_key_impl(expr, &mut s, false);
    s
}

/// Like [`expr_key`] but with tensor names, index names, and `Const`
/// slot ids blanked out — two α-equivalent operands get equal erased
/// keys, so they sort into the same chain position before renaming.
pub(crate) fn erased_key(expr: &Expr) -> String {
    let mut s = String::new();
    write_key_impl(expr, &mut s, true);
    s
}

fn write_key(expr: &Expr, out: &mut String) {
    write_key_impl(expr, out, false);
}

fn write_key_impl(expr: &Expr, out: &mut String, erase: bool) {
    match expr {
        Expr::Access(a) => {
            out.push_str(if erase { "?" } else { a.tensor.as_str() });
            out.push('(');
            for (n, ix) in a.indices.iter().enumerate() {
                if n > 0 {
                    out.push(',');
                }
                out.push_str(if erase { "?" } else { ix.as_str() });
            }
            out.push(')');
        }
        Expr::Const(c) => {
            let _ = write!(out, "#{c}");
        }
        Expr::ConstSym(id) => {
            if erase {
                out.push_str("$?");
            } else {
                let _ = write!(out, "${id}");
            }
        }
        Expr::Neg(inner) => {
            out.push_str("(- ");
            write_key_impl(inner, out, erase);
            out.push(')');
        }
        Expr::Binary { op, lhs, rhs } => {
            out.push('(');
            out.push_str(op.symbol());
            out.push(' ');
            write_key_impl(lhs, out, erase);
            out.push(' ');
            write_key_impl(rhs, out, erase);
            out.push(')');
        }
    }
}

/// The canonical key of a program: canonicalized, then α-renamed (RHS
/// tensor slots → `$t0…`, summation indices → `$s0…`, `Const` slot ids
/// renumbered, all by first appearance in the canonical form) and
/// serialized. Two templates with equal keys enumerate identical
/// substitution sets.
pub fn canonical_key(program: &TacoProgram) -> String {
    let canon = canonicalize(program);
    let renamed = alpha_rename(&canon);
    let mut s = String::new();
    s.push_str(renamed.lhs.tensor.as_str());
    s.push('(');
    for (n, ix) in renamed.lhs.indices.iter().enumerate() {
        if n > 0 {
            s.push(',');
        }
        s.push_str(ix.as_str());
    }
    s.push_str(")=");
    write_key(&renamed.rhs, &mut s);
    s
}

struct Renamer {
    lhs_tensor: String,
    lhs_indices: Vec<IndexVar>,
    tensors: BTreeMap<String, String>,
    indices: BTreeMap<String, String>,
    syms: BTreeMap<u32, u32>,
}

impl Renamer {
    fn tensor(&mut self, name: &str) -> Ident {
        if name == self.lhs_tensor {
            // The LHS symbol on the RHS binds the output — not a free
            // slot, so it keeps its identity.
            return Ident::new(name);
        }
        let next = format!("$t{}", self.tensors.len());
        Ident::new(self.tensors.entry(name.to_string()).or_insert(next).clone())
    }

    fn index(&mut self, ix: &IndexVar) -> IndexVar {
        if self.lhs_indices.contains(ix) {
            return ix.clone();
        }
        let next = format!("$s{}", self.indices.len());
        IndexVar::new(
            self.indices
                .entry(ix.as_str().to_string())
                .or_insert(next)
                .clone(),
        )
    }

    fn sym(&mut self, id: u32) -> u32 {
        let next = self.syms.len() as u32;
        *self.syms.entry(id).or_insert(next)
    }

    fn expr(&mut self, e: &Expr) -> Expr {
        match e {
            Expr::Access(a) => Expr::Access(Access {
                tensor: self.tensor(a.tensor.as_str()),
                indices: a.indices.iter().map(|ix| self.index(ix)).collect(),
            }),
            Expr::Const(c) => Expr::Const(*c),
            Expr::ConstSym(id) => Expr::ConstSym(self.sym(*id)),
            Expr::Neg(inner) => Expr::Neg(Box::new(self.expr(inner))),
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(self.expr(lhs)),
                rhs: Box::new(self.expr(rhs)),
            },
        }
    }
}

fn alpha_rename(program: &TacoProgram) -> TacoProgram {
    let mut r = Renamer {
        lhs_tensor: program.lhs.tensor.as_str().to_string(),
        lhs_indices: program.lhs.indices.clone(),
        tensors: BTreeMap::new(),
        indices: BTreeMap::new(),
        syms: BTreeMap::new(),
    };
    TacoProgram {
        lhs: program.lhs.clone(),
        rhs: r.expr(&program.rhs),
    }
}
