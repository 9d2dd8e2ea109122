//! Pretty-printing of TACO programs with minimal parenthesisation.

use std::fmt;

use crate::ast::{Expr, TacoProgram};

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_expr(f, self, 0, false)
    }
}

/// Writes `expr` given the precedence of the enclosing operator and
/// whether the expression sits in the *right* operand position (where
/// equal precedence still needs parentheses for `-` and `/`).
fn write_expr(
    f: &mut fmt::Formatter<'_>,
    expr: &Expr,
    parent_prec: u8,
    right_of_non_assoc: bool,
) -> fmt::Result {
    match expr {
        Expr::Access(a) => write!(f, "{a}"),
        Expr::Const(c) => write!(f, "{c}"),
        Expr::ConstSym(_) => write!(f, "Const"),
        Expr::Neg(inner) => {
            write!(f, "-")?;
            // Negation binds tighter than any binary operator.
            match inner.as_ref() {
                Expr::Binary { .. } => {
                    write!(f, "(")?;
                    write_expr(f, inner, 0, false)?;
                    write!(f, ")")
                }
                _ => write_expr(f, inner, 3, false),
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let prec = op.precedence();
            let needs_parens = prec < parent_prec || (prec == parent_prec && right_of_non_assoc);
            if needs_parens {
                write!(f, "(")?;
            }
            write_expr(f, lhs, prec, false)?;
            write!(f, " {} ", op.symbol())?;
            // The right child needs parens at equal precedence unless the
            // operator is associative: a - (b - c) must keep its parens.
            let rhs_non_assoc = !op.is_associative();
            write_expr(f, rhs, prec, rhs_non_assoc)?;
            if needs_parens {
                write!(f, ")")?;
            }
            Ok(())
        }
    }
}

impl fmt::Display for TacoProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.lhs, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::{Access, BinOp, Expr, TacoProgram};
    use crate::parser::{parse_expr, parse_program};

    #[test]
    fn no_redundant_parens() {
        let e = parse_expr("b(i) + c(i) * d(i)").unwrap();
        assert_eq!(e.to_string(), "b(i) + c(i) * d(i)");
    }

    #[test]
    fn keeps_needed_parens() {
        let e = parse_expr("(b(i) + c(i)) * d(i)").unwrap();
        assert_eq!(e.to_string(), "(b(i) + c(i)) * d(i)");
    }

    #[test]
    fn right_assoc_sub_keeps_parens() {
        let e = Expr::binary(
            BinOp::Sub,
            Expr::access("b", &["i"]),
            Expr::binary(
                BinOp::Sub,
                Expr::access("c", &["i"]),
                Expr::access("d", &["i"]),
            ),
        );
        assert_eq!(e.to_string(), "b(i) - (c(i) - d(i))");
        // And it round-trips.
        assert_eq!(parse_expr(&e.to_string()).unwrap(), e);
    }

    #[test]
    fn assoc_add_drops_parens() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::access("b", &["i"]),
            Expr::binary(
                BinOp::Add,
                Expr::access("c", &["i"]),
                Expr::access("d", &["i"]),
            ),
        );
        // Reassociation is semantics-preserving for +, so parens may drop.
        let printed = e.to_string();
        assert_eq!(printed, "b(i) + c(i) + d(i)");
    }

    #[test]
    fn negation() {
        let e = parse_expr("-(b(i) + c(i))").unwrap();
        assert_eq!(e.to_string(), "-(b(i) + c(i))");
        let e2 = parse_expr("-b(i)").unwrap();
        assert_eq!(e2.to_string(), "-b(i)");
    }

    #[test]
    fn program_display() {
        let p = TacoProgram::new(
            Access::new("a", &["i"]),
            Expr::binary(
                BinOp::Mul,
                Expr::access("b", &["i", "j"]),
                Expr::access("c", &["j"]),
            ),
        );
        assert_eq!(p.to_string(), "a(i) = b(i,j) * c(j)");
        assert_eq!(parse_program(&p.to_string()).unwrap(), p);
    }

    #[test]
    fn const_sym_prints_as_const() {
        let p = TacoProgram::new(
            Access::new("a", &["i"]),
            Expr::binary(BinOp::Mul, Expr::access("b", &["i"]), Expr::ConstSym(0)),
        );
        assert_eq!(p.to_string(), "a(i) = b(i) * Const");
    }
}
