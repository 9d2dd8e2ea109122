//! Recursive-descent parser for the TACO grammar of Figure 5.

use std::fmt;

use crate::ast::{Access, BinOp, Expr, Ident, IndexVar, TacoProgram};
use crate::lexer::{tokenize, LexError, Token};

/// A parse error for TACO programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Lexing failed.
    Lex(LexError),
    /// The token stream ended unexpectedly.
    UnexpectedEnd,
    /// An unexpected token was found.
    Unexpected {
        /// Index of the offending token.
        position: usize,
        /// What was found.
        found: String,
        /// What the parser expected.
        expected: &'static str,
    },
    /// Extra tokens remained after a complete program.
    TrailingTokens {
        /// Index of the first extra token.
        position: usize,
    },
    /// The expression nests deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Index of the token that crossed the bound.
        position: usize,
    },
}

/// The deepest nesting the parser accepts. Each parenthesis, unary minus
/// and operator of a chain counts one level, so every expression tree it
/// returns is at most this high and every recursive walk over it stays
/// far inside a thread's stack. Real candidates nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "lex error: {e}"),
            ParseError::UnexpectedEnd => write!(f, "unexpected end of input"),
            ParseError::Unexpected {
                position,
                found,
                expected,
            } => write!(f, "expected {expected} at token {position}, found {found:?}"),
            ParseError::TrailingTokens { position } => {
                write!(f, "trailing tokens starting at token {position}")
            }
            ParseError::TooDeep { position } => {
                write!(
                    f,
                    "expression nests deeper than {MAX_DEPTH} levels at token {position}"
                )
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Enters one nesting level.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(ParseError::TooDeep { position: self.pos });
        }
        Ok(())
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Token, expected: &'static str) -> Result<(), ParseError> {
        match self.bump() {
            Some(t) if &t == want => Ok(()),
            Some(t) => Err(ParseError::Unexpected {
                position: self.pos - 1,
                found: t.to_string(),
                expected,
            }),
            None => Err(ParseError::UnexpectedEnd),
        }
    }

    fn parse_program(&mut self) -> Result<TacoProgram, ParseError> {
        let lhs = self.parse_access()?;
        self.expect(&Token::Eq, "'='")?;
        let rhs = self.parse_expr(0)?;
        if self.pos != self.tokens.len() {
            return Err(ParseError::TrailingTokens { position: self.pos });
        }
        Ok(TacoProgram::new(lhs, rhs))
    }

    /// Precedence-climbing expression parser; `min_prec` of 0 accepts any
    /// operator. `*`/`/` bind tighter than `+`/`-`; all operators are
    /// left-associative.
    fn parse_expr(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let entry = self.depth;
        let mut lhs = self.parse_factor()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            if op.precedence() < min_prec {
                break;
            }
            // Each operator of a left-associated chain deepens the tree.
            self.descend()?;
            self.bump();
            let rhs = self.parse_expr(op.precedence() + 1)?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        self.depth = entry;
        Ok(lhs)
    }

    fn parse_factor(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::Minus) => {
                self.descend()?;
                self.bump();
                let inner = self.parse_factor()?;
                self.depth -= 1;
                Ok(Expr::Neg(Box::new(inner)))
            }
            Some(Token::LParen) => {
                self.descend()?;
                self.bump();
                let inner = self.parse_expr(0)?;
                self.expect(&Token::RParen, "')'")?;
                self.depth -= 1;
                Ok(inner)
            }
            Some(Token::Int(v)) => {
                let v = *v;
                self.bump();
                Ok(Expr::Const(v))
            }
            Some(Token::Ident(_)) => {
                let acc = self.parse_access()?;
                // The reserved name `Const` denotes a symbolic constant in
                // template syntax; only a bare (unindexed) use counts.
                if acc.indices.is_empty() && acc.tensor.as_str() == "Const" {
                    Ok(Expr::ConstSym(0))
                } else {
                    Ok(Expr::Access(acc))
                }
            }
            Some(t) => Err(ParseError::Unexpected {
                position: self.pos,
                found: t.to_string(),
                expected: "expression",
            }),
            None => Err(ParseError::UnexpectedEnd),
        }
    }

    fn parse_access(&mut self) -> Result<Access, ParseError> {
        let name = match self.bump() {
            Some(Token::Ident(s)) => s,
            Some(t) => {
                return Err(ParseError::Unexpected {
                    position: self.pos - 1,
                    found: t.to_string(),
                    expected: "identifier",
                })
            }
            None => return Err(ParseError::UnexpectedEnd),
        };
        let mut indices = Vec::new();
        if self.peek() == Some(&Token::LParen) {
            self.bump();
            loop {
                match self.bump() {
                    Some(Token::Ident(ix)) => indices.push(IndexVar::new(ix)),
                    Some(t) => {
                        return Err(ParseError::Unexpected {
                            position: self.pos - 1,
                            found: t.to_string(),
                            expected: "index variable",
                        })
                    }
                    None => return Err(ParseError::UnexpectedEnd),
                }
                match self.bump() {
                    Some(Token::Comma) => continue,
                    Some(Token::RParen) => break,
                    Some(t) => {
                        return Err(ParseError::Unexpected {
                            position: self.pos - 1,
                            found: t.to_string(),
                            expected: "',' or ')'",
                        })
                    }
                    None => return Err(ParseError::UnexpectedEnd),
                }
            }
        }
        Ok(Access {
            tensor: Ident::new(name),
            indices,
        })
    }
}

/// Parses a complete TACO program `lhs = rhs`.
///
/// ```
/// use gtl_taco::parse_program;
/// let p = parse_program("a(i) = b(i,j) * c(j)").unwrap();
/// assert_eq!(p.lhs.tensor.as_str(), "a");
/// assert_eq!(p.dimension_list(), vec![1, 2, 1]);
/// ```
pub fn parse_program(input: &str) -> Result<TacoProgram, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser::new(tokens);
    p.parse_program()
}

/// Parses a TACO expression (the right-hand side only).
pub fn parse_expr(input: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser::new(tokens);
    let e = p.parse_expr(0)?;
    if p.pos != p.tokens.len() {
        return Err(ParseError::TrailingTokens { position: p.pos });
    }
    Ok(e)
}

/// Normalises raw LLM output lines before parsing (§4.2): swaps `:=` for
/// `=`, strips list markup (leading numbering, quotes, trailing commas and
/// semicolons) and unifies the Unicode minus sign.
///
/// Returns `None` for lines that are clearly not candidate expressions
/// (empty lines, brackets of a JSON-ish list).
///
/// ```
/// use gtl_taco::preprocess_candidate;
/// assert_eq!(
///     preprocess_candidate("3. Result(i) := Mat1(f,i) * Mat2(i),").as_deref(),
///     Some("Result(i) = Mat1(f,i) * Mat2(i)")
/// );
/// assert_eq!(preprocess_candidate("["), None);
/// ```
pub fn preprocess_candidate(line: &str) -> Option<String> {
    let mut s = line.trim().to_string();
    if s.is_empty() || s == "[" || s == "]" {
        return None;
    }
    // Strip leading list numbering: "3.", "3)", "-", "*" followed by space.
    let bytes: Vec<char> = s.chars().collect();
    let mut start = 0;
    while start < bytes.len() && bytes[start].is_ascii_digit() {
        start += 1;
    }
    if start > 0 && start < bytes.len() && (bytes[start] == '.' || bytes[start] == ')') {
        s = bytes[start + 1..].iter().collect::<String>().trim_start().to_string();
    } else if s.starts_with("- ") || s.starts_with("* ") {
        s = s[2..].trim_start().to_string();
    }
    // Strip quoting and trailing separators, repeating until stable since
    // they may nest ("expr"; or 'expr',).
    let mut t = s.as_str();
    loop {
        let trimmed = t
            .trim()
            .trim_matches(|c| c == '"' || c == '\'' || c == '`')
            .trim_end_matches([',', ';']);
        if trimmed == t {
            break;
        }
        t = trimmed;
    }
    let s = t.replace(":=", "=").replace('\u{2212}', "-");
    if s.is_empty() {
        return None;
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Operand;

    #[test]
    fn parses_figure2_solution() {
        let p = parse_program("Result(i) = Mat1(i,j) * Mat2(j)").unwrap();
        assert_eq!(p.lhs.indices.len(), 1);
        assert_eq!(p.rhs.accesses().len(), 2);
    }

    #[test]
    fn precedence() {
        // b + c * d parses as b + (c * d)
        let e = parse_expr("b(i) + c(i) * d(i)").unwrap();
        match e {
            Expr::Binary { op, rhs, .. } => {
                assert_eq!(op, BinOp::Add);
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parentheses_override_precedence() {
        let e = parse_expr("(b(i) + c(i)) * d(i)").unwrap();
        match e {
            Expr::Binary { op, lhs, .. } => {
                assert_eq!(op, BinOp::Mul);
                assert!(matches!(*lhs, Expr::Binary { op: BinOp::Add, .. }));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn left_associativity() {
        // b - c - d parses as (b - c) - d
        let e = parse_expr("b(i) - c(i) - d(i)").unwrap();
        match e {
            Expr::Binary { op, lhs, rhs } => {
                assert_eq!(op, BinOp::Sub);
                assert!(matches!(*lhs, Expr::Binary { op: BinOp::Sub, .. }));
                assert!(matches!(*rhs, Expr::Access(_)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn unary_negation() {
        let e = parse_expr("-b(i)").unwrap();
        assert!(matches!(e, Expr::Neg(_)));
    }

    #[test]
    fn scalar_access_and_constant() {
        let p = parse_program("a = b(i) / 2").unwrap();
        assert_eq!(p.lhs.rank(), 0);
        let ops = p.rhs.operands();
        assert!(matches!(ops[1], Operand::Const(2)));
    }

    #[test]
    fn const_keyword_becomes_symbolic() {
        let p = parse_program("a(i) = b(i) * Const").unwrap();
        assert!(p.rhs.has_const_sym());
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_program("a(i) =").is_err());
        assert!(parse_program("a(i) b(i)").is_err());
        assert!(parse_program("a(i) = b(i) extra(j)").is_err());
        assert!(parse_program("a(1) = b(i)").is_err()); // integer index
        assert!(parse_program("= b(i)").is_err());
    }

    #[test]
    fn preprocess_variants() {
        assert_eq!(
            preprocess_candidate("  r(f) = m1(i, f) * m2(f)  ").as_deref(),
            Some("r(f) = m1(i, f) * m2(f)")
        );
        assert_eq!(
            preprocess_candidate("2) \"a(i) := b(i)\";").as_deref(),
            Some("a(i) = b(i)")
        );
        assert_eq!(preprocess_candidate(""), None);
    }

    #[test]
    fn roundtrip_display_parse() {
        let src = "a(i) = b(i,j) * c(j) + d(i) / 3";
        let p = parse_program(src).unwrap();
        let printed = p.to_string();
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p, p2);
    }
}
