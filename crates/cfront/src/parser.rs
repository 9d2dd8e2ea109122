//! Recursive-descent parser for the C subset.

use std::fmt;

use crate::ast::{AssignOp, CBinOp, CExpr, CProgram, CType, Function, NumType, Param, Stmt, UnOp};
use crate::lexer::{tokenize_c, CLexError, CTok};

/// A parse error for C sources.
#[derive(Debug, Clone, PartialEq)]
pub enum CParseError {
    /// Lexing failed.
    Lex(CLexError),
    /// The token stream ended unexpectedly.
    UnexpectedEnd,
    /// An unexpected token was found.
    Unexpected {
        /// Token index.
        position: usize,
        /// What was found.
        found: String,
        /// What was expected.
        expected: String,
    },
    /// The assignment target is not an lvalue.
    NotAnLvalue {
        /// Token index of the assignment operator.
        position: usize,
    },
    /// Statements or expressions nest deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Token index where the bound was crossed.
        position: usize,
    },
}

/// The deepest nesting the parser accepts. Each nested statement,
/// expression, parenthesis, unary or cast operator and operator of a
/// chain counts one level, so every tree it returns is at most this high
/// and every recursive walk over it (analysis, compilation, execution)
/// stays far inside a thread's stack. Real kernels nest a few dozen
/// levels at most.
pub const MAX_DEPTH: usize = 128;

impl fmt::Display for CParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CParseError::Lex(e) => write!(f, "lex error: {e}"),
            CParseError::UnexpectedEnd => write!(f, "unexpected end of input"),
            CParseError::Unexpected {
                position,
                found,
                expected,
            } => write!(f, "expected {expected} at token {position}, found {found:?}"),
            CParseError::NotAnLvalue { position } => {
                write!(f, "assignment target at token {position} is not an lvalue")
            }
            CParseError::TooDeep { position } => {
                write!(
                    f,
                    "nesting deeper than {MAX_DEPTH} levels at token {position}"
                )
            }
        }
    }
}

impl std::error::Error for CParseError {}

impl From<CLexError> for CParseError {
    fn from(e: CLexError) -> Self {
        CParseError::Lex(e)
    }
}

const TYPE_KEYWORDS: [&str; 4] = ["void", "int", "float", "double"];

struct Parser {
    toks: Vec<CTok>,
    pos: usize,
    /// Current nesting, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser {
    /// Enters one nesting level.
    fn descend(&mut self) -> Result<(), CParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(CParseError::TooDeep { position: self.pos });
        }
        Ok(())
    }

    /// Runs `parse` one nesting level down.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Parser) -> Result<T, CParseError>,
    ) -> Result<T, CParseError> {
        self.descend()?;
        let out = parse(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn peek(&self) -> Option<&CTok> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, n: usize) -> Option<&CTok> {
        self.toks.get(self.pos + n)
    }

    fn bump(&mut self) -> Option<CTok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &CTok, expected: &str) -> Result<(), CParseError> {
        match self.bump() {
            Some(t) if &t == want => Ok(()),
            Some(t) => Err(self.unexpected_at(self.pos - 1, &t, expected)),
            None => Err(CParseError::UnexpectedEnd),
        }
    }

    fn unexpected_at(&self, position: usize, found: &CTok, expected: &str) -> CParseError {
        CParseError::Unexpected {
            position,
            found: found.to_string(),
            expected: expected.to_string(),
        }
    }

    fn is_type_keyword(&self, n: usize) -> bool {
        matches!(self.peek_at(n), Some(CTok::Ident(s))
            if TYPE_KEYWORDS.contains(&s.as_str()) || s == "const")
    }

    /// Parses `['const'] base-type '*'*`; `void` only valid with
    /// `allow_void`.
    fn parse_type(&mut self, allow_void: bool) -> Result<Option<CType>, CParseError> {
        // Skip `const` qualifiers.
        while matches!(self.peek(), Some(CTok::Ident(s)) if s == "const") {
            self.bump();
        }
        let base = match self.bump() {
            Some(CTok::Ident(s)) => s,
            Some(t) => return Err(self.unexpected_at(self.pos - 1, &t, "type name")),
            None => return Err(CParseError::UnexpectedEnd),
        };
        let num = match base.as_str() {
            "int" => Some(NumType::Int),
            "float" => Some(NumType::Float),
            "double" => Some(NumType::Double),
            "void" if allow_void => None,
            other => {
                return Err(CParseError::Unexpected {
                    position: self.pos - 1,
                    found: other.to_string(),
                    expected: "type name".to_string(),
                })
            }
        };
        // Skip more `const` after the base type.
        while matches!(self.peek(), Some(CTok::Ident(s)) if s == "const") {
            self.bump();
        }
        let mut ptr = false;
        while self.peek() == Some(&CTok::Star) {
            self.bump();
            ptr = true;
        }
        Ok(match (num, ptr) {
            (None, _) => None,
            (Some(n), true) => Some(CType::Ptr(n)),
            (Some(n), false) => Some(CType::Num(n)),
        })
    }

    fn parse_function(&mut self) -> Result<Function, CParseError> {
        let ret = self.parse_type(true)?;
        let name = match self.bump() {
            Some(CTok::Ident(s)) => s,
            Some(t) => return Err(self.unexpected_at(self.pos - 1, &t, "function name")),
            None => return Err(CParseError::UnexpectedEnd),
        };
        self.expect(&CTok::LParen, "'('")?;
        let mut params = Vec::new();
        if self.peek() != Some(&CTok::RParen) {
            loop {
                // Tolerate `void` as the entire parameter list.
                if params.is_empty()
                    && matches!(self.peek(), Some(CTok::Ident(s)) if s == "void")
                    && self.peek_at(1) == Some(&CTok::RParen)
                {
                    self.bump();
                    break;
                }
                let ty = self
                    .parse_type(false)?
                    .expect("parse_type(false) never yields void");
                let pname = match self.bump() {
                    Some(CTok::Ident(s)) => s,
                    Some(t) => return Err(self.unexpected_at(self.pos - 1, &t, "parameter name")),
                    None => return Err(CParseError::UnexpectedEnd),
                };
                // Array-style parameter `int a[]` is a pointer.
                let ty = if self.peek() == Some(&CTok::LBracket) {
                    self.bump();
                    // Tolerate a fixed size inside the brackets.
                    if let Some(CTok::Int(_)) = self.peek() {
                        self.bump();
                    }
                    self.expect(&CTok::RBracket, "']'")?;
                    match ty {
                        CType::Num(n) => CType::Ptr(n),
                        p => p,
                    }
                } else {
                    ty
                };
                params.push(Param { name: pname, ty });
                match self.peek() {
                    Some(CTok::Comma) => {
                        self.bump();
                    }
                    _ => break,
                }
            }
        }
        self.expect(&CTok::RParen, "')'")?;
        self.expect(&CTok::LBrace, "'{'")?;
        let body = self.parse_block_body()?;
        Ok(Function {
            name,
            ret,
            params,
            body,
        })
    }

    /// Parses statements until the matching `}` (which is consumed).
    fn parse_block_body(&mut self) -> Result<Vec<Stmt>, CParseError> {
        let mut body = Vec::new();
        loop {
            match self.peek() {
                Some(CTok::RBrace) => {
                    self.bump();
                    return Ok(body);
                }
                Some(_) => body.push(self.parse_stmt()?),
                None => return Err(CParseError::UnexpectedEnd),
            }
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt, CParseError> {
        self.nested(Parser::parse_stmt_inner)
    }

    fn parse_stmt_inner(&mut self) -> Result<Stmt, CParseError> {
        match self.peek() {
            Some(CTok::LBrace) => {
                self.bump();
                Ok(Stmt::Block(self.parse_block_body()?))
            }
            Some(CTok::Ident(s)) if s == "for" => self.parse_for(),
            Some(CTok::Ident(s)) if s == "while" => self.parse_while(),
            Some(CTok::Ident(s)) if s == "if" => self.parse_if(),
            Some(CTok::Ident(s)) if s == "return" => {
                self.bump();
                if self.peek() == Some(&CTok::Semi) {
                    self.bump();
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.parse_expr()?;
                    self.expect(&CTok::Semi, "';'")?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            Some(_) if self.is_type_keyword(0) => {
                let decls = self.parse_decl()?;
                self.expect(&CTok::Semi, "';'")?;
                Ok(flatten_decls(decls))
            }
            Some(_) => {
                let e = self.parse_expr()?;
                self.expect(&CTok::Semi, "';'")?;
                Ok(Stmt::Expr(e))
            }
            None => Err(CParseError::UnexpectedEnd),
        }
    }

    /// Parses `type declarator (',' declarator)*` without the trailing
    /// `;`. Each declarator may add pointer stars and an initialiser:
    /// `int *p = a, i, f = 0;`
    fn parse_decl(&mut self) -> Result<Vec<Stmt>, CParseError> {
        // Parse the base type without consuming declarator stars: we peel
        // `const` and the base name here, stars per-declarator below.
        while matches!(self.peek(), Some(CTok::Ident(s)) if s == "const") {
            self.bump();
        }
        let base = match self.bump() {
            Some(CTok::Ident(s)) => s,
            Some(t) => return Err(self.unexpected_at(self.pos - 1, &t, "type name")),
            None => return Err(CParseError::UnexpectedEnd),
        };
        let num = match base.as_str() {
            "int" => NumType::Int,
            "float" => NumType::Float,
            "double" => NumType::Double,
            other => {
                return Err(CParseError::Unexpected {
                    position: self.pos - 1,
                    found: other.to_string(),
                    expected: "non-void type".to_string(),
                })
            }
        };
        let mut out = Vec::new();
        loop {
            let mut ptr = false;
            while self.peek() == Some(&CTok::Star) {
                self.bump();
                ptr = true;
            }
            let name = match self.bump() {
                Some(CTok::Ident(s)) => s,
                Some(t) => return Err(self.unexpected_at(self.pos - 1, &t, "variable name")),
                None => return Err(CParseError::UnexpectedEnd),
            };
            let init = if self.peek() == Some(&CTok::Eq) {
                self.bump();
                Some(self.parse_assign()?)
            } else {
                None
            };
            out.push(Stmt::Decl {
                name,
                ty: if ptr { CType::Ptr(num) } else { CType::Num(num) },
                init,
            });
            match self.peek() {
                Some(CTok::Comma) => {
                    self.bump();
                }
                _ => break,
            }
        }
        Ok(out)
    }

    fn parse_for(&mut self) -> Result<Stmt, CParseError> {
        self.bump(); // `for`
        self.expect(&CTok::LParen, "'('")?;
        let init = if self.peek() == Some(&CTok::Semi) {
            self.bump();
            None
        } else if self.is_type_keyword(0) {
            let decls = self.parse_decl()?;
            self.expect(&CTok::Semi, "';'")?;
            Some(Box::new(flatten_decls(decls)))
        } else {
            let e = self.parse_expr()?;
            self.expect(&CTok::Semi, "';'")?;
            Some(Box::new(Stmt::Expr(e)))
        };
        let cond = if self.peek() == Some(&CTok::Semi) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect(&CTok::Semi, "';'")?;
        let step = if self.peek() == Some(&CTok::RParen) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect(&CTok::RParen, "')'")?;
        let body = self.parse_loop_body()?;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
        })
    }

    fn parse_while(&mut self) -> Result<Stmt, CParseError> {
        self.bump(); // `while`
        self.expect(&CTok::LParen, "'('")?;
        let cond = self.parse_expr()?;
        self.expect(&CTok::RParen, "')'")?;
        let body = self.parse_loop_body()?;
        Ok(Stmt::While { cond, body })
    }

    fn parse_if(&mut self) -> Result<Stmt, CParseError> {
        self.bump(); // `if`
        self.expect(&CTok::LParen, "'('")?;
        let cond = self.parse_expr()?;
        self.expect(&CTok::RParen, "')'")?;
        let then_body = self.parse_loop_body()?;
        let else_body = if matches!(self.peek(), Some(CTok::Ident(s)) if s == "else") {
            self.bump();
            self.parse_loop_body()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
        })
    }

    /// A loop/branch body: either a braced block or a single statement.
    fn parse_loop_body(&mut self) -> Result<Vec<Stmt>, CParseError> {
        if self.peek() == Some(&CTok::LBrace) {
            self.bump();
            self.parse_block_body()
        } else {
            Ok(vec![self.parse_stmt()?])
        }
    }

    fn parse_expr(&mut self) -> Result<CExpr, CParseError> {
        self.nested(Parser::parse_assign)
    }

    fn parse_assign(&mut self) -> Result<CExpr, CParseError> {
        let lhs = self.parse_ternary()?;
        let op = match self.peek() {
            Some(CTok::Eq) => AssignOp::Assign,
            Some(CTok::PlusEq) => AssignOp::AddAssign,
            Some(CTok::MinusEq) => AssignOp::SubAssign,
            Some(CTok::StarEq) => AssignOp::MulAssign,
            Some(CTok::SlashEq) => AssignOp::DivAssign,
            _ => return Ok(lhs),
        };
        let op_pos = self.pos;
        if !is_lvalue(&lhs) {
            return Err(CParseError::NotAnLvalue { position: op_pos });
        }
        self.bump();
        let rhs = self.nested(Parser::parse_assign)?;
        Ok(CExpr::Assign {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn parse_ternary(&mut self) -> Result<CExpr, CParseError> {
        let cond = self.parse_binary(0)?;
        if self.peek() == Some(&CTok::Question) {
            self.bump();
            let then_val = self.parse_expr()?;
            self.expect(&CTok::Colon, "':'")?;
            let else_val = self.nested(Parser::parse_ternary)?;
            Ok(CExpr::Ternary {
                cond: Box::new(cond),
                then_val: Box::new(then_val),
                else_val: Box::new(else_val),
            })
        } else {
            Ok(cond)
        }
    }

    /// Precedence-climbing over the binary operators.
    fn parse_binary(&mut self, min_prec: u8) -> Result<CExpr, CParseError> {
        let entry = self.depth;
        let mut lhs = self.parse_unary()?;
        loop {
            let (op, prec) = match self.peek() {
                Some(CTok::OrOr) => (CBinOp::Or, 1),
                Some(CTok::AndAnd) => (CBinOp::And, 2),
                Some(CTok::EqEq) => (CBinOp::EqEq, 3),
                Some(CTok::Ne) => (CBinOp::Ne, 3),
                Some(CTok::Lt) => (CBinOp::Lt, 4),
                Some(CTok::Le) => (CBinOp::Le, 4),
                Some(CTok::Gt) => (CBinOp::Gt, 4),
                Some(CTok::Ge) => (CBinOp::Ge, 4),
                Some(CTok::Plus) => (CBinOp::Add, 5),
                Some(CTok::Minus) => (CBinOp::Sub, 5),
                Some(CTok::Star) => (CBinOp::Mul, 6),
                Some(CTok::Slash) => (CBinOp::Div, 6),
                Some(CTok::Percent) => (CBinOp::Rem, 6),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            // Each operator of a left-associated chain deepens the tree.
            self.descend()?;
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            lhs = CExpr::binary(op, lhs, rhs);
        }
        self.depth = entry;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<CExpr, CParseError> {
        match self.peek() {
            Some(CTok::Minus | CTok::Star | CTok::Amp | CTok::Bang) => {
                self.nested(Parser::parse_unary_inner)
            }
            Some(CTok::LParen) if self.is_type_keyword(1) => self.nested(Parser::parse_unary_inner),
            _ => self.parse_postfix(),
        }
    }

    fn parse_unary_inner(&mut self) -> Result<CExpr, CParseError> {
        match self.peek() {
            Some(CTok::Minus) => {
                self.bump();
                Ok(CExpr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(self.parse_unary()?),
                })
            }
            Some(CTok::Star) => {
                self.bump();
                Ok(CExpr::Unary {
                    op: UnOp::Deref,
                    expr: Box::new(self.parse_unary()?),
                })
            }
            Some(CTok::Amp) => {
                self.bump();
                Ok(CExpr::Unary {
                    op: UnOp::AddrOf,
                    expr: Box::new(self.parse_unary()?),
                })
            }
            Some(CTok::Bang) => {
                self.bump();
                Ok(CExpr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(self.parse_unary()?),
                })
            }
            // Cast: '(' type ')' unary.
            Some(CTok::LParen) if self.is_type_keyword(1) => {
                self.bump();
                let ty = self
                    .parse_type(false)?
                    .expect("cast to void not permitted by parse_type(false)");
                self.expect(&CTok::RParen, "')'")?;
                Ok(CExpr::Cast {
                    ty,
                    expr: Box::new(self.parse_unary()?),
                })
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> Result<CExpr, CParseError> {
        let mut e = self.parse_primary()?;
        loop {
            match self.peek() {
                Some(CTok::LBracket) => {
                    self.bump();
                    let idx = self.parse_expr()?;
                    self.expect(&CTok::RBracket, "']'")?;
                    e = CExpr::Index {
                        base: Box::new(e),
                        index: Box::new(idx),
                    };
                }
                Some(CTok::PlusPlus) => {
                    self.bump();
                    e = CExpr::PostInc(Box::new(e));
                }
                Some(CTok::MinusMinus) => {
                    self.bump();
                    e = CExpr::PostDec(Box::new(e));
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> Result<CExpr, CParseError> {
        match self.bump() {
            Some(CTok::Int(v)) => Ok(CExpr::IntLit(v)),
            Some(CTok::Float {
                mantissa,
                frac_digits,
            }) => Ok(CExpr::FloatLit {
                mantissa,
                frac_digits,
            }),
            Some(CTok::Ident(s)) => Ok(CExpr::Var(s)),
            Some(CTok::LParen) => {
                let e = self.parse_expr()?;
                self.expect(&CTok::RParen, "')'")?;
                Ok(e)
            }
            Some(t) => Err(self.unexpected_at(self.pos - 1, &t, "expression")),
            None => Err(CParseError::UnexpectedEnd),
        }
    }
}

/// Wraps multiple declarations from one statement into a single `Stmt`.
fn flatten_decls(mut decls: Vec<Stmt>) -> Stmt {
    if decls.len() == 1 {
        decls.pop().expect("length checked")
    } else {
        Stmt::Multi(decls)
    }
}

fn is_lvalue(e: &CExpr) -> bool {
    matches!(
        e,
        CExpr::Var(_)
            | CExpr::Index { .. }
            | CExpr::Unary {
                op: UnOp::Deref,
                ..
            }
    )
}

/// Parses a C translation unit (one or more function definitions).
///
/// ```
/// use gtl_cfront::parse_c;
/// let p = parse_c("void f(int N, int *a) { for (int i = 0; i < N; i++) a[i] = 0; }").unwrap();
/// assert_eq!(p.kernel().params.len(), 2);
/// ```
pub fn parse_c(src: &str) -> Result<CProgram, CParseError> {
    let toks = tokenize_c(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let mut functions = Vec::new();
    while p.peek().is_some() {
        functions.push(p.parse_function()?);
    }
    if functions.is_empty() {
        return Err(CParseError::UnexpectedEnd);
    }
    Ok(CProgram { functions })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2 kernel, verbatim modulo whitespace.
    const FIGURE2: &str = r#"
void function(int N, int *Mat1, int *Mat2, int *Result) {
    int *p_m1;
    int *p_m2;
    int *p_t;
    int i, f;
    p_m1 = Mat1;
    p_t = Result;
    for (f = 0; f < N; f++) {
        *p_t = 0;
        p_m2 = &Mat2[0];
        for (i = 0; i < N; i++)
            *p_t += *p_m1++ * *p_m2++;
        p_t++;
    }
}
"#;

    #[test]
    fn parses_figure2() {
        let p = parse_c(FIGURE2).unwrap();
        let f = p.kernel();
        assert_eq!(f.name, "function");
        assert_eq!(f.params.len(), 4);
        assert_eq!(f.params[0].ty, CType::Num(NumType::Int));
        assert_eq!(f.params[1].ty, CType::Ptr(NumType::Int));
        // Body: 4 decl statements (one is a block of 2), 2 assignments, 1 for.
        assert!(matches!(f.body.last(), Some(Stmt::For { .. })));
    }

    #[test]
    fn multi_declarator() {
        let p = parse_c("void f() { int i, f; }").unwrap();
        match &p.kernel().body[0] {
            Stmt::Multi(ds) => assert_eq!(ds.len(), 2),
            other => panic!("expected multi-decl, got {other:?}"),
        }
    }

    #[test]
    fn pointer_and_value_mix() {
        let p = parse_c("void f() { int *p, q; }").unwrap();
        match &p.kernel().body[0] {
            Stmt::Multi(ds) => {
                assert!(
                    matches!(&ds[0], Stmt::Decl { ty: CType::Ptr(_), .. }),
                    "first is pointer"
                );
                assert!(
                    matches!(&ds[1], Stmt::Decl { ty: CType::Num(_), .. }),
                    "second is value"
                );
            }
            other => panic!("expected multi-decl, got {other:?}"),
        }
    }

    #[test]
    fn precedence_and_indexing() {
        let p = parse_c("void f(int N, int *a, int *b) { a[2*N+1] = b[N] + 3 * 4; }").unwrap();
        match &p.kernel().body[0] {
            Stmt::Expr(CExpr::Assign { lhs, rhs, .. }) => {
                assert!(matches!(**lhs, CExpr::Index { .. }));
                match &**rhs {
                    CExpr::Binary { op, .. } => assert_eq!(*op, CBinOp::Add),
                    other => panic!("expected add, got {other:?}"),
                }
            }
            other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn for_without_decl() {
        let p = parse_c("void f(int N) { int i; for (i = 0; i < N; i++) ; }");
        // Empty statement `;` is not supported — use a block instead.
        assert!(p.is_err());
        let p2 = parse_c("void f(int N) { int i; for (i = 0; i < N; i++) {} }").unwrap();
        assert!(matches!(p2.kernel().body[1], Stmt::For { .. }));
    }

    #[test]
    fn ternary_and_comparison() {
        let p = parse_c("void f(int x, int *a) { a[0] = x > 0 ? x : 0; }").unwrap();
        match &p.kernel().body[0] {
            Stmt::Expr(CExpr::Assign { rhs, .. }) => {
                assert!(matches!(**rhs, CExpr::Ternary { .. }))
            }
            other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn cast_expression() {
        let p = parse_c("void f(int n, double *a) { a[0] = (double)n; }").unwrap();
        match &p.kernel().body[0] {
            Stmt::Expr(CExpr::Assign { rhs, .. }) => assert!(matches!(**rhs, CExpr::Cast { .. })),
            other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn array_param_is_pointer() {
        let p = parse_c("void f(int a[], int b[10]) { }").unwrap();
        assert!(p.kernel().params.iter().all(|pr| pr.ty.is_pointer()));
    }

    #[test]
    fn rejects_bad_assign_target() {
        assert!(matches!(
            parse_c("void f(int x) { 3 = x; }"),
            Err(CParseError::NotAnLvalue { .. })
        ));
    }

    #[test]
    fn if_else() {
        let src = "void f(int x, int *a) { if (x > 0) { a[0] = 1; } else a[0] = 2; }";
        let p = parse_c(src).unwrap();
        match &p.kernel().body[0] {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                assert_eq!(then_body.len(), 1);
                assert_eq!(else_body.len(), 1);
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn while_loop() {
        let src = "void f(int n, int *a) { int i = 0; while (i < n) { a[i] = i; i++; } }";
        let p = parse_c(src).unwrap();
        assert!(matches!(p.kernel().body[1], Stmt::While { .. }));
    }

    #[test]
    fn constants_collected() {
        let p = parse_c("void f(int *a) { a[0] = 5 * a[1] + 7; }").unwrap();
        // Index literals are included in the pool; the validator filters.
        assert_eq!(p.kernel().int_constants(), vec![0, 5, 1, 7]);
    }
}
