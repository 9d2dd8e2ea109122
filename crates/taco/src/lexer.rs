//! Lexer for TACO tensor index notation.

use std::fmt;

/// A lexical token of the TACO surface syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// An identifier (`LETTER (LETTER | DIGIT | '_')*`).
    Ident(String),
    /// An integer literal.
    Int(i64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `=` (also produced for `:=` after preprocessing)
    Eq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Eq => write!(f, "="),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::Slash => write!(f, "/"),
        }
    }
}

/// A lexing error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// The offending character.
    pub found: char,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unexpected character {:?} at byte {}",
            self.found, self.offset
        )
    }
}

impl std::error::Error for LexError {}

/// Tokenises a TACO expression string.
///
/// Unicode minus signs and `:=` are handled by
/// [`crate::preprocess_candidate`]; this lexer expects ASCII input but
/// tolerates `−` (U+2212) directly for robustness against LLM output.
///
/// ```
/// use gtl_taco::lexer::{tokenize, Token};
/// let toks = tokenize("a(i) = b(i,j)").unwrap();
/// assert_eq!(toks[0], Token::Ident("a".into()));
/// assert_eq!(toks.len(), 11);
/// ```
pub fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let mut out = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some(&(off, c)) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '(' => {
                chars.next();
                out.push(Token::LParen);
            }
            ')' => {
                chars.next();
                out.push(Token::RParen);
            }
            ',' => {
                chars.next();
                out.push(Token::Comma);
            }
            '=' => {
                chars.next();
                out.push(Token::Eq);
            }
            '+' => {
                chars.next();
                out.push(Token::Plus);
            }
            '-' | '\u{2212}' => {
                chars.next();
                out.push(Token::Minus);
            }
            '*' => {
                chars.next();
                out.push(Token::Star);
            }
            '/' => {
                chars.next();
                out.push(Token::Slash);
            }
            c if c.is_ascii_digit() => {
                let mut val: i64 = 0;
                while let Some(&(_, d)) = chars.peek() {
                    if let Some(dv) = d.to_digit(10) {
                        val = val.saturating_mul(10).saturating_add(dv as i64);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token::Int(val));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut name = String::new();
                while let Some(&(_, d)) = chars.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' {
                        name.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token::Ident(name));
            }
            other => {
                return Err(LexError {
                    offset: off,
                    found: other,
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_program() {
        let toks = tokenize("Result(i) = Mat1(i,j) * Mat2(j)").unwrap();
        assert!(toks.contains(&Token::Star));
        assert_eq!(toks.iter().filter(|t| **t == Token::Comma).count(), 1);
    }

    #[test]
    fn unicode_minus() {
        let toks = tokenize("a \u{2212} b").unwrap();
        assert_eq!(toks[1], Token::Minus);
    }

    #[test]
    fn numbers() {
        assert_eq!(tokenize("42").unwrap(), vec![Token::Int(42)]);
        assert_eq!(
            tokenize("a2b").unwrap(),
            vec![Token::Ident("a2b".to_string())]
        );
    }

    #[test]
    fn rejects_garbage() {
        let err = tokenize("a @ b").unwrap_err();
        assert_eq!(err.found, '@');
        assert_eq!(err.offset, 2);
    }
}
