//! Lexer for the textual database-program DSL.
//!
//! Produces a stream of [`Token`]s with byte offsets for error reporting.
//! Identifiers and labels borrow the source text; only a string literal,
//! whose escapes are decoded, owns its contents. Line comments (`//`) are
//! skipped. Keywords are case-insensitive so the SQL-ish fragments can be
//! written in either case (`SELECT` / `select`).

use std::fmt;

use crate::error::{DslError, Span};

/// A lexical token, borrowing identifiers and labels from the source.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// An identifier or keyword candidate.
    Ident(&'a str),
    /// An integer literal.
    Int(i64),
    /// A string literal (contents, unescaped).
    Str(String),
    /// `@label` command label (without the `@`).
    Label(&'a str),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `:=`
    Assign,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    StarTok,
    /// `/`
    Slash,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// End of input.
    Eof,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "`{s}`"),
            Token::Int(n) => write!(f, "`{n}`"),
            Token::Str(s) => write!(f, "{s:?}"),
            Token::Label(s) => write!(f, "`@{s}`"),
            Token::LParen => f.write_str("`(`"),
            Token::RParen => f.write_str("`)`"),
            Token::LBrace => f.write_str("`{`"),
            Token::RBrace => f.write_str("`}`"),
            Token::LBracket => f.write_str("`[`"),
            Token::RBracket => f.write_str("`]`"),
            Token::Comma => f.write_str("`,`"),
            Token::Semi => f.write_str("`;`"),
            Token::Colon => f.write_str("`:`"),
            Token::Dot => f.write_str("`.`"),
            Token::Assign => f.write_str("`:=`"),
            Token::Eq => f.write_str("`=`"),
            Token::Ne => f.write_str("`!=`"),
            Token::Lt => f.write_str("`<`"),
            Token::Le => f.write_str("`<=`"),
            Token::Gt => f.write_str("`>`"),
            Token::Ge => f.write_str("`>=`"),
            Token::Plus => f.write_str("`+`"),
            Token::Minus => f.write_str("`-`"),
            Token::StarTok => f.write_str("`*`"),
            Token::Slash => f.write_str("`/`"),
            Token::AndAnd => f.write_str("`&&`"),
            Token::OrOr => f.write_str("`||`"),
            Token::Bang => f.write_str("`!`"),
            Token::Eof => f.write_str("end of input"),
        }
    }
}

/// A token paired with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned<'a> {
    /// The token.
    pub token: Token<'a>,
    /// Byte range in the source.
    pub span: Span,
}

/// Tokenizes `src` into a vector of spanned tokens terminated by [`Token::Eof`].
///
/// # Errors
///
/// Returns [`DslError::Lex`] on unterminated strings, malformed numbers, or
/// unexpected characters.
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>, DslError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => push(&mut toks, Token::LParen, start, &mut i),
            ')' => push(&mut toks, Token::RParen, start, &mut i),
            '{' => push(&mut toks, Token::LBrace, start, &mut i),
            '}' => push(&mut toks, Token::RBrace, start, &mut i),
            '[' => push(&mut toks, Token::LBracket, start, &mut i),
            ']' => push(&mut toks, Token::RBracket, start, &mut i),
            ',' => push(&mut toks, Token::Comma, start, &mut i),
            ';' => push(&mut toks, Token::Semi, start, &mut i),
            '.' => push(&mut toks, Token::Dot, start, &mut i),
            '+' => push(&mut toks, Token::Plus, start, &mut i),
            '-' => push(&mut toks, Token::Minus, start, &mut i),
            '*' => push(&mut toks, Token::StarTok, start, &mut i),
            '/' => push(&mut toks, Token::Slash, start, &mut i),
            ':' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    toks.push(spanned(Token::Assign, start, i));
                } else {
                    push(&mut toks, Token::Colon, start, &mut i);
                }
            }
            '=' => push(&mut toks, Token::Eq, start, &mut i),
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    toks.push(spanned(Token::Ne, start, i));
                } else {
                    push(&mut toks, Token::Bang, start, &mut i);
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    toks.push(spanned(Token::Le, start, i));
                } else {
                    push(&mut toks, Token::Lt, start, &mut i);
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    toks.push(spanned(Token::Ge, start, i));
                } else {
                    push(&mut toks, Token::Gt, start, &mut i);
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    i += 2;
                    toks.push(spanned(Token::AndAnd, start, i));
                } else {
                    return Err(lex_err("expected `&&`", start));
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    i += 2;
                    toks.push(spanned(Token::OrOr, start, i));
                } else {
                    return Err(lex_err("expected `||`", start));
                }
            }
            '@' => {
                i += 1;
                let s = take_label(src, &mut i);
                // Labels are dot-separated ident segments; every segment must
                // be non-empty (rejects `@`, `@.L`, `@S1.`, `@S1..L`).
                if s.is_empty() || s.split('.').any(str::is_empty) {
                    return Err(lex_err("expected label name after `@`", start));
                }
                toks.push(spanned(Token::Label(s), start, i));
            }
            '"' => {
                i += 1;
                // The text between escapes is copied as the source's UTF-8:
                // `"` and `\` are ASCII, so every cut falls on a character
                // boundary.
                let mut s = String::new();
                let mut run = i;
                loop {
                    match bytes.get(i) {
                        None => return Err(lex_err("unterminated string literal", start)),
                        Some(b'"') => {
                            s.push_str(&src[run..i]);
                            i += 1;
                            break;
                        }
                        Some(b'\\') => {
                            s.push_str(&src[run..i]);
                            s.push(match bytes.get(i + 1) {
                                Some(b'n') => '\n',
                                Some(b't') => '\t',
                                Some(b'"') => '"',
                                Some(b'\\') => '\\',
                                _ => return Err(lex_err("invalid escape sequence", i)),
                            });
                            i += 2;
                            run = i;
                        }
                        Some(_) => i += 1,
                    }
                }
                toks.push(spanned(Token::Str(s), start, i));
            }
            _ if c.is_ascii_digit() => {
                let mut n: i64 = 0;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    n = n
                        .checked_mul(10)
                        .and_then(|m| m.checked_add((bytes[i] - b'0') as i64))
                        .ok_or_else(|| lex_err("integer literal overflows i64", start))?;
                    i += 1;
                }
                toks.push(spanned(Token::Int(n), start, i));
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let s = take_ident(src, &mut i);
                toks.push(spanned(Token::Ident(s), start, i));
            }
            _ => return Err(lex_err(&format!("unexpected character `{c}`"), start)),
        }
    }
    toks.push(spanned(Token::Eof, src.len(), src.len()));
    Ok(toks)
}

/// The run of ASCII bytes from `*i` that `accept` takes, advancing `*i`
/// past it.
fn take_while_ascii<'a>(src: &'a str, i: &mut usize, accept: impl Fn(u8) -> bool) -> &'a str {
    let bytes = src.as_bytes();
    let start = *i;
    while *i < bytes.len() && accept(bytes[*i]) {
        *i += 1;
    }
    &src[start..*i]
}

fn take_ident<'a>(src: &'a str, i: &mut usize) -> &'a str {
    take_while_ascii(src, i, |b| b.is_ascii_alphanumeric() || b == b'_')
}

/// Like [`take_ident`], but also accepts `.`: labels follow the grammar
/// `segment ("." segment)*` with non-empty `[A-Za-z0-9_]+` segments (see
/// the crate docs). The dot-suffix namespace is reserved for the repair
/// engine, which derives `@S1.1`/`@S1.2` for split commands and `@S1.L`
/// for logging rewrites; such labels must survive a print/parse round
/// trip. Segment validation happens at the call site in [`lex`].
fn take_label<'a>(src: &'a str, i: &mut usize) -> &'a str {
    take_while_ascii(src, i, |b| {
        b.is_ascii_alphanumeric() || b == b'_' || b == b'.'
    })
}

fn push<'a>(toks: &mut Vec<Spanned<'a>>, t: Token<'a>, start: usize, i: &mut usize) {
    *i += 1;
    toks.push(spanned(t, start, *i));
}

fn spanned(token: Token<'_>, start: usize, end: usize) -> Spanned<'_> {
    Spanned {
        token,
        span: Span { start, end },
    }
}

fn lex_err(msg: &str, at: usize) -> DslError {
    DslError::Lex {
        message: msg.to_owned(),
        span: Span {
            start: at,
            end: at + 1,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Token<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lexes_punctuation_and_operators() {
        assert_eq!(
            kinds(":= <= >= != && || = < > + - * / ! . , ; : ( ) { } [ ]"),
            vec![
                Token::Assign,
                Token::Le,
                Token::Ge,
                Token::Ne,
                Token::AndAnd,
                Token::OrOr,
                Token::Eq,
                Token::Lt,
                Token::Gt,
                Token::Plus,
                Token::Minus,
                Token::StarTok,
                Token::Slash,
                Token::Bang,
                Token::Dot,
                Token::Comma,
                Token::Semi,
                Token::Colon,
                Token::LParen,
                Token::RParen,
                Token::LBrace,
                Token::RBrace,
                Token::LBracket,
                Token::RBracket,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn lexes_idents_numbers_strings_labels() {
        assert_eq!(
            kinds(r#"txn x1 42 "hi\n" @U4_2"#),
            vec![
                Token::Ident("txn"),
                Token::Ident("x1"),
                Token::Int(42),
                Token::Str("hi\n".into()),
                Token::Label("U4_2"),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            kinds("a // comment until eol\nb"),
            vec![Token::Ident("a"), Token::Ident("b"), Token::Eof]
        );
    }

    #[test]
    fn accepts_repair_derived_dotted_labels() {
        assert_eq!(
            kinds("@S1.L @S1.1 @U4.2.L"),
            vec![
                Token::Label("S1.L"),
                Token::Label("S1.1"),
                Token::Label("U4.2.L"),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn rejects_labels_with_empty_segments() {
        // Every dot-separated segment of a label must be non-empty.
        for bad in ["@", "@.L", "@S1.", "@S1..L", "@.", "@.."] {
            assert!(lex(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(lex("\"abc").is_err());
    }

    #[test]
    fn rejects_single_ampersand() {
        assert!(lex("a & b").is_err());
    }

    #[test]
    fn rejects_integer_overflow() {
        assert!(lex("99999999999999999999999999").is_err());
    }

    #[test]
    fn spans_point_into_source() {
        let toks = lex("ab cd").unwrap();
        assert_eq!(toks[1].span, Span { start: 3, end: 5 });
    }
}
