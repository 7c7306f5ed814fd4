//! Lexer for the classad expression language.

use std::fmt;

/// A lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// Identifier or keyword-like word (`memory_mb`, `my`, `undefined`).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// String literal (unescaped content).
    Str(String),
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Assign,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `=?=`
    MetaEq,
    /// `=!=`
    MetaNe,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `!`
    Not,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `?`
    Question,
    /// `:`
    Colon,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Real(r) => write!(f, "{r}"),
            Token::Str(s) => write!(f, "\"{s}\""),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::LBrace => write!(f, "{{"),
            Token::RBrace => write!(f, "}}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Semi => write!(f, ";"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::Assign => write!(f, "="),
            Token::Eq => write!(f, "=="),
            Token::Ne => write!(f, "!="),
            Token::MetaEq => write!(f, "=?="),
            Token::MetaNe => write!(f, "=!="),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::And => write!(f, "&&"),
            Token::Or => write!(f, "||"),
            Token::Not => write!(f, "!"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::Question => write!(f, "?"),
            Token::Colon => write!(f, ":"),
        }
    }
}

/// Lexing failure with byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Byte position in the input.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize classad source text. Comments (`// …` to end of line) and all
/// ASCII whitespace are skipped.
pub(crate) fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '[' => {
                tokens.push(Token::LBracket);
                i += 1;
            }
            ']' => {
                tokens.push(Token::RBracket);
                i += 1;
            }
            '{' => {
                tokens.push(Token::LBrace);
                i += 1;
            }
            '}' => {
                tokens.push(Token::RBrace);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semi);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '?' => {
                tokens.push(Token::Question);
                i += 1;
            }
            ':' => {
                tokens.push(Token::Colon);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '%' => {
                tokens.push(Token::Percent);
                i += 1;
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Eq);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'?') && bytes.get(i + 2) == Some(&b'=') {
                    tokens.push(Token::MetaEq);
                    i += 3;
                } else if bytes.get(i + 1) == Some(&b'!') && bytes.get(i + 2) == Some(&b'=') {
                    tokens.push(Token::MetaNe);
                    i += 3;
                } else {
                    tokens.push(Token::Assign);
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    tokens.push(Token::Not);
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Le);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    tokens.push(Token::And);
                    i += 2;
                } else {
                    return Err(LexError {
                        at: i,
                        message: "single '&' (did you mean '&&'?)".into(),
                    });
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    tokens.push(Token::Or);
                    i += 2;
                } else {
                    return Err(LexError {
                        at: i,
                        message: "single '|' (did you mean '||'?)".into(),
                    });
                }
            }
            '"' => {
                let (s, next) = lex_string(input, i)?;
                tokens.push(Token::Str(s));
                i = next;
            }
            c if c.is_ascii_digit() => {
                let (tok, next) = lex_number(input, i)?;
                tokens.push(tok);
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_owned()));
            }
            other => {
                return Err(LexError {
                    at: i,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(tokens)
}

fn lex_string(input: &str, start: usize) -> Result<(String, usize), LexError> {
    let bytes = input.as_bytes();
    debug_assert_eq!(bytes[start], b'"');
    let mut out = String::new();
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Ok((out, i + 1)),
            b'\\' => {
                let esc = bytes.get(i + 1).ok_or(LexError {
                    at: i,
                    message: "dangling escape at end of input".into(),
                })?;
                let c = match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => {
                        return Err(LexError {
                            at: i,
                            message: format!("unknown escape '\\{}'", *other as char),
                        })
                    }
                };
                out.push(c);
                i += 2;
            }
            _ => {
                // Copy the full (possibly multi-byte) character.
                let ch = input[i..].chars().next().expect("in-bounds char");
                out.push(ch);
                i += ch.len_utf8();
            }
        }
    }
    Err(LexError {
        at: start,
        message: "unterminated string literal".into(),
    })
}

fn lex_number(input: &str, start: usize) -> Result<(Token, usize), LexError> {
    let bytes = input.as_bytes();
    let mut i = start;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let mut is_real = false;
    // A fractional part requires a digit after the dot, so `2.attr` lexes as
    // integer, dot, identifier.
    if i < bytes.len()
        && bytes[i] == b'.'
        && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
    {
        is_real = true;
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_real = true;
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = &input[start..i];
    let tok = if is_real {
        Token::Real(text.parse().map_err(|e| LexError {
            at: start,
            message: format!("bad real literal {text:?}: {e}"),
        })?)
    } else {
        Token::Int(text.parse().map_err(|e| LexError {
            at: start,
            message: format!("bad integer literal {text:?}: {e}"),
        })?)
    };
    Ok((tok, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_record_syntax() {
        let toks = lex(r#"[ a = 1; b = "x"; ]"#).unwrap();
        assert_eq!(
            toks,
            vec![
                Token::LBracket,
                Token::Ident("a".into()),
                Token::Assign,
                Token::Int(1),
                Token::Semi,
                Token::Ident("b".into()),
                Token::Assign,
                Token::Str("x".into()),
                Token::Semi,
                Token::RBracket,
            ]
        );
    }

    #[test]
    fn distinguishes_assign_eq_and_meta_ops() {
        let toks = lex("a = b == c =?= d =!= e != f").unwrap();
        let ops: Vec<&Token> = toks
            .iter()
            .filter(|t| {
                matches!(
                    t,
                    Token::Assign | Token::Eq | Token::MetaEq | Token::MetaNe | Token::Ne
                )
            })
            .collect();
        assert_eq!(
            ops,
            vec![
                &Token::Assign,
                &Token::Eq,
                &Token::MetaEq,
                &Token::MetaNe,
                &Token::Ne
            ]
        );
    }

    #[test]
    fn numbers_int_real_scientific() {
        assert_eq!(lex("42").unwrap(), vec![Token::Int(42)]);
        assert_eq!(lex("4.25").unwrap(), vec![Token::Real(4.25)]);
        assert_eq!(lex("1e3").unwrap(), vec![Token::Real(1000.0)]);
        assert_eq!(lex("2.5e-1").unwrap(), vec![Token::Real(0.25)]);
        // Dot not followed by a digit is a separate token.
        assert_eq!(
            lex("2.x").unwrap(),
            vec![Token::Int(2), Token::Dot, Token::Ident("x".into())]
        );
    }

    #[test]
    fn string_escapes_and_unicode() {
        let toks = lex(r#""a\"b\\c\n déjà""#).unwrap();
        assert_eq!(toks, vec![Token::Str("a\"b\\c\n déjà".into())]);
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("a // comment with symbols == [ ;\n b").unwrap();
        assert_eq!(
            toks,
            vec![Token::Ident("a".into()), Token::Ident("b".into())]
        );
    }

    #[test]
    fn comparison_operators() {
        let toks = lex("< <= > >= && || !").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::And,
                Token::Or,
                Token::Not
            ]
        );
    }

    #[test]
    fn errors_carry_positions() {
        let err = lex("a & b").unwrap_err();
        assert_eq!(err.at, 2);
        let err = lex("\"unterminated").unwrap_err();
        assert!(err.message.contains("unterminated"));
        let err = lex("a # b").unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }
}
