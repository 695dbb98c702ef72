//! SQL tokenizer.

use crate::error::{Result, SqlError};
use std::fmt;

/// A SQL token.
#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// Keyword or identifier (uppercased keywords are matched by the
    /// parser; the original spelling is preserved).
    Ident(String),
    /// Quoted identifier (`"name"` / `` `name` ``), never a keyword.
    QuotedIdent(String),
    /// Integer literal.
    Integer(i64),
    /// Float literal.
    Real(f64),
    /// String literal (single quotes, `''` escape).
    Str(String),
    /// Blob literal `x'...'`.
    Blob(Vec<u8>),
    /// Punctuation / operator.
    Punct(&'static str),
}

impl Token {
    /// Is this the identifier/keyword `kw` (case-insensitive)?
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// Is this the punctuation `p`?
    pub fn is_punct(&self, p: &str) -> bool {
        matches!(self, Token::Punct(s) if *s == p)
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) | Token::QuotedIdent(s) => write!(f, "{s}"),
            Token::Integer(i) => write!(f, "{i}"),
            Token::Real(r) => write!(f, "{r}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Blob(_) => write!(f, "x'…'"),
            Token::Punct(p) => write!(f, "{p}"),
        }
    }
}

/// Tokenizes a SQL string.
///
/// # Errors
///
/// [`SqlError::Parse`] on malformed literals or unknown characters.
pub fn tokenize(sql: &str) -> Result<Vec<Token>> {
    let b = sql.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if b.get(i + 1) == Some(&b'-') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if b.get(i + 1) == Some(&b'*') => {
                let end = sql[i + 2..]
                    .find("*/")
                    .ok_or_else(|| SqlError::Parse("unterminated comment".into()))?;
                i += 2 + end + 2;
            }
            '\'' => {
                let (s, ni) = read_string(sql, i)?;
                out.push(Token::Str(s));
                i = ni;
            }
            '"' | '`' => {
                let quote = c;
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] as char != quote {
                    j += 1;
                }
                if j >= b.len() {
                    return Err(SqlError::Parse("unterminated quoted identifier".into()));
                }
                out.push(Token::QuotedIdent(sql[start..j].to_string()));
                i = j + 1;
            }
            'x' | 'X' if b.get(i + 1) == Some(&b'\'') => {
                let (s, ni) = read_string(sql, i + 1)?;
                let mut bytes = Vec::with_capacity(s.len() / 2);
                if s.len() % 2 != 0 {
                    return Err(SqlError::Parse("odd-length blob literal".into()));
                }
                // Digit by digit from the bytes: a pair may split a
                // multi-byte character.
                let digit = |b: u8| char::from(b).to_digit(16);
                for pair in s.as_bytes().chunks(2) {
                    let (Some(hi), Some(lo)) = (digit(pair[0]), digit(pair[1])) else {
                        return Err(SqlError::Parse("bad blob literal".into()));
                    };
                    bytes.push((hi << 4 | lo) as u8);
                }
                out.push(Token::Blob(bytes));
                i = ni;
            }
            '0'..='9' => {
                let start = i;
                let mut is_real = false;
                while i < b.len()
                    && (b[i].is_ascii_digit()
                        || b[i] == b'.'
                        || b[i] == b'e'
                        || b[i] == b'E'
                        || ((b[i] == b'+' || b[i] == b'-')
                            && i > start
                            && (b[i - 1] == b'e' || b[i - 1] == b'E')))
                {
                    if b[i] == b'.' || b[i] == b'e' || b[i] == b'E' {
                        is_real = true;
                    }
                    i += 1;
                }
                let text = &sql[start..i];
                if is_real {
                    out.push(Token::Real(
                        text.parse()
                            .map_err(|_| SqlError::Parse(format!("bad number {text}")))?,
                    ));
                } else {
                    out.push(Token::Integer(
                        text.parse()
                            .map_err(|_| SqlError::Parse(format!("bad number {text}")))?,
                    ));
                }
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'$')
                {
                    i += 1;
                }
                out.push(Token::Ident(sql[start..i].to_string()));
            }
            _ => {
                let two = sql.get(i..i + 2);
                let punct2 = match two {
                    Some("<=") => Some("<="),
                    Some(">=") => Some(">="),
                    Some("<>") => Some("<>"),
                    Some("!=") => Some("!="),
                    Some("||") => Some("||"),
                    Some("==") => Some("=="),
                    _ => None,
                };
                if let Some(p) = punct2 {
                    out.push(Token::Punct(p));
                    i += 2;
                    continue;
                }
                let p = match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    ';' => ";",
                    '*' => "*",
                    '+' => "+",
                    '-' => "-",
                    '/' => "/",
                    '%' => "%",
                    '=' => "=",
                    '<' => "<",
                    '>' => ">",
                    '.' => ".",
                    '?' => "?",
                    _ => return Err(SqlError::Parse(format!("unexpected character `{c}`"))),
                };
                out.push(Token::Punct(p));
                i += 1;
            }
        }
    }
    Ok(out)
}

fn read_string(sql: &str, start: usize) -> Result<(String, usize)> {
    debug_assert_eq!(sql.as_bytes()[start], b'\'');
    let b = sql.as_bytes();
    let mut i = start + 1;
    let mut out = String::new();
    while i < b.len() {
        if b[i] == b'\'' {
            if b.get(i + 1) == Some(&b'\'') {
                out.push('\'');
                i += 2;
            } else {
                return Ok((out, i + 1));
            }
        } else {
            // keep multi-byte chars intact
            let ch_len = utf8_len(b[i]);
            out.push_str(&sql[i..i + ch_len]);
            i += ch_len;
        }
    }
    Err(SqlError::Parse("unterminated string".into()))
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statement() {
        let t = tokenize("SELECT a, b FROM t WHERE a >= 10;").unwrap();
        assert!(t[0].is_kw("select"));
        assert!(t[2].is_punct(","));
        assert_eq!(t[t.len() - 2], Token::Integer(10));
    }

    #[test]
    fn strings_with_escapes() {
        let t = tokenize("'it''s'").unwrap();
        assert_eq!(t, vec![Token::Str("it's".into())]);
    }

    #[test]
    fn numbers() {
        assert_eq!(tokenize("42").unwrap(), vec![Token::Integer(42)]);
        assert_eq!(tokenize("3.5").unwrap(), vec![Token::Real(3.5)]);
        assert_eq!(tokenize("1e3").unwrap(), vec![Token::Real(1000.0)]);
        assert_eq!(tokenize("2.5e-1").unwrap(), vec![Token::Real(0.25)]);
    }

    #[test]
    fn blob_literals() {
        assert_eq!(
            tokenize("x'AB01'").unwrap(),
            vec![Token::Blob(vec![0xAB, 0x01])]
        );
        assert!(tokenize("x'ABC'").is_err());
    }

    #[test]
    fn bad_blob_digits_are_a_parse_error() {
        // "aé0" is four bytes: the pair [0x61, 0xC3] splits the 'é'.
        for sql in ["SELECT X'aé0'", "x'+a'", "x'0g'"] {
            assert!(
                matches!(tokenize(sql), Err(SqlError::Parse(m)) if m == "bad blob literal"),
                "{sql}"
            );
        }
    }

    #[test]
    fn comments_skipped() {
        let t = tokenize("SELECT 1 -- trailing\n, 2 /* inline */ , 3").unwrap();
        let nums: Vec<_> = t
            .iter()
            .filter(|t| matches!(t, Token::Integer(_)))
            .collect();
        assert_eq!(nums.len(), 3);
    }

    #[test]
    fn two_char_operators() {
        let t = tokenize("a <= b <> c || d != e").unwrap();
        assert!(t[1].is_punct("<="));
        assert!(t[3].is_punct("<>"));
        assert!(t[5].is_punct("||"));
        assert!(t[7].is_punct("!="));
    }

    #[test]
    fn quoted_identifiers() {
        let t = tokenize("\"weird name\"").unwrap();
        assert_eq!(t, vec![Token::QuotedIdent("weird name".into())]);
        let t = tokenize("`tick`").unwrap();
        assert_eq!(t, vec![Token::QuotedIdent("tick".into())]);
    }

    #[test]
    fn errors() {
        assert!(tokenize("'open").is_err());
        assert!(tokenize("/* open").is_err());
        assert!(tokenize("@").is_err());
    }

    #[test]
    fn unicode_in_strings() {
        let t = tokenize("'héllo wörld'").unwrap();
        assert_eq!(t, vec![Token::Str("héllo wörld".into())]);
    }
}
