//! SQL tokenizer. Tokens borrow from the statement text: an identifier is a
//! slice of it, and so is a string literal unless it contains a `''` escape.

use std::borrow::Cow;

use crate::error::SqlError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Bare identifier or keyword (keywords are matched case-insensitively
    /// at parse time).
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// 'single quoted' string ('' escapes a quote).
    Str(Cow<'a, str>),
    /// x'hex' blob literal.
    Hex(Vec<u8>),
    /// Punctuation / operator.
    Punct(&'static str),
}

impl Token<'_> {
    /// Is this the given keyword (case-insensitive)?
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenize a SQL string.
///
/// # Errors
/// [`SqlError::Lex`] on unterminated strings, bad hex, or unknown bytes.
pub fn tokenize(sql: &str) -> Result<Vec<Token<'_>>, SqlError> {
    let bytes = sql.as_bytes();
    // A token per four bytes is typical; the cap keeps one huge literal from
    // reserving megabytes.
    let mut out = Vec::with_capacity((sql.len() / 4).min(64));
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' | ')' | ',' | ';' | '+' | '-' | '/' | '%' | '*' | '.' => {
                out.push(Token::Punct(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    ';' => ";",
                    '+' => "+",
                    '-' => "-",
                    '/' => "/",
                    '%' => "%",
                    '*' => "*",
                    _ => ".",
                }));
                i += 1;
            }
            '|' if bytes.get(i + 1) == Some(&b'|') => {
                out.push(Token::Punct("||"));
                i += 2;
            }
            '=' => {
                out.push(Token::Punct("="));
                i += 1;
                if bytes.get(i) == Some(&b'=') {
                    i += 1; // accept == as =
                }
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token::Punct("!="));
                i += 2;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Punct("<="));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Token::Punct("!="));
                    i += 2;
                } else {
                    out.push(Token::Punct("<"));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Punct(">="));
                    i += 2;
                } else {
                    out.push(Token::Punct(">"));
                    i += 1;
                }
            }
            '\'' => {
                let (s, ni) = lex_string(sql, i)?;
                out.push(Token::Str(s));
                i = ni;
            }
            'x' | 'X' if bytes.get(i + 1) == Some(&b'\'') => {
                let (s, ni) = lex_string(sql, i + 1)?;
                let mut blob = Vec::with_capacity(s.len() / 2);
                if s.len() % 2 != 0 {
                    return Err(SqlError::Lex("odd-length hex literal".into()));
                }
                for pair in s.as_bytes().chunks(2) {
                    let hi = hex_digit(pair[0])?;
                    let lo = hex_digit(pair[1])?;
                    blob.push(hi << 4 | lo);
                }
                out.push(Token::Hex(blob));
                i = ni;
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit()) {
                    i += 1;
                }
                let mut is_float = false;
                if i < bytes.len() && bytes[i] == b'.' {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    is_float = true;
                    i += 1;
                    if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                        i += 1;
                    }
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &sql[start..i];
                if is_float {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| SqlError::Lex(format!("bad float literal {text}")))?;
                    out.push(Token::Float(v));
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|_| SqlError::Lex(format!("bad integer literal {text}")))?;
                    out.push(Token::Int(v));
                }
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push(Token::Ident(&sql[start..i]));
            }
            '"' => {
                // Quoted identifier.
                let end = sql[i + 1..]
                    .find('"')
                    .ok_or_else(|| SqlError::Lex("unterminated quoted identifier".into()))?;
                out.push(Token::Ident(&sql[i + 1..i + 1 + end]));
                i += end + 2;
            }
            other => return Err(SqlError::Lex(format!("unexpected character {other:?}"))),
        }
    }
    Ok(out)
}

fn lex_string(sql: &str, start: usize) -> Result<(Cow<'_, str>, usize), SqlError> {
    debug_assert_eq!(sql.as_bytes()[start], b'\'');
    // Scan raw bytes for the terminating quote (UTF-8 continuation bytes can
    // never equal the ASCII quote, so every cut below is a char boundary).
    // The literal is a slice of the input until the first `''` escape makes
    // an owned copy necessary.
    let bytes = sql.as_bytes();
    let mut unescaped: Option<String> = None;
    let mut run = start + 1; // start of the run not yet copied to `unescaped`
    let mut i = start + 1;
    while i < bytes.len() {
        if bytes[i] != b'\'' {
            i += 1;
        } else if bytes.get(i + 1) == Some(&b'\'') {
            unescaped
                .get_or_insert_with(String::new)
                .push_str(&sql[run..=i]);
            i += 2;
            run = i;
        } else {
            let s = match unescaped {
                Some(mut s) => {
                    s.push_str(&sql[run..i]);
                    Cow::Owned(s)
                }
                None => Cow::Borrowed(&sql[run..i]),
            };
            return Ok((s, i + 1));
        }
    }
    Err(SqlError::Lex("unterminated string literal".into()))
}

fn hex_digit(b: u8) -> Result<u8, SqlError> {
    match b {
        b'0'..=b'9' => Ok(b - b'0'),
        b'a'..=b'f' => Ok(b - b'a' + 10),
        b'A'..=b'F' => Ok(b - b'A' + 10),
        other => Err(SqlError::Lex(format!("bad hex digit {:?}", other as char))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_and_idents() {
        let toks = tokenize("SELECT foo FROM Bar_9").expect("lex");
        assert_eq!(toks.len(), 4);
        assert!(toks[0].is_kw("select"));
        assert_eq!(toks[1], Token::Ident("foo"));
    }

    #[test]
    fn numbers() {
        let toks = tokenize("1 2.5 1e3 -7").expect("lex");
        assert_eq!(toks[0], Token::Int(1));
        assert_eq!(toks[1], Token::Float(2.5));
        assert_eq!(toks[2], Token::Float(1000.0));
        assert_eq!(toks[3], Token::Punct("-"));
        assert_eq!(toks[4], Token::Int(7));
    }

    #[test]
    fn strings_with_escapes() {
        let toks = tokenize("'it''s'").expect("lex");
        assert_eq!(toks[0], Token::Str("it's".into()));
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let toks = tokenize("'plain' 'it''s' '''' '' 'h\u{e9}''\u{fc}' 'a''b''c'").expect("lex");
        assert!(matches!(&toks[0], Token::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&toks[1], Token::Str(Cow::Owned(s)) if s == "it's"));
        assert_eq!(toks[2], Token::Str("'".into()));
        assert!(matches!(&toks[3], Token::Str(Cow::Borrowed(""))));
        assert_eq!(toks[4], Token::Str("h\u{e9}'\u{fc}".into()));
        assert_eq!(toks[5], Token::Str("a'b'c".into()));
        assert!(
            tokenize("'open''").is_err(),
            "an escape is not a terminator"
        );
    }

    #[test]
    fn hex_blobs() {
        let toks = tokenize("x'DEADbeef'").expect("lex");
        assert_eq!(toks[0], Token::Hex(vec![0xde, 0xad, 0xbe, 0xef]));
        assert!(tokenize("x'abc'").is_err());
        assert!(tokenize("x'zz'").is_err());
    }

    #[test]
    fn operators() {
        let toks = tokenize("a <= b <> c == d || e").expect("lex");
        assert_eq!(toks[1], Token::Punct("<="));
        assert_eq!(toks[3], Token::Punct("!="));
        assert_eq!(toks[5], Token::Punct("="));
        assert_eq!(toks[7], Token::Punct("||"));
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize("SELECT 1 -- the answer\n, 2").expect("lex");
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn unterminated_string_rejected() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn quoted_identifiers() {
        let toks = tokenize("\"weird name\"").expect("lex");
        assert_eq!(toks[0], Token::Ident("weird name"));
    }
}
