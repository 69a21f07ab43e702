//! SQL tokenizer. Tokens borrow from the statement text: an identifier is a
//! slice of it, and so is a string literal unless it contains a `''` escape.
//! A script is cut into statements at the tokenizer's own `;` tokens, so a
//! `;` or a `'` inside a string, a quoted identifier or a comment never
//! splits one. The database lexes a statement one token at a time
//! ([`Lexer`], driven by `shape::Shapes::bind`); [`tokenize`] and
//! [`statements`] collect whole token vectors for the parser's own tests
//! and the reference the shape cache is tested against.

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
    /// Where a literal of this kind was: the statement's shape, which the
    /// parser reads as a parameter (never produced by the tokenizer).
    Slot(Lit),
}

/// The kind of a literal token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lit {
    /// [`Token::Int`].
    Int,
    /// [`Token::Float`].
    Float,
    /// [`Token::Str`].
    Str,
    /// [`Token::Hex`].
    Hex,
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
#[cfg(test)]
pub fn tokenize(sql: &str) -> Result<Vec<Token<'_>>, SqlError> {
    let mut out = Vec::with_capacity(token_room(sql.len()));
    for token in Lexer::new(sql) {
        out.push(token?);
    }
    Ok(out)
}

/// A token per four bytes is typical; the cap keeps one huge literal from
/// reserving megabytes.
#[cfg(test)]
fn token_room(bytes: usize) -> usize {
    (bytes / 4).min(64)
}

/// The statements of a script: its tokens cut at every `;` token, empty
/// statements skipped. Each statement is lexed when it is asked for, so a
/// lex error in one surfaces after everything the caller did with the
/// statements before it; after an error the iterator ends.
#[cfg(test)]
pub fn statements(sql: &str) -> impl Iterator<Item = Result<Vec<Token<'_>>, SqlError>> {
    let mut lexer = Lexer::new(sql);
    std::iter::from_fn(move || loop {
        let mut tokens = Vec::with_capacity(token_room(sql.len() - lexer.pos));
        let at_end = loop {
            match lexer.next() {
                None => break true,
                Some(Ok(Token::Punct(";"))) => break false,
                Some(Ok(token)) => tokens.push(token),
                Some(Err(e)) => return Some(Err(e)),
            }
        };
        if !tokens.is_empty() {
            return Some(Ok(tokens));
        }
        if at_end {
            return None;
        }
    })
}

/// The tokenizer, one token at a time; after an error it yields nothing.
pub struct Lexer<'a> {
    sql: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `sql`.
    pub fn new(sql: &'a str) -> Self {
        Lexer { sql, pos: 0 }
    }

    /// The text being lexed, which every [`Token::Ident`] is a slice of.
    pub fn text(&self) -> &'a str {
        self.sql
    }

    /// Skip whitespace, comments and `;` tokens — the empty statements
    /// between two statements of a script; true when nothing is left.
    pub fn skip_empty(&mut self) -> bool {
        loop {
            self.skip_space();
            match self.sql.as_bytes().get(self.pos) {
                None => return true,
                Some(b';') => self.pos += 1,
                Some(_) => return false,
            }
        }
    }

    fn skip_space(&mut self) {
        let bytes = self.sql.as_bytes();
        let mut i = self.pos;
        while let Some(&c) = bytes.get(i) {
            match c {
                b' ' | b'\t' | b'\n' | b'\r' => i += 1,
                b'-' if bytes.get(i + 1) == Some(&b'-') => {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                }
                _ => break,
            }
        }
        self.pos = i;
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token<'a>, SqlError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.skip_space();
        let i = self.pos;
        let &c = self.sql.as_bytes().get(i)?;
        Some(match lex_token(self.sql, i, c) {
            Ok((token, end)) => {
                self.pos = end;
                Ok(token)
            }
            Err(e) => {
                self.pos = self.sql.len();
                Err(e)
            }
        })
    }
}

/// The token that starts with byte `c` at `i`, and the offset after it.
fn lex_token(sql: &str, i: usize, c: u8) -> Result<(Token<'_>, usize), SqlError> {
    let bytes = sql.as_bytes();
    let next = bytes.get(i + 1).copied();
    let punct = |p: &'static str, len: usize| Ok((Token::Punct(p), i + len));
    match c {
        b'(' => punct("(", 1),
        b')' => punct(")", 1),
        b',' => punct(",", 1),
        b';' => punct(";", 1),
        b'+' => punct("+", 1),
        b'-' => punct("-", 1),
        b'/' => punct("/", 1),
        b'%' => punct("%", 1),
        b'*' => punct("*", 1),
        b'.' => punct(".", 1),
        b'|' if next == Some(b'|') => punct("||", 2),
        // `==` is accepted as `=`.
        b'=' => punct("=", if next == Some(b'=') { 2 } else { 1 }),
        b'!' if next == Some(b'=') => punct("!=", 2),
        b'<' if next == Some(b'=') => punct("<=", 2),
        b'<' if next == Some(b'>') => punct("!=", 2),
        b'<' => punct("<", 1),
        b'>' if next == Some(b'=') => punct(">=", 2),
        b'>' => punct(">", 1),
        b'\'' => {
            let (s, end) = lex_string(sql, i)?;
            Ok((Token::Str(s), end))
        }
        b'x' | b'X' if next == Some(b'\'') => {
            let (s, end) = lex_string(sql, i + 1)?;
            if s.len() % 2 != 0 {
                return Err(SqlError::Lex("odd-length hex literal".into()));
            }
            let mut blob = Vec::with_capacity(s.len() / 2);
            for pair in s.as_bytes().chunks(2) {
                blob.push(hex_digit(pair[0])? << 4 | hex_digit(pair[1])?);
            }
            Ok((Token::Hex(blob), end))
        }
        b'0'..=b'9' => {
            let digits = |mut j: usize| {
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                j
            };
            let mut end = digits(i);
            let mut is_float = false;
            if bytes.get(end) == Some(&b'.') {
                is_float = true;
                end = digits(end + 1);
            }
            if matches!(bytes.get(end), Some(b'e' | b'E')) {
                is_float = true;
                end += 1;
                if matches!(bytes.get(end), Some(b'+' | b'-')) {
                    end += 1;
                }
                end = digits(end);
            }
            let text = &sql[i..end];
            let token = if is_float {
                Token::Float(
                    text.parse()
                        .map_err(|_| SqlError::Lex(format!("bad float literal {text}")))?,
                )
            } else {
                Token::Int(
                    text.parse()
                        .map_err(|_| SqlError::Lex(format!("bad integer literal {text}")))?,
                )
            };
            Ok((token, end))
        }
        b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
            let mut end = i + 1;
            while end < bytes.len() && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_') {
                end += 1;
            }
            Ok((Token::Ident(&sql[i..end]), end))
        }
        b'"' => {
            // Quoted identifier.
            let len = sql[i + 1..]
                .find('"')
                .ok_or_else(|| SqlError::Lex("unterminated quoted identifier".into()))?;
            Ok((Token::Ident(&sql[i + 1..i + 1 + len]), i + len + 2))
        }
        other => Err(SqlError::Lex(format!(
            "unexpected character {:?}",
            other as char
        ))),
    }
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

    fn split(sql: &str) -> Vec<Result<Vec<Token<'_>>, SqlError>> {
        statements(sql).collect()
    }

    #[test]
    fn statements_split_on_semicolon_tokens() {
        // A `;` inside a string (escaped quotes and all), empty statements
        // and a whitespace tail.
        assert_eq!(
            split("a 'x;''y;' b;;c 'caf\u{e9};'; "),
            vec![
                Ok(vec![
                    Token::Ident("a"),
                    Token::Str("x;'y;".into()),
                    Token::Ident("b")
                ]),
                Ok(vec![Token::Ident("c"), Token::Str("caf\u{e9};".into())]),
            ]
        );
        assert!(split("").is_empty());
        assert!(split(" ; ;\n-- only a comment; really\n").is_empty());
        // A `;` or a `'` in a comment or a quoted identifier is text.
        assert_eq!(
            split("v -- no; really\n; \"it's;\" w"),
            vec![
                Ok(vec![Token::Ident("v")]),
                Ok(vec![Token::Ident("it's;"), Token::Ident("w")]),
            ]
        );
        // A statement is lexed when asked for, and a lex error ends the
        // script.
        assert_eq!(
            split("1 2; 'open; 3"),
            vec![
                Ok(vec![Token::Int(1), Token::Int(2)]),
                Err(SqlError::Lex("unterminated string literal".into())),
            ]
        );
    }
}
