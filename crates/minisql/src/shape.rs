//! Parse once per shape: SQLite's prepare / bind idiom applied to every
//! statement without being asked, like SQL Server's "simple
//! parameterization". A statement's *shape* is its token stream with every
//! literal replaced by a slot of the literal's kind; the plan parsed from a
//! shape is kept, and a later statement of that shape runs it with its own
//! literals bound to the plan's `Expr::Param`s.
//!
//! A statement is lexed into a buffer the cache owns, and each token is
//! compared as it is lexed with the shape bound last — a service sends one
//! shape after another — so a repeated shape is read once; only a
//! statement that departs from it is hashed and looked up. A shape is
//! compared token by token — kind and text — never by a hash alone and
//! never as a joined string (a quoted identifier may hold any byte).
//! Plans name tables and columns by text and resolve them at execution,
//! so no DDL, rollback or state transfer invalidates one, and what a
//! statement does never depends on whether its shape was cached.

use std::borrow::Cow;
use std::hash::Hasher;
use std::rc::Rc;

use crate::ast::Stmt;
use crate::error::SqlError;
use crate::hash::MulHasher;
use crate::parser::parse_tokens;
use crate::token::{Lexer, Lit, Token};
use crate::value::Value;

/// Shapes kept. The e-voting application uses 11 (3 of them its CREATE
/// TABLEs) and the benchmarks 3, so 64 leaves an application room for
/// five times the largest here. A full cache is cleared rather than
/// evicted from: deterministic, no recency bookkeeping, and the cost — one
/// parse per shape in use — falls only on an application with more shapes
/// than this.
const CAPACITY: usize = 64;

/// A token of a shape. An identifier is a byte range of the text it was
/// lexed from: the statement's while it is being bound, the shape's own
/// once it is kept.
#[derive(Debug, Clone, Copy)]
enum KeyToken {
    Ident(usize, usize),
    Punct(&'static str),
    Slot(Lit),
}

impl KeyToken {
    /// The same token: kind, and text read from each token's own text.
    fn same(&self, text: &[u8], other: &KeyToken, other_text: &[u8]) -> bool {
        match (self, other) {
            (KeyToken::Ident(a, b), KeyToken::Ident(c, d)) => text[*a..*b] == other_text[*c..*d],
            (KeyToken::Punct(a), KeyToken::Punct(b)) => a == b,
            (KeyToken::Slot(a), KeyToken::Slot(b)) => a == b,
            _ => false,
        }
    }
}

/// A kept shape: its tokens, their identifiers in one buffer, and its plan.
#[derive(Debug)]
struct Shape {
    hash: u64,
    text: Box<str>,
    key: Box<[KeyToken]>,
    plan: Rc<Stmt>,
}

impl Shape {
    fn new(hash: u64, key: &[KeyToken], sql: &str, plan: Rc<Stmt>) -> Shape {
        let mut text = String::with_capacity(
            key.iter()
                .map(|k| match k {
                    KeyToken::Ident(a, b) => b - a,
                    _ => 0,
                })
                .sum(),
        );
        let key = key
            .iter()
            .map(|&k| match k {
                KeyToken::Ident(a, b) => {
                    text.push_str(&sql[a..b]);
                    KeyToken::Ident(text.len() - (b - a), text.len())
                }
                other => other,
            })
            .collect();
        Shape {
            hash,
            text: text.into_boxed_str(),
            key,
            plan,
        }
    }

    /// Is token `at` of this shape `token`, an identifier of `sql`?
    fn matches_at(&self, at: usize, token: &KeyToken, sql: &str) -> bool {
        self.key
            .get(at)
            .is_some_and(|k| k.same(self.text.as_bytes(), token, sql.as_bytes()))
    }

    fn matches(&self, hash: u64, key: &[KeyToken], sql: &str) -> bool {
        let text = self.text.as_bytes();
        self.hash == hash
            && self.key.len() == key.len()
            && self
                .key
                .iter()
                .zip(key)
                .all(|(k, t)| k.same(text, t, sql.as_bytes()))
    }
}

/// The plans of the shapes a database has run (see the module docs), and
/// the buffer a statement's shape is lexed into.
#[derive(Debug, Default)]
pub struct Shapes {
    shapes: Vec<Shape>,
    /// The shape bound last: the one a statement is compared with while it
    /// is lexed (an index past the end before there is one).
    recent: usize,
    /// The statement being bound; reused.
    key: Vec<KeyToken>,
}

impl Shapes {
    /// Lex one statement and return its plan, with its literals written to
    /// `binds` in order (a string literal into the `String` already in its
    /// place, if there is one).
    ///
    /// Each token is compared with the shape bound last as it is lexed, so
    /// a statement of that shape costs one pass and allocates nothing but
    /// a literal that fits no slot's allocation; any other statement is
    /// looked up by hash and compared token by token, and parsed and kept
    /// if no shape matches. In a `script`, the statement ends at a `;`
    /// token (consumed) — the caller skips empty statements first
    /// ([`Lexer::skip_empty`]); otherwise it is the rest of the text.
    ///
    /// # Errors
    /// [`SqlError::Lex`], or [`SqlError::Parse`] with the text parsing the
    /// literal tokens gives.
    pub fn bind(
        &mut self,
        lexer: &mut Lexer<'_>,
        script: bool,
        binds: &mut Vec<Value>,
    ) -> Result<Rc<Stmt>, SqlError> {
        let Shapes {
            shapes,
            recent,
            key,
        } = self;
        let sql = lexer.text();
        key.clear();
        let mut bound = 0;
        // The shape bound last, while every token so far has matched it.
        let mut candidate = shapes.get(*recent);
        for token in lexer.by_ref() {
            let token = match token? {
                Token::Punct(";") if script => break,
                Token::Ident(s) => {
                    // Every identifier is a slice of the text.
                    let start = s.as_ptr() as usize - sql.as_ptr() as usize;
                    KeyToken::Ident(start, start + s.len())
                }
                Token::Punct(p) => KeyToken::Punct(p),
                literal => {
                    let kind = put_literal(binds, bound, literal);
                    bound += 1;
                    KeyToken::Slot(kind)
                }
            };
            if candidate.is_some_and(|shape| !shape.matches_at(key.len(), &token, sql)) {
                candidate = None;
            }
            key.push(token);
        }
        binds.truncate(bound);
        if let Some(shape) = candidate.filter(|shape| shape.key.len() == key.len()) {
            return Ok(Rc::clone(&shape.plan));
        }
        let hash = hash_key(key, sql);
        if let Some(i) = shapes.iter().position(|s| s.matches(hash, key, sql)) {
            *recent = i;
            return Ok(Rc::clone(&shapes[i].plan));
        }
        let mut tokens: Vec<Token<'_>> = key
            .iter()
            .map(|&k| match k {
                KeyToken::Ident(a, b) => Token::Ident(&sql[a..b]),
                KeyToken::Punct(p) => Token::Punct(p),
                KeyToken::Slot(kind) => Token::Slot(kind),
            })
            .collect();
        let Ok(plan) = parse_tokens(&tokens) else {
            // An error names the token it stopped at: parse the statement
            // as written.
            unslot(&mut tokens, binds);
            return Ok(Rc::new(parse_tokens(&tokens)?));
        };
        let plan = Rc::new(plan);
        if shapes.len() == CAPACITY {
            shapes.clear();
        }
        *recent = shapes.len();
        shapes.push(Shape::new(hash, key, sql, Rc::clone(&plan)));
        Ok(plan)
    }
}

/// Write a literal token's value to `binds[i]` (pushed when `i` is the
/// length) and return its kind.
fn put_literal(binds: &mut Vec<Value>, i: usize, token: Token<'_>) -> Lit {
    let (kind, value) = match token {
        Token::Int(v) => (Lit::Int, Value::Integer(v)),
        Token::Float(v) => (Lit::Float, Value::Real(v)),
        Token::Str(s) => {
            if let Some(Value::Text(text)) = binds.get_mut(i) {
                text.clear();
                text.push_str(&s);
                return Lit::Str;
            }
            (Lit::Str, Value::Text(s.into_owned()))
        }
        Token::Hex(b) => (Lit::Hex, Value::Blob(b)),
        Token::Ident(_) | Token::Punct(_) | Token::Slot(_) => {
            unreachable!("not a literal: {token:?}")
        }
    };
    match binds.get_mut(i) {
        Some(slot) => *slot = value,
        None => binds.push(value),
    }
    kind
}

/// The hash of a shape, its identifiers read from `sql`.
fn hash_key(key: &[KeyToken], sql: &str) -> u64 {
    let mut hash = MulHasher::default();
    for token in key {
        match *token {
            KeyToken::Ident(a, b) => {
                hash.write_u8(0);
                hash.write(&sql.as_bytes()[a..b]);
            }
            KeyToken::Punct(p) => {
                hash.write_u8(1);
                hash.write(p.as_bytes());
            }
            KeyToken::Slot(kind) => hash.write_u8(2 + kind as u8),
        }
    }
    hash.finish()
}

/// Put a statement's literals back in place of its slots; `binds` is left
/// empty.
fn unslot(tokens: &mut [Token<'_>], binds: &mut Vec<Value>) {
    let mut binds = binds.drain(..);
    for token in tokens.iter_mut().filter(|t| matches!(t, Token::Slot(_))) {
        *token = match binds.next() {
            Some(Value::Integer(v)) => Token::Int(v),
            Some(Value::Real(v)) => Token::Float(v),
            Some(Value::Text(s)) => Token::Str(Cow::Owned(s)),
            Some(Value::Blob(b)) => Token::Hex(b),
            // Never bound: NULL is a keyword.
            Some(Value::Null) | None => Token::Ident("NULL"),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A statement's plan and literals.
    struct Bound {
        plan: Rc<Stmt>,
        binds: Vec<Value>,
    }

    fn bind(shapes: &mut Shapes, sql: &str) -> Result<Bound, SqlError> {
        let mut binds = Vec::new();
        let plan = shapes.bind(&mut Lexer::new(sql), false, &mut binds)?;
        Ok(Bound { plan, binds })
    }

    #[test]
    fn one_plan_per_shape() {
        let mut shapes = Shapes::default();
        let first = bind(&mut shapes, "INSERT INTO t (a, b) VALUES (1, 'x')").expect("bind");
        let second = bind(&mut shapes, "INSERT INTO t (a, b) VALUES (22, 'it''s')").expect("bind");
        assert!(Rc::ptr_eq(&first.plan, &second.plan), "one shape, one plan");
        assert_eq!(
            second.binds,
            vec![Value::Integer(22), Value::Text("it's".into())]
        );
        // A literal of another kind, another spelling of a keyword, or
        // another name is another shape.
        for other in [
            "INSERT INTO t (a, b) VALUES (1.0, 'x')",
            "INSERT INTO t (a, b) VALUES (x'01', 'x')",
            "insert INTO t (a, b) VALUES (1, 'x')",
            "INSERT INTO \"t\" (a, b) VALUES (1, NULL)",
            "INSERT INTO \"t (a\" (b) VALUES (1, 'x')",
        ] {
            let plan = bind(&mut shapes, other).expect("bind").plan;
            assert!(!Rc::ptr_eq(&first.plan, &plan), "{other}");
            let again = bind(&mut shapes, other).expect("bind").plan;
            assert!(Rc::ptr_eq(&plan, &again), "{other}");
        }
        assert_eq!(shapes.shapes.len(), 6);
    }

    #[test]
    fn a_failed_parse_reports_the_literal_tokens_and_keeps_nothing() {
        let mut shapes = Shapes::default();
        for (sql, want) in [
            ("SELECT 1 LIMIT 'x'", "bad LIMIT Str(\"x\")"),
            ("42", "statement cannot start with Int(42)"),
            ("SELECT 1 2.5", "unexpected trailing input at token 2"),
            (
                "INSERT INTO x'00' VALUES (1)",
                "expected identifier, found Hex([0])",
            ),
        ] {
            for _ in 0..2 {
                assert_eq!(
                    bind(&mut shapes, sql).map(|b| b.plan),
                    Err(SqlError::Parse(want.into()))
                );
            }
        }
        assert!(shapes.shapes.is_empty());
    }

    #[test]
    fn shapes_with_one_hash_keep_their_own_plans() {
        // Two aliases found by search to leave the hasher in one state.
        let [a, b] = ["collideswithYYYY", "Km0HCEoIfn3RqPfu"]
            .map(|alias| format!("SELECT id AS \"{alias}\" FROM t"));
        let mut shapes = Shapes::default();
        let mut hash = |sql: &str| {
            let plan = bind(&mut shapes, sql).expect("bind").plan;
            (hash_key(&shapes.key, sql), plan)
        };
        let (hash_a, plan_a) = hash(&a);
        let (hash_b, plan_b) = hash(&b);
        assert_eq!(hash_a, hash_b, "the pair no longer collides");
        assert!(!Rc::ptr_eq(&plan_a, &plan_b));
        // Not the shape bound last, so found by hash, then told apart by
        // token.
        assert!(Rc::ptr_eq(&hash(&a).1, &plan_a));
        assert!(Rc::ptr_eq(&hash(&b).1, &plan_b));
        assert_eq!(shapes.shapes.len(), 2);
    }

    #[test]
    fn the_shape_bound_last_is_matched_while_lexing() {
        let mut shapes = Shapes::default();
        let insert = |i: i64| format!("INSERT INTO t (a, b) VALUES ({i}, 'v{i}')");
        let first = bind(&mut shapes, &insert(1)).expect("bind");
        let other = bind(&mut shapes, "SELECT a FROM t WHERE id = 1").expect("bind");
        // Back to the INSERT: found by hash, then matched as it is lexed.
        for i in 2..5 {
            let again = bind(&mut shapes, &insert(i)).expect("bind");
            assert!(Rc::ptr_eq(&first.plan, &again.plan));
            assert_eq!(
                again.binds,
                vec![Value::Integer(i), Value::Text(format!("v{i}"))]
            );
        }
        // A longer or a shorter statement with the same prefix is another
        // shape.
        for sql in [
            "SELECT a FROM t WHERE id = 1 AND a = 2",
            "SELECT a FROM t WHERE id",
            "SELECT a FROM t WHERE id = 1",
        ] {
            let plan = bind(&mut shapes, sql).expect("bind").plan;
            assert_eq!(
                Rc::ptr_eq(&plan, &other.plan),
                sql.ends_with("= 1"),
                "{sql}"
            );
        }
        assert_eq!(shapes.shapes.len(), 4);
    }

    #[test]
    fn a_full_cache_starts_over() {
        let mut shapes = Shapes::default();
        for i in 0..CAPACITY + 3 {
            bind(&mut shapes, &format!("SELECT a{i} FROM t WHERE id = {i}")).expect("bind");
        }
        assert_eq!(shapes.shapes.len(), 3);
    }
}
