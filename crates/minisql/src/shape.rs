//! Parse once per shape: SQLite's prepare / bind idiom applied to every
//! statement without being asked, like SQL Server's "simple
//! parameterization". A statement's *shape* is its token stream with every
//! literal replaced by a slot of the literal's kind; the plan parsed from a
//! shape is kept, and a later statement of that shape runs it with its own
//! literals bound to the plan's `Expr::Param`s.
//!
//! A shape is compared token by token — kind and text — never by a hash
//! alone and never as a joined string (a quoted identifier may hold any
//! byte). Plans name tables and columns by text and resolve them at
//! execution, so no DDL, rollback or state transfer invalidates one, and
//! what a statement does never depends on whether its shape was cached.

use std::borrow::Cow;
use std::hash::Hasher;
use std::rc::Rc;

use crate::ast::Stmt;
use crate::error::SqlError;
use crate::hash::MulHasher;
use crate::parser::parse_tokens;
use crate::token::{Lit, Token};
use crate::value::Value;

/// Shapes kept. The e-voting application uses 11 (3 of them its CREATE
/// TABLEs) and the benchmarks 3, so 64 leaves an application room for
/// five times the largest here. A full cache is cleared rather than
/// evicted from: deterministic, no recency bookkeeping, and the cost — one
/// parse per shape in use — falls only on an application with more shapes
/// than this.
const CAPACITY: usize = 64;

/// A statement ready to run: its plan, and the values the plan's
/// `Expr::Param`s stand for, in order.
#[derive(Debug)]
pub struct Bound {
    /// The parsed statement.
    pub plan: Rc<Stmt>,
    /// The statement's literals.
    pub binds: Vec<Value>,
}

/// A token of a kept shape; an identifier is a range of the shape's text.
#[derive(Debug)]
enum KeyToken {
    Ident(usize, usize),
    Punct(&'static str),
    Slot(Lit),
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
    fn new(hash: u64, tokens: &[Token<'_>], plan: Rc<Stmt>) -> Shape {
        let mut text = String::with_capacity(
            tokens
                .iter()
                .map(|t| match t {
                    Token::Ident(s) => s.len(),
                    _ => 0,
                })
                .sum(),
        );
        let key = tokens
            .iter()
            .map(|t| match t {
                Token::Ident(s) => {
                    text.push_str(s);
                    KeyToken::Ident(text.len() - s.len(), text.len())
                }
                Token::Punct(p) => KeyToken::Punct(p),
                Token::Slot(kind) => KeyToken::Slot(*kind),
                literal => unreachable!("literals were slotted: {literal:?}"),
            })
            .collect();
        Shape {
            hash,
            text: text.into_boxed_str(),
            key,
            plan,
        }
    }

    fn matches(&self, hash: u64, tokens: &[Token<'_>]) -> bool {
        let text = self.text.as_bytes();
        self.hash == hash
            && self.key.len() == tokens.len()
            && self.key.iter().zip(tokens).all(|(k, t)| match (k, t) {
                (KeyToken::Ident(start, end), Token::Ident(b)) => {
                    text[*start..*end] == *b.as_bytes()
                }
                (KeyToken::Punct(a), Token::Punct(b)) => a == b,
                (KeyToken::Slot(a), Token::Slot(b)) => a == b,
                _ => false,
            })
    }
}

/// The plans of the shapes a database has run (see the module docs).
#[derive(Debug, Default)]
pub struct Shapes {
    shapes: Vec<Shape>,
}

impl Shapes {
    /// The plan of one statement's tokens, with its literals to bind:
    /// looked up by shape, else parsed and kept.
    ///
    /// # Errors
    /// [`SqlError::Parse`], with the text parsing the literal tokens gives.
    pub fn bind(&mut self, mut tokens: Vec<Token<'_>>) -> Result<Bound, SqlError> {
        let (hash, binds) = slot_literals(&mut tokens);
        if let Some(shape) = self.shapes.iter().find(|s| s.matches(hash, &tokens)) {
            return Ok(Bound {
                plan: Rc::clone(&shape.plan),
                binds,
            });
        }
        let Ok(plan) = parse_tokens(&tokens) else {
            // An error names the token it stopped at: parse the statement
            // as written.
            unslot(&mut tokens, binds);
            let plan = parse_tokens(&tokens)?;
            return Ok(Bound {
                plan: Rc::new(plan),
                binds: Vec::new(),
            });
        };
        let plan = Rc::new(plan);
        if self.shapes.len() == CAPACITY {
            self.shapes.clear();
        }
        self.shapes
            .push(Shape::new(hash, &tokens, Rc::clone(&plan)));
        Ok(Bound { plan, binds })
    }
}

/// Replace every literal token by a slot of its kind; returns the hash of
/// the resulting shape and the literals' values, in order.
fn slot_literals(tokens: &mut [Token<'_>]) -> (u64, Vec<Value>) {
    let mut hash = MulHasher::default();
    let mut binds = Vec::new();
    for token in tokens {
        let (kind, value) = match token {
            Token::Ident(s) => {
                hash.write_u8(0);
                hash.write(s.as_bytes());
                continue;
            }
            Token::Punct(p) => {
                hash.write_u8(1);
                hash.write(p.as_bytes());
                continue;
            }
            Token::Int(v) => (Lit::Int, Value::Integer(*v)),
            Token::Float(v) => (Lit::Float, Value::Real(*v)),
            Token::Str(s) => (Lit::Str, Value::Text(std::mem::take(s).into_owned())),
            Token::Hex(b) => (Lit::Hex, Value::Blob(std::mem::take(b))),
            Token::Slot(_) => unreachable!("the tokenizer makes no slots"),
        };
        hash.write_u8(2 + kind as u8);
        *token = Token::Slot(kind);
        binds.push(value);
    }
    (hash.finish(), binds)
}

/// Put a statement's literals back in place of its slots.
fn unslot(tokens: &mut [Token<'_>], binds: Vec<Value>) {
    let mut binds = binds.into_iter();
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
    use crate::token::tokenize;

    fn bind(shapes: &mut Shapes, sql: &str) -> Result<Bound, SqlError> {
        shapes.bind(tokenize(sql).expect("lex"))
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
    fn a_full_cache_starts_over() {
        let mut shapes = Shapes::default();
        for i in 0..CAPACITY + 3 {
            bind(&mut shapes, &format!("SELECT a{i} FROM t WHERE id = {i}")).expect("bind");
        }
        assert_eq!(shapes.shapes.len(), 3);
    }
}
