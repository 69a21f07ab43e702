//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::error::SqlError;
use crate::token::{Lit, Token};
use crate::value::Value;

/// Parse one statement's tokens (a trailing semicolon is allowed). A
/// [`Token::Slot`] parses as the next [`Expr::Param`] wherever a literal
/// may stand; a literal in any other place is an error either way, so a
/// statement's slotted tokens parse exactly when its literal ones do.
///
/// # Errors
/// [`SqlError::Parse`] on a malformed statement.
pub fn parse_tokens(tokens: &[Token<'_>]) -> Result<Stmt, SqlError> {
    let mut p = Parser {
        tokens,
        pos: 0,
        params: 0,
    };
    let stmt = p.statement()?;
    p.eat_punct(";");
    if p.pos != p.tokens.len() {
        return Err(SqlError::Parse(format!(
            "unexpected trailing input at token {}",
            p.pos
        )));
    }
    Ok(stmt)
}

/// Parse one SQL statement (a trailing semicolon is allowed).
///
/// # Errors
/// [`SqlError::Lex`] / [`SqlError::Parse`] on malformed input.
#[cfg(test)]
pub fn parse(sql: &str) -> Result<Stmt, SqlError> {
    parse_tokens(&crate::token::tokenize(sql)?)
}

/// Parse every statement of a script.
///
/// # Errors
/// Propagates the first statement error.
#[cfg(test)]
pub fn parse_script(sql: &str) -> Result<Vec<Stmt>, SqlError> {
    crate::token::statements(sql)
        .map(|tokens| parse_tokens(&tokens?))
        .collect()
}

/// Keywords that cannot appear as bare column references.
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "order", "by", "limit", "insert", "into", "update",
    "delete", "create", "drop", "table", "values", "set", "begin", "commit", "rollback", "as",
];

struct Parser<'a> {
    tokens: &'a [Token<'a>],
    pos: usize,
    /// Slots taken so far: the index of the next [`Expr::Param`]. The
    /// parser never looks back, so slots are taken in token order.
    params: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    /// Take the next token. A copy costs nothing but for a literal's
    /// text, and literals are slotted out of every statement but one that
    /// fails to parse.
    fn next(&mut self) -> Result<Token<'a>, SqlError> {
        let token = self
            .tokens
            .get(self.pos)
            .ok_or_else(|| SqlError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(token.clone())
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(Token::Punct(q)) if *q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), SqlError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected {p:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn param(&mut self) -> usize {
        self.params += 1;
        self.params - 1
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.next()? {
            Token::Ident(s) => Ok(s.to_owned()),
            other => Err(SqlError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn statement(&mut self) -> Result<Stmt, SqlError> {
        let kw = match self.peek() {
            None => return Err(SqlError::Parse("empty statement".into())),
            Some(Token::Ident(kw)) => *kw,
            Some(head) => {
                return Err(SqlError::Parse(format!(
                    "statement cannot start with {head:?}"
                )))
            }
        };
        let is = |name: &str| kw.eq_ignore_ascii_case(name);
        if is("create") {
            self.create_table()
        } else if is("drop") {
            self.drop_table()
        } else if is("insert") {
            self.insert()
        } else if is("select") {
            Ok(Stmt::Select(Box::new(self.select()?)))
        } else if is("update") {
            self.update()
        } else if is("delete") {
            self.delete()
        } else if is("begin") {
            self.pos += 1;
            self.eat_kw("transaction");
            Ok(Stmt::Begin)
        } else if is("commit") {
            self.pos += 1;
            Ok(Stmt::Commit)
        } else if is("rollback") {
            self.pos += 1;
            Ok(Stmt::Rollback)
        } else {
            Err(SqlError::Parse(format!(
                "unknown statement {}",
                kw.to_ascii_lowercase()
            )))
        }
    }

    fn create_table(&mut self) -> Result<Stmt, SqlError> {
        self.expect_kw("create")?;
        self.expect_kw("table")?;
        let if_not_exists = if self.eat_kw("if") {
            self.expect_kw("not")?;
            self.expect_kw("exists")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident()?;
            let ctype = match self.next()? {
                Token::Ident(t) => match t.to_ascii_lowercase().as_str() {
                    "integer" | "int" => ColType::Integer,
                    "real" | "float" | "double" => ColType::Real,
                    "text" | "varchar" | "char" | "string" => ColType::Text,
                    "blob" => ColType::Blob,
                    other => return Err(SqlError::Parse(format!("unknown column type {other}"))),
                },
                other => return Err(SqlError::Parse(format!("expected type, found {other:?}"))),
            };
            let mut primary_key = false;
            let mut not_null = false;
            loop {
                if self.eat_kw("primary") {
                    self.expect_kw("key")?;
                    primary_key = true;
                } else if self.eat_kw("not") {
                    self.expect_kw("null")?;
                    not_null = true;
                } else {
                    break;
                }
            }
            columns.push(ColumnDef {
                name: col_name,
                ctype,
                primary_key,
                not_null,
            });
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(")")?;
        Ok(Stmt::CreateTable {
            name,
            columns,
            if_not_exists,
        })
    }

    fn drop_table(&mut self) -> Result<Stmt, SqlError> {
        self.expect_kw("drop")?;
        self.expect_kw("table")?;
        let if_exists = if self.eat_kw("if") {
            self.expect_kw("exists")?;
            true
        } else {
            false
        };
        Ok(Stmt::DropTable {
            name: self.ident()?,
            if_exists,
        })
    }

    fn insert(&mut self) -> Result<Stmt, SqlError> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat_punct("(") {
            loop {
                columns.push(self.ident()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_punct("(")?;
            let mut vals = Vec::new();
            loop {
                vals.push(self.expr()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
            rows.push(vals);
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(Stmt::Insert {
            table,
            columns,
            rows,
        })
    }

    fn select(&mut self) -> Result<SelectStmt, SqlError> {
        self.expect_kw("select")?;
        let mut items = Vec::new();
        loop {
            if self.eat_punct("*") {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_punct(",") {
                break;
            }
        }
        let from = if self.eat_kw("from") {
            Some(self.ident()?)
        } else {
            None
        };
        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderBy { expr, desc });
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            Some(match self.next()? {
                Token::Int(n) if n >= 0 => Limit::Value(n as u64),
                Token::Slot(Lit::Int) => Limit::Param(self.param()),
                other => return Err(SqlError::Parse(format!("bad LIMIT {other:?}"))),
            })
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            filter,
            group_by,
            order_by,
            limit,
        })
    }

    fn update(&mut self) -> Result<Stmt, SqlError> {
        self.expect_kw("update")?;
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_punct("=")?;
            sets.push((col, self.expr()?));
            if !self.eat_punct(",") {
                break;
            }
        }
        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Update {
            table,
            sets,
            filter,
        })
    }

    fn delete(&mut self) -> Result<Stmt, SqlError> {
        self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let table = self.ident()?;
        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Delete { table, filter })
    }

    // Expression precedence (loosest to tightest):
    // OR < AND < NOT < comparison/LIKE/IS < add < mul < unary < primary
    fn expr(&mut self) -> Result<Expr, SqlError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = Expr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, SqlError> {
        if self.eat_kw("not") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr, SqlError> {
        let left = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Punct("=")) => Some(BinOp::Eq),
            Some(Token::Punct("!=")) => Some(BinOp::Ne),
            Some(Token::Punct("<")) => Some(BinOp::Lt),
            Some(Token::Punct("<=")) => Some(BinOp::Le),
            Some(Token::Punct(">")) => Some(BinOp::Gt),
            Some(Token::Punct(">=")) => Some(BinOp::Ge),
            Some(t) if t.is_kw("like") => Some(BinOp::Like),
            Some(t) if t.is_kw("is") => {
                self.pos += 1;
                let negated = self.eat_kw("not");
                self.expect_kw("null")?;
                return Ok(Expr::IsNull {
                    expr: Box::new(left),
                    negated,
                });
            }
            _ => None,
        };
        match op {
            Some(op) => {
                self.pos += 1;
                let right = self.add_expr()?;
                Ok(Expr::Binary {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                })
            }
            None => Ok(left),
        }
    }

    fn add_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Punct("+")) => BinOp::Add,
                Some(Token::Punct("-")) => BinOp::Sub,
                Some(Token::Punct("||")) => BinOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let right = self.mul_expr()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Punct("*")) => BinOp::Mul,
                Some(Token::Punct("/")) => BinOp::Div,
                Some(Token::Punct("%")) => BinOp::Rem,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary_expr()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr, SqlError> {
        if self.eat_punct("-") {
            Ok(Expr::Neg(Box::new(self.unary_expr()?)))
        } else if self.eat_punct("+") {
            self.unary_expr()
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr, SqlError> {
        match self.next()? {
            Token::Int(v) => Ok(Expr::Literal(Value::Integer(v))),
            Token::Float(v) => Ok(Expr::Literal(Value::Real(v))),
            Token::Str(s) => Ok(Expr::Literal(Value::Text(s.into_owned()))),
            Token::Hex(b) => Ok(Expr::Literal(Value::Blob(b))),
            Token::Slot(_) => Ok(Expr::Param(self.param())),
            Token::Punct("(") => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Token::Ident(name) => {
                if name.eq_ignore_ascii_case("null") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if name.eq_ignore_ascii_case("true") {
                    return Ok(Expr::Literal(Value::Integer(1)));
                }
                if name.eq_ignore_ascii_case("false") {
                    return Ok(Expr::Literal(Value::Integer(0)));
                }
                if self.eat_punct("(") {
                    return self.call(name.to_ascii_lowercase());
                }
                if RESERVED.iter().any(|kw| name.eq_ignore_ascii_case(kw)) {
                    return Err(SqlError::Parse(format!(
                        "keyword {name} cannot be used as a column reference"
                    )));
                }
                Ok(Expr::Column(name.to_owned()))
            }
            other => Err(SqlError::Parse(format!("unexpected token {other:?}"))),
        }
    }

    fn call(&mut self, name: String) -> Result<Expr, SqlError> {
        let agg = match name.as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        };
        if let Some(func) = agg {
            if self.eat_punct("*") {
                self.expect_punct(")")?;
                if func != AggFunc::Count {
                    return Err(SqlError::Parse(format!("{name}(*) is not valid")));
                }
                return Ok(Expr::Aggregate { func, arg: None });
            }
            let arg = self.expr()?;
            self.expect_punct(")")?;
            return Ok(Expr::Aggregate {
                func,
                arg: Some(Box::new(arg)),
            });
        }
        let mut args = Vec::new();
        if !self.eat_punct(")") {
            loop {
                args.push(self.expr()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        Ok(Expr::Call { name, args })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_full() {
        let stmt = parse(
            "CREATE TABLE IF NOT EXISTS votes (id INTEGER PRIMARY KEY, voter TEXT NOT NULL, w REAL, raw BLOB);",
        )
        .expect("parse");
        match stmt {
            Stmt::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                assert_eq!(name, "votes");
                assert!(if_not_exists);
                assert_eq!(columns.len(), 4);
                assert!(columns[0].primary_key);
                assert!(columns[1].not_null);
                assert_eq!(columns[2].ctype, ColType::Real);
                assert_eq!(columns[3].ctype, ColType::Blob);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_multi_row() {
        let stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").expect("parse");
        match stmt {
            Stmt::Insert {
                table,
                columns,
                rows,
            } => {
                assert_eq!(table, "t");
                assert_eq!(columns, vec!["a", "b"]);
                assert_eq!(rows.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_everything() {
        let stmt = parse(
            "SELECT a, COUNT(*) AS n FROM t WHERE a > 3 AND b IS NOT NULL GROUP BY a ORDER BY n DESC, a LIMIT 10",
        )
        .expect("parse");
        match stmt {
            Stmt::Select(s) => {
                assert_eq!(s.items.len(), 2);
                assert_eq!(s.from.as_deref(), Some("t"));
                assert!(s.filter.is_some());
                assert_eq!(s.group_by.len(), 1);
                assert_eq!(s.order_by.len(), 2);
                assert!(s.order_by[0].desc);
                assert_eq!(s.limit, Some(Limit::Value(10)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let stmt = parse("SELECT 1 + 2 * 3").expect("parse");
        match stmt {
            Stmt::Select(s) => match &s.items[0] {
                SelectItem::Expr {
                    expr:
                        Expr::Binary {
                            op: BinOp::Add,
                            right,
                            ..
                        },
                    ..
                } => {
                    assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_and_delete() {
        assert!(matches!(
            parse("UPDATE t SET a = a + 1 WHERE id = 5").expect("parse"),
            Stmt::Update { .. }
        ));
        assert!(matches!(
            parse("DELETE FROM t WHERE a LIKE 'x%'").expect("parse"),
            Stmt::Delete { .. }
        ));
    }

    #[test]
    fn transactions() {
        assert_eq!(parse("BEGIN").expect("parse"), Stmt::Begin);
        assert_eq!(parse("BEGIN TRANSACTION").expect("parse"), Stmt::Begin);
        assert_eq!(parse("COMMIT;").expect("parse"), Stmt::Commit);
        assert_eq!(parse("ROLLBACK").expect("parse"), Stmt::Rollback);
    }

    #[test]
    fn script_splitting() {
        let stmts =
            parse_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1); SELECT ';' ")
                .expect("parse");
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("SELEKT 1").is_err());
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("INSERT INTO t").is_err());
        assert!(parse("CREATE TABLE t (a FANCYTYPE)").is_err());
        assert!(parse("SELECT 1 2").is_err());
        assert!(parse("SELECT SUM(*)").is_err());
    }

    #[test]
    fn functions_and_aggregates() {
        let stmt = parse("SELECT length(name), now(), random(), MAX(age) FROM t").expect("parse");
        match stmt {
            Stmt::Select(s) => {
                assert_eq!(s.items.len(), 4);
                assert!(matches!(
                    &s.items[3],
                    SelectItem::Expr {
                        expr: Expr::Aggregate {
                            func: AggFunc::Max,
                            ..
                        },
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }
}
