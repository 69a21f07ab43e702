//! Error text is replicated state: a failing statement's `Display` string
//! travels in the PBFT reply and must match across replicas — and across
//! versions of this crate. The literals below were taken from commit 0f3ba65
//! (owned-`String` tokens, `Node`-based B+tree) with this file unchanged.

use minisql::{Database, DbOptions, MemVfs};

fn db() -> Database {
    let mut db = Database::open(
        Box::new(MemVfs::new()),
        Box::new(MemVfs::new()),
        DbOptions::default(),
    )
    .expect("open");
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL, w REAL)")
        .expect("create");
    db.execute("INSERT INTO t (id, name, w) VALUES (1, 'one', 1.5)")
        .expect("insert");
    db
}

#[test]
fn golden_error_display_strings() {
    let huge = format!("INSERT INTO t (name) VALUES ('{}')", "x".repeat(5000));
    let cases: &[(&str, &str)] = &[
        // Lexer.
        ("SELECT 'oops", "lex error: unterminated string literal"),
        ("SELECT x'abc'", "lex error: odd-length hex literal"),
        ("SELECT x'zz'", "lex error: bad hex digit 'z'"),
        ("SELECT 1 ? 2", "lex error: unexpected character '?'"),
        ("SELECT \"open", "lex error: unterminated quoted identifier"),
        (
            "SELECT 99999999999999999999",
            "lex error: bad integer literal 99999999999999999999",
        ),
        (
            "SELECT 'caf\u{e9}' # 1",
            "lex error: unexpected character '#'",
        ),
        ("SELECT \u{e9}", "lex error: unexpected character '\u{c3}'"),
        // Parser.
        (
            "DELETE FROM t WHERE",
            "parse error: unexpected end of input",
        ),
        ("SELEKT 1", "parse error: unknown statement selekt"),
        ("42", "parse error: statement cannot start with Int(42)"),
        (
            "SELECT FROM",
            "parse error: keyword FROM cannot be used as a column reference",
        ),
        (
            "SELECT 1 2",
            "parse error: unexpected trailing input at token 2",
        ),
        ("SELECT SUM(*)", "parse error: sum(*) is not valid"),
        ("SELECT (1", "parse error: expected \")\", found None"),
        ("SELECT 1 LIMIT 'x'", "parse error: bad LIMIT Str(\"x\")"),
        (
            "INSERT INTO t",
            "parse error: expected keyword values, found None",
        ),
        (
            "INSERT INTO t VALUES (1,",
            "parse error: unexpected end of input",
        ),
        (
            "INSERT INTO 'quoted' VALUES (1)",
            "parse error: expected identifier, found Str(\"quoted\")",
        ),
        (
            "CREATE TABLE u (a FANCYTYPE)",
            "parse error: unknown column type fancytype",
        ),
        (
            "CREATE TABLE u (a 7)",
            "parse error: expected type, found Int(7)",
        ),
        (
            "CREATE TABLE u a INTEGER",
            "parse error: expected \"(\", found Some(Ident(\"a\"))",
        ),
        (
            "UPDATE t SET name 'x'",
            "parse error: expected \"=\", found Some(Str(\"x\"))",
        ),
        (
            "DELETE t",
            "parse error: expected keyword from, found Some(Ident(\"t\"))",
        ),
        (
            "SELECT select FROM t",
            "parse error: keyword select cannot be used as a column reference",
        ),
        ("DROP TABLE", "parse error: unexpected end of input"),
        // Schema.
        (
            "SELECT * FROM missing",
            "schema error: no such table: missing",
        ),
        (
            "INSERT INTO Missing (a) VALUES (1)",
            "schema error: no such table: Missing",
        ),
        (
            "CREATE TABLE t (a INTEGER)",
            "schema error: table t already exists",
        ),
        (
            "CREATE TABLE u (a INTEGER, A TEXT)",
            "schema error: duplicate column A",
        ),
        (
            "CREATE TABLE u (a TEXT PRIMARY KEY)",
            "schema error: only INTEGER PRIMARY KEY is supported",
        ),
        (
            "CREATE TABLE u (a INTEGER PRIMARY KEY, b INTEGER PRIMARY KEY)",
            "schema error: multiple primary keys",
        ),
        (
            "INSERT INTO t (Nope) VALUES (1)",
            "schema error: no such column: Nope",
        ),
        (
            "INSERT INTO t (id, name) VALUES (1)",
            "schema error: 1 values for 2 columns",
        ),
        (
            "UPDATE t SET nope = 1",
            "schema error: no such column: nope",
        ),
        ("DROP TABLE missing", "schema error: no such table: missing"),
        // Constraints.
        (
            "INSERT INTO t (id, name) VALUES (1, 'dup')",
            "constraint violation: duplicate rowid 1",
        ),
        (
            "INSERT INTO t (id, name) VALUES (2, NULL)",
            "constraint violation: t.name is NOT NULL",
        ),
        (
            "INSERT INTO t (id, name) VALUES ('two', 'x')",
            "constraint violation: primary key must be an integer, got text",
        ),
        (
            "UPDATE t SET name = NULL WHERE id = 1",
            "constraint violation: t.name is NOT NULL",
        ),
        (
            "UPDATE t SET id = 'x' WHERE id = 1",
            "constraint violation: primary key must be an integer, got text",
        ),
        (
            "INSERT INTO t (id, name) VALUES (2, 'two'); UPDATE t SET id = 1 WHERE id = 2",
            "constraint violation: duplicate rowid 1",
        ),
        (&huge, "row of 5017 bytes exceeds the page payload limit"),
        // Runtime.
        ("SELECT nope FROM t", "runtime error: no such column: nope"),
        (
            "SELECT 1 + 'a'",
            "runtime error: arithmetic on integer and text",
        ),
        ("SELECT -'a'", "runtime error: cannot negate text"),
        (
            "SELECT nosuchfn(1)",
            "runtime error: no such function: nosuchfn",
        ),
        (
            "SELECT abs(1, 2)",
            "runtime error: abs() takes 1 argument(s), got 2",
        ),
        ("SELECT abs('a')", "runtime error: abs() of text"),
        (
            "SELECT * FROM t WHERE COUNT(*) > 1",
            "runtime error: aggregate used outside an aggregate query",
        ),
        // Transaction misuse.
        ("COMMIT", "transaction error: COMMIT outside a transaction"),
        (
            "ROLLBACK",
            "transaction error: ROLLBACK outside a transaction",
        ),
        ("BEGIN; BEGIN", "transaction error: nested BEGIN"),
    ];
    let mut wrong = Vec::new();
    for (sql, want) in cases {
        // A fresh database per case: an error inside BEGIN aborts the
        // transaction, and cases must not see each other.
        let got = match db().execute_script(sql) {
            Ok(out) => format!("Ok({out:?})"),
            Err(e) => e.to_string(),
        };
        if got != *want {
            wrong.push(format!("(\"{}\", {got:?}),", &sql[..sql.len().min(60)]));
        }
    }
    // The single-statement entry point (the read-only path of `SqlApp`).
    for (sql, want) in [
        ("", "parse error: empty statement"),
        ("   ", "parse error: empty statement"),
        (
            "SELECT 1; SELECT 2",
            "parse error: unexpected trailing input at token 3",
        ),
        (";", "parse error: statement cannot start with Punct(\";\")"),
    ] {
        let got = match db().execute(sql) {
            Ok(out) => format!("Ok({out:?})"),
            Err(e) => e.to_string(),
        };
        if got != want {
            wrong.push(format!("execute(\"{sql}\"): {got:?}"));
        }
    }
    assert!(wrong.is_empty(), "error text moved:\n{}", wrong.join("\n"));
}
