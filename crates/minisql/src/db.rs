//! The database engine: statement execution over the pager/B+tree storage.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::ast::*;
use crate::btree::{BTree, Tail};
use crate::env::{Env, SystemEnv};
use crate::error::SqlError;
use crate::pager::{IoStats, JournalMode, Pager};
use crate::record::{decode_row, encode_row, encode_row_into};
use crate::schema::{delete_table, load_catalog, save_new_table, TableSchema};
use crate::shape::Shapes;
use crate::token::Lexer;
use crate::value::Value;
use crate::vfs::Vfs;

/// Result rows from a query.
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    /// Output column names.
    pub columns: Vec<String>,
    /// Row values.
    pub rows: Vec<Vec<Value>>,
}

/// Outcome of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// SELECT results.
    Rows(Rows),
    /// Rows affected by INSERT/UPDATE/DELETE.
    Affected(u64),
    /// DDL / transaction control.
    Done,
}

/// Database configuration.
pub struct DbOptions {
    /// Journal / durability mode (paper §4.2's ACID axis).
    pub journal_mode: JournalMode,
    /// WAL auto-checkpoint threshold in committed frames (WAL mode only).
    pub wal_autocheckpoint: u64,
    /// Environment for `now()` / `random()`.
    pub env: Box<dyn Env>,
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            journal_mode: JournalMode::Rollback,
            wal_autocheckpoint: crate::pager::DEFAULT_WAL_AUTOCHECKPOINT,
            env: Box::new(SystemEnv::default()),
        }
    }
}

impl std::fmt::Debug for DbOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbOptions")
            .field("journal_mode", &self.journal_mode)
            .finish()
    }
}

/// An open database.
pub struct Database {
    pager: Pager,
    env: Box<dyn Env>,
    catalog: Option<BTreeMap<String, Rc<TableSchema>>>,
    in_txn: bool,
    /// Plans by statement shape (parse once per shape).
    shapes: Shapes,
    /// The literals of the statement being executed, which its plan's
    /// [`Expr::Param`]s index; reused from statement to statement.
    binds: Vec<Value>,
    /// The tail of the tree the last INSERT appended to. Dropped by every
    /// other write, a rollback, a failed commit and a cache invalidation,
    /// so the cached pages it describes have changed only through it.
    tail: Option<Tail>,
    /// The row an INSERT evaluates into and its encoding, reused from row
    /// to row: a text or blob value is copied into the buffer its slot
    /// already holds.
    row: Vec<Value>,
    record: Vec<u8>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("pager", &self.pager)
            .field("in_txn", &self.in_txn)
            .finish()
    }
}

impl Database {
    /// Open (or create) a database over the given VFS pair. Journal recovery
    /// runs here — "an uncommitted transaction will be rolled back on the
    /// next attempt to access the database file" (§3.2).
    ///
    /// # Errors
    /// Storage failures or a corrupt file.
    pub fn open(
        db: Box<dyn Vfs>,
        journal: Box<dyn Vfs>,
        opts: DbOptions,
    ) -> Result<Database, SqlError> {
        let mut pager = Pager::open(db, journal, opts.journal_mode)?;
        pager.set_wal_autocheckpoint(opts.wal_autocheckpoint);
        Ok(Database {
            pager,
            env: opts.env,
            catalog: None,
            in_txn: false,
            shapes: Shapes::default(),
            binds: Vec::new(),
            tail: None,
            row: Vec::new(),
            record: Vec::new(),
        })
    }

    /// Fold the WAL into the database file now (no-op outside WAL mode).
    ///
    /// # Errors
    /// Storage failures.
    pub fn wal_checkpoint(&mut self) -> Result<(), SqlError> {
        self.pager.wal_checkpoint()
    }

    /// Committed frames currently in the WAL (0 outside WAL mode).
    pub fn wal_frames(&self) -> u64 {
        self.pager.wal_frames()
    }

    /// Total pages in the database file (including uncommitted extensions).
    pub fn page_count(&self) -> u32 {
        self.pager.page_count()
    }

    /// Whether an uncommitted transaction is in progress.
    pub fn has_uncommitted(&self) -> bool {
        self.pager.has_dirty()
    }

    /// Drain I/O statistics (for execution-cost accounting).
    pub fn take_io_stats(&mut self) -> IoStats {
        self.pager.take_stats()
    }

    /// Read access to the backing database file (snapshots, diagnostics).
    pub fn db_file(&self) -> &dyn Vfs {
        self.pager.db_vfs()
    }

    /// Read access to the rollback journal file.
    pub fn journal_file(&self) -> &dyn Vfs {
        self.pager.journal_vfs()
    }

    /// Drop all caches because the backing file changed underneath (PBFT
    /// state transfer).
    ///
    /// # Errors
    /// [`SqlError::Corrupt`] if the new content is not a database.
    pub fn invalidate_cache(&mut self) -> Result<(), SqlError> {
        self.catalog = None;
        self.in_txn = false;
        self.tail = None;
        self.pager.invalidate_cache()
    }

    /// Execute one statement.
    ///
    /// # Errors
    /// Parse/validation/storage errors. Outside an explicit transaction the
    /// statement is atomic; inside one, an error aborts the whole
    /// transaction (a documented simplification vs. SQLite's statement-level
    /// rollback).
    pub fn execute(&mut self, sql: &str) -> Result<ExecOutcome, SqlError> {
        let plan = self.bind(sql)?;
        self.execute_stmt(&plan)
    }

    /// Execute one statement if it is a SELECT; `Ok(None)` if it is not,
    /// and then nothing ran — the read-only path, which must leave the
    /// database as it found it. Inside an explicit transaction it runs
    /// nothing: a SELECT would read uncommitted rows, and a failing one
    /// would roll the transaction back.
    ///
    /// # Errors
    /// [`SqlError::Txn`] while an explicit transaction is open; otherwise
    /// as [`Database::execute`].
    pub fn execute_select(&mut self, sql: &str) -> Result<Option<Rows>, SqlError> {
        if self.in_txn {
            return Err(SqlError::Txn(
                "read-only statement inside an open transaction".into(),
            ));
        }
        let plan = self.bind(sql)?;
        if !matches!(*plan, Stmt::Select(_)) {
            return Ok(None);
        }
        match self.execute_stmt(&plan)? {
            ExecOutcome::Rows(rows) => Ok(Some(rows)),
            other => unreachable!("a SELECT produced {other:?}"),
        }
    }

    /// Execute several `;`-separated statements; returns the last outcome.
    /// Every statement is parsed before the first one runs, so a script
    /// with a syntax error anywhere executes nothing. A one-statement
    /// script binds straight into the reused literal buffer, as
    /// [`Database::execute`] does.
    ///
    /// # Errors
    /// Stops at the first failing statement.
    pub fn execute_script(&mut self, sql: &str) -> Result<ExecOutcome, SqlError> {
        let mut lexer = Lexer::new(sql);
        if lexer.skip_empty() {
            return Ok(ExecOutcome::Done);
        }
        let first = self.shapes.bind(&mut lexer, true, &mut self.binds)?;
        let mut rest = Vec::new();
        while !lexer.skip_empty() {
            let mut binds = Vec::new();
            let plan = self.shapes.bind(&mut lexer, true, &mut binds)?;
            rest.push((plan, binds));
        }
        let mut last = self.execute_stmt(&first)?;
        for (plan, binds) in rest {
            self.binds = binds;
            last = self.execute_stmt(&plan)?;
        }
        Ok(last)
    }

    /// Convenience: execute and expect rows.
    ///
    /// # Errors
    /// As [`Database::execute`], plus a runtime error when the statement
    /// produced no rows.
    pub fn query(&mut self, sql: &str) -> Result<Rows, SqlError> {
        match self.execute(sql)? {
            ExecOutcome::Rows(r) => Ok(r),
            other => Err(SqlError::Runtime(format!(
                "statement produced {other:?}, not rows"
            ))),
        }
    }

    /// The plan of one statement, its literals bound.
    fn bind(&mut self, sql: &str) -> Result<Rc<Stmt>, SqlError> {
        self.shapes
            .bind(&mut Lexer::new(sql), false, &mut self.binds)
    }

    fn execute_stmt(&mut self, stmt: &Stmt) -> Result<ExecOutcome, SqlError> {
        match stmt {
            Stmt::Begin => {
                if self.in_txn {
                    return Err(SqlError::Txn("nested BEGIN".into()));
                }
                self.in_txn = true;
                return Ok(ExecOutcome::Done);
            }
            Stmt::Commit => {
                if !self.in_txn {
                    return Err(SqlError::Txn("COMMIT outside a transaction".into()));
                }
                self.commit()?;
                self.in_txn = false;
                return Ok(ExecOutcome::Done);
            }
            Stmt::Rollback => {
                if !self.in_txn {
                    return Err(SqlError::Txn("ROLLBACK outside a transaction".into()));
                }
                self.rollback();
                return Ok(ExecOutcome::Done);
            }
            _ => {}
        }
        let result = self.run(stmt);
        match result {
            Ok(outcome) => {
                if !self.in_txn {
                    self.commit()?;
                }
                Ok(outcome)
            }
            Err(e) => {
                self.rollback();
                Err(e)
            }
        }
    }

    fn commit(&mut self) -> Result<(), SqlError> {
        self.pager.commit().inspect_err(|_| self.tail = None)
    }

    /// Drop the transaction: the pager's uncommitted pages, and everything
    /// read from them.
    fn rollback(&mut self) {
        self.pager.rollback();
        self.catalog = None;
        self.tail = None;
        self.in_txn = false;
    }

    fn run(&mut self, stmt: &Stmt) -> Result<ExecOutcome, SqlError> {
        // An INSERT appends through the kept tail and a SELECT reads; every
        // other statement may change the pages the tail describes.
        if !matches!(stmt, Stmt::Insert { .. } | Stmt::Select(_)) {
            self.tail = None;
        }
        match stmt {
            Stmt::CreateTable {
                name,
                columns,
                if_not_exists,
            } => self.create_table(name, columns, *if_not_exists),
            Stmt::DropTable { name, if_exists } => self.drop_table(name, *if_exists),
            Stmt::Insert {
                table,
                columns,
                rows,
            } => self.insert(table, columns, rows),
            Stmt::Select(s) => Ok(ExecOutcome::Rows(self.select(s)?)),
            Stmt::Update {
                table,
                sets,
                filter,
            } => self.update(table, sets, filter.as_ref()),
            Stmt::Delete { table, filter } => self.delete(table, filter.as_ref()),
            Stmt::Begin | Stmt::Commit | Stmt::Rollback => unreachable!("handled above"),
        }
    }

    // ------------------------------------------------------------------
    // Catalog
    // ------------------------------------------------------------------

    fn catalog(&mut self) -> Result<&BTreeMap<String, Rc<TableSchema>>, SqlError> {
        if self.catalog.is_none() {
            self.catalog = Some(load_catalog(&mut self.pager)?);
        }
        Ok(self.catalog.as_ref().expect("just loaded"))
    }

    /// The schema of a table, shared with the cached catalog.
    fn table(&mut self, name: &str) -> Result<Rc<TableSchema>, SqlError> {
        // The catalog is keyed by lower-case name; most statements spell the
        // table that way already.
        let key: Cow<'_, str> = if name.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(name.to_ascii_lowercase())
        } else {
            Cow::Borrowed(name)
        };
        self.catalog()?
            .get(key.as_ref())
            .cloned()
            .ok_or_else(|| SqlError::Schema(format!("no such table: {name}")))
    }

    fn create_table(
        &mut self,
        name: &str,
        columns: &[ColumnDef],
        if_not_exists: bool,
    ) -> Result<ExecOutcome, SqlError> {
        if columns.is_empty() {
            return Err(SqlError::Schema("a table needs at least one column".into()));
        }
        let mut seen = Vec::new();
        for c in columns {
            let lower = c.name.to_ascii_lowercase();
            if seen.contains(&lower) {
                return Err(SqlError::Schema(format!("duplicate column {}", c.name)));
            }
            seen.push(lower);
            if c.primary_key && c.ctype != ColType::Integer {
                return Err(SqlError::Schema(
                    "only INTEGER PRIMARY KEY is supported".into(),
                ));
            }
        }
        if columns.iter().filter(|c| c.primary_key).count() > 1 {
            return Err(SqlError::Schema("multiple primary keys".into()));
        }
        if self.catalog()?.contains_key(&name.to_ascii_lowercase()) {
            if if_not_exists {
                return Ok(ExecOutcome::Done);
            }
            return Err(SqlError::Schema(format!("table {name} already exists")));
        }
        let tree = BTree::create(&mut self.pager)?;
        let mut schema = TableSchema {
            id: 0,
            name: name.to_owned(),
            columns: columns.to_vec(),
            root: tree.root,
        };
        save_new_table(&mut self.pager, &mut schema)?;
        self.catalog = None;
        Ok(ExecOutcome::Done)
    }

    fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<ExecOutcome, SqlError> {
        let schema = match self.table(name) {
            Ok(s) => s,
            Err(_) if if_exists => return Ok(ExecOutcome::Done),
            Err(e) => return Err(e),
        };
        BTree { root: schema.root }.destroy(&mut self.pager)?;
        delete_table(&mut self.pager, schema.id)?;
        self.catalog = None;
        Ok(ExecOutcome::Done)
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    fn insert(
        &mut self,
        table: &str,
        columns: &[String],
        rows: &[Vec<Expr>],
    ) -> Result<ExecOutcome, SqlError> {
        let mut row = std::mem::take(&mut self.row);
        let mut record = std::mem::take(&mut self.record);
        let result = self.insert_rows(table, columns, rows, &mut row, &mut record);
        self.row = row;
        self.record = record;
        result
    }

    /// [`Database::insert`] with its row and record buffers.
    fn insert_rows(
        &mut self,
        table: &str,
        columns: &[String],
        rows: &[Vec<Expr>],
        row: &mut Vec<Value>,
        record: &mut Vec<u8>,
    ) -> Result<ExecOutcome, SqlError> {
        let schema = self.table(table)?;
        let tree = BTree { root: schema.root };
        // Every named column exists, before any value is evaluated; a
        // tuple's values go to the named columns, or to all of them in
        // order.
        if let Some(c) = columns.iter().find(|c| schema.column_index(c).is_none()) {
            return Err(SqlError::Schema(format!("no such column: {c}")));
        }
        let width = if columns.is_empty() {
            schema.columns.len()
        } else {
            columns.len()
        };
        let mut affected = 0u64;
        // The end of the table — the largest rowid, and the leaf where every
        // larger one is appended: kept from the last INSERT into it, else
        // one descent.
        let mut tail = tree.resume_tail(&mut self.pager, self.tail.take())?;
        let mut next_rowid = tree.max_key_at(&mut self.pager, &tail)?.unwrap_or(0) + 1;
        row.resize(schema.columns.len(), Value::Null);
        for tuple in rows {
            if tuple.len() != width {
                return Err(SqlError::Schema(format!(
                    "{} values for {} columns",
                    tuple.len(),
                    width
                )));
            }
            // A slot the tuple does not name is NULL; one it names keeps its
            // buffer for the value. `named` tracks the first 64 slots; a
            // wider table's other slots are cleared first.
            let mut named = 0u64;
            for slot in row.iter_mut().skip(64) {
                *slot = Value::Null;
            }
            for (i, expr) in tuple.iter().enumerate() {
                let idx = match columns.get(i) {
                    Some(c) => schema.column_index(c).expect("checked above"),
                    None => i,
                };
                self.eval_into(expr, &mut row[idx])?;
                let v = std::mem::replace(&mut row[idx], Value::Null);
                row[idx] = coerce(v, schema.columns[idx].ctype)?;
                named |= 1u64.checked_shl(idx as u32).unwrap_or(0);
            }
            for (idx, slot) in row.iter_mut().enumerate().take(64) {
                if named & (1 << idx) == 0 {
                    *slot = Value::Null;
                }
            }
            // Rowid assignment via the INTEGER PRIMARY KEY alias.
            let rowid = match schema.pk_index() {
                Some(pk) => match &row[pk] {
                    Value::Null => {
                        let id = next_rowid;
                        row[pk] = Value::Integer(id);
                        id
                    }
                    Value::Integer(i) => *i,
                    other => {
                        return Err(SqlError::Constraint(format!(
                            "primary key must be an integer, got {}",
                            other.type_name()
                        )))
                    }
                },
                None => next_rowid,
            };
            next_rowid = next_rowid.max(rowid + 1);
            for (i, c) in schema.columns.iter().enumerate() {
                if c.not_null && row[i].is_null() {
                    return Err(SqlError::Constraint(format!(
                        "{}.{} is NOT NULL",
                        table, c.name
                    )));
                }
            }
            encode_row_into(row, record);
            tree.append(&mut self.pager, &mut tail, rowid, record)?;
            affected += 1;
        }
        self.tail = Some(tail);
        Ok(ExecOutcome::Affected(affected))
    }

    /// Rows of a table, honoring a `pk = literal` point-lookup fast path.
    fn scan(
        &mut self,
        schema: &TableSchema,
        filter: Option<&Expr>,
    ) -> Result<Vec<(i64, Vec<Value>)>, SqlError> {
        let tree = BTree { root: schema.root };
        if let Some(rowid) = filter.and_then(|f| pk_eq_literal(f, schema, &self.binds)) {
            return match tree.get(&mut self.pager, rowid)? {
                Some(payload) => Ok(vec![(rowid, decode_row(payload)?)]),
                None => Ok(Vec::new()),
            };
        }
        // Rows are decoded straight from the cached pages; the filter runs
        // once the walk has released the pager.
        let mut rows = Vec::new();
        tree.scan(&mut self.pager, |rowid, payload| {
            rows.push((rowid, decode_row(payload)?));
            Ok(())
        })?;
        let Some(f) = filter else {
            return Ok(rows);
        };
        let mut out = Vec::new();
        for (rowid, row) in rows {
            if self.eval(f, &Ctx::row(schema, &row))?.is_truthy() {
                out.push((rowid, row));
            }
        }
        Ok(out)
    }

    fn update(
        &mut self,
        table: &str,
        sets: &[(String, Expr)],
        filter: Option<&Expr>,
    ) -> Result<ExecOutcome, SqlError> {
        let schema = self.table(table)?;
        let tree = BTree { root: schema.root };
        let set_indices: Vec<(usize, &Expr)> = sets
            .iter()
            .map(|(c, e)| {
                schema
                    .column_index(c)
                    .map(|i| (i, e))
                    .ok_or_else(|| SqlError::Schema(format!("no such column: {c}")))
            })
            .collect::<Result<_, _>>()?;
        let matching = self.scan(&schema, filter)?;
        let mut affected = 0u64;
        for (rowid, row) in matching {
            let mut new_row = row.clone();
            for (idx, expr) in &set_indices {
                let v = self.eval(expr, &Ctx::row(&schema, &row))?;
                new_row[*idx] = coerce(v, schema.columns[*idx].ctype)?;
            }
            for (i, c) in schema.columns.iter().enumerate() {
                if c.not_null && new_row[i].is_null() {
                    return Err(SqlError::Constraint(format!(
                        "{}.{} is NOT NULL",
                        table, c.name
                    )));
                }
            }
            // A changed primary key moves the row.
            let new_rowid = match schema.pk_index() {
                Some(pk) => match &new_row[pk] {
                    Value::Integer(i) => *i,
                    other => {
                        return Err(SqlError::Constraint(format!(
                            "primary key must be an integer, got {}",
                            other.type_name()
                        )))
                    }
                },
                None => rowid,
            };
            if new_rowid != rowid {
                tree.delete(&mut self.pager, rowid)?;
                tree.insert(&mut self.pager, new_rowid, &encode_row(&new_row))?;
            } else {
                tree.update(&mut self.pager, rowid, &encode_row(&new_row))?;
            }
            affected += 1;
        }
        Ok(ExecOutcome::Affected(affected))
    }

    fn delete(&mut self, table: &str, filter: Option<&Expr>) -> Result<ExecOutcome, SqlError> {
        let schema = self.table(table)?;
        let tree = BTree { root: schema.root };
        if filter.is_none() {
            let mut count = 0u64;
            tree.scan(&mut self.pager, |_, _| {
                count += 1;
                Ok(())
            })?;
            tree.clear(&mut self.pager)?;
            return Ok(ExecOutcome::Affected(count));
        }
        let matching = self.scan(&schema, filter)?;
        let mut affected = 0u64;
        for (rowid, _) in matching {
            tree.delete(&mut self.pager, rowid)?;
            affected += 1;
        }
        Ok(ExecOutcome::Affected(affected))
    }

    // ------------------------------------------------------------------
    // SELECT
    // ------------------------------------------------------------------

    fn select(&mut self, s: &SelectStmt) -> Result<Rows, SqlError> {
        let table = match &s.from {
            Some(t) => Some(self.table(t)?),
            None => None,
        };
        let schema = table.as_deref();
        let source: Vec<(i64, Vec<Value>)> = match schema {
            Some(sch) => self.scan(sch, s.filter.as_ref())?,
            None => {
                // FROM-less SELECT: one synthetic row (with WHERE applied).
                let keep = match &s.filter {
                    Some(f) => self.eval(f, &Ctx::none())?.is_truthy(),
                    None => true,
                };
                if keep {
                    vec![(0, Vec::new())]
                } else {
                    Vec::new()
                }
            }
        };

        let aggregate_mode = !s.group_by.is_empty()
            || s.items
                .iter()
                .any(|i| matches!(i, SelectItem::Expr { expr, .. } if contains_aggregate(expr)));

        let columns = self.output_names(s, schema);
        let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::new(); // (order keys, output)

        if aggregate_mode {
            // Group rows: (group key, member rows borrowed from `source`).
            type Groups<'a> = Vec<(Vec<Value>, Vec<&'a (i64, Vec<Value>)>)>;
            let mut groups: Groups<'_> = Vec::new();
            for row in &source {
                let key: Vec<Value> = s
                    .group_by
                    .iter()
                    .map(|e| self.eval(e, &Ctx::maybe(schema, Some(&row.1))))
                    .collect::<Result<_, _>>()?;
                match groups.iter_mut().find(|(k, _)| {
                    k.len() == key.len()
                        && k.iter()
                            .zip(&key)
                            .all(|(a, b)| a.total_cmp(b) == Ordering::Equal)
                }) {
                    Some((_, members)) => members.push(row),
                    None => groups.push((key, vec![row])),
                }
            }
            if groups.is_empty() && s.group_by.is_empty() {
                // Aggregate over an empty source still yields one row.
                groups.push((Vec::new(), Vec::new()));
            }
            for (_, members) in &groups {
                let rows: Vec<&[Value]> = members.iter().map(|(_, r)| r.as_slice()).collect();
                let mut out_row = Vec::new();
                for item in &s.items {
                    match item {
                        SelectItem::Wildcard => {
                            if let Some(first) = rows.first() {
                                out_row.extend(first.iter().cloned());
                            }
                        }
                        SelectItem::Expr { expr, .. } => {
                            out_row.push(self.eval_agg(expr, schema, &rows)?);
                        }
                    }
                }
                let order_keys: Vec<Value> = s
                    .order_by
                    .iter()
                    .map(|o| self.eval_agg(&o.expr, schema, &rows))
                    .collect::<Result<_, _>>()?;
                keyed.push((order_keys, out_row));
            }
        } else {
            for (_, row) in &source {
                let ctx = Ctx::maybe(schema, Some(row));
                let mut out_row = Vec::new();
                for item in &s.items {
                    match item {
                        SelectItem::Wildcard => out_row.extend(row.iter().cloned()),
                        SelectItem::Expr { expr, .. } => out_row.push(self.eval(expr, &ctx)?),
                    }
                }
                let order_keys: Vec<Value> = s
                    .order_by
                    .iter()
                    .map(|o| self.eval(&o.expr, &ctx))
                    .collect::<Result<_, _>>()?;
                keyed.push((order_keys, out_row));
            }
        }

        if !s.order_by.is_empty() {
            let descs: Vec<bool> = s.order_by.iter().map(|o| o.desc).collect();
            keyed.sort_by(|(a, _), (b, _)| {
                for (i, (ka, kb)) in a.iter().zip(b).enumerate() {
                    let ord = ka.total_cmp(kb);
                    let ord = if descs[i] { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
        }
        let mut rows: Vec<Vec<Value>> = keyed.into_iter().map(|(_, r)| r).collect();
        // A LIMIT parameter's slot is an integer one, and the tokenizer's
        // integers are never negative.
        let limit = match s.limit {
            Some(Limit::Value(n)) => Some(n),
            Some(Limit::Param(i)) => self.binds[i].as_i64().map(|n| n as u64),
            None => None,
        };
        if let Some(limit) = limit {
            rows.truncate(limit as usize);
        }
        Ok(Rows { columns, rows })
    }

    fn output_names(&self, s: &SelectStmt, schema: Option<&TableSchema>) -> Vec<String> {
        let mut out = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Wildcard => {
                    if let Some(sch) = schema {
                        out.extend(sch.columns.iter().map(|c| c.name.clone()));
                    }
                }
                SelectItem::Expr { expr, alias } => out.push(match alias {
                    Some(a) => a.clone(),
                    None => expr_name(expr, &self.binds),
                }),
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Expression evaluation
    // ------------------------------------------------------------------

    /// [`Database::eval`] of a row-free expression into `slot`: a bound or
    /// literal text or blob is copied into the buffer `slot` holds.
    fn eval_into(&mut self, expr: &Expr, slot: &mut Value) -> Result<(), SqlError> {
        let source = match expr {
            Expr::Param(i) => &self.binds[*i],
            Expr::Literal(v) => v,
            _ => {
                *slot = self.eval(expr, &Ctx::none())?;
                return Ok(());
            }
        };
        match (slot, source) {
            (Value::Text(to), Value::Text(from)) => to.clone_from(from),
            (Value::Blob(to), Value::Blob(from)) => to.clone_from(from),
            (slot, source) => *slot = source.clone(),
        }
        Ok(())
    }

    fn eval(&mut self, expr: &Expr, ctx: &Ctx<'_>) -> Result<Value, SqlError> {
        match expr {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Param(i) => Ok(self.binds[*i].clone()),
            Expr::Column(name) => ctx.column(name),
            Expr::Neg(e) => match self.eval(e, ctx)? {
                Value::Null => Ok(Value::Null),
                Value::Integer(i) => Ok(Value::Integer(-i)),
                Value::Real(r) => Ok(Value::Real(-r)),
                other => Err(SqlError::Runtime(format!(
                    "cannot negate {}",
                    other.type_name()
                ))),
            },
            Expr::Not(e) => match self.eval(e, ctx)? {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Integer(i64::from(!v.is_truthy()))),
            },
            Expr::IsNull { expr, negated } => {
                let v = self.eval(expr, ctx)?;
                Ok(Value::Integer(i64::from(v.is_null() != *negated)))
            }
            Expr::Binary { op, left, right } => {
                // AND/OR need SQL three-valued short-circuit logic.
                if *op == BinOp::And || *op == BinOp::Or {
                    return self.eval_logic(*op, left, right, ctx);
                }
                let l = self.eval(left, ctx)?;
                let r = self.eval(right, ctx)?;
                eval_binary(*op, l, r)
            }
            Expr::Call { name, args } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval(a, ctx))
                    .collect::<Result<_, _>>()?;
                self.call_function(name, vals)
            }
            Expr::Aggregate { .. } => Err(SqlError::Runtime(
                "aggregate used outside an aggregate query".into(),
            )),
        }
    }

    fn eval_logic(
        &mut self,
        op: BinOp,
        left: &Expr,
        right: &Expr,
        ctx: &Ctx<'_>,
    ) -> Result<Value, SqlError> {
        let l = self.eval(left, ctx)?;
        match (op, l.is_null(), l.is_truthy()) {
            (BinOp::And, false, false) => return Ok(Value::Integer(0)),
            (BinOp::Or, false, true) => return Ok(Value::Integer(1)),
            _ => {}
        }
        let r = self.eval(right, ctx)?;
        let lv = if l.is_null() {
            None
        } else {
            Some(l.is_truthy())
        };
        let rv = if r.is_null() {
            None
        } else {
            Some(r.is_truthy())
        };
        let out = match (op, lv, rv) {
            (BinOp::And, Some(false), _) | (BinOp::And, _, Some(false)) => Some(false),
            (BinOp::And, Some(true), Some(true)) => Some(true),
            (BinOp::Or, Some(true), _) | (BinOp::Or, _, Some(true)) => Some(true),
            (BinOp::Or, Some(false), Some(false)) => Some(false),
            _ => None,
        };
        Ok(out
            .map(|b| Value::Integer(i64::from(b)))
            .unwrap_or(Value::Null))
    }

    /// Evaluate an expression in aggregate context: aggregates consume the
    /// group's rows; bare columns resolve to the group's first row.
    fn eval_agg(
        &mut self,
        expr: &Expr,
        schema: Option<&TableSchema>,
        rows: &[&[Value]],
    ) -> Result<Value, SqlError> {
        match expr {
            Expr::Aggregate { func, arg } => {
                let mut count = 0i64;
                let mut sum = 0f64;
                let mut sum_is_int = true;
                let mut isum = 0i64;
                let mut min: Option<Value> = None;
                let mut max: Option<Value> = None;
                for row in rows {
                    let v = match arg {
                        None => Value::Integer(1), // COUNT(*)
                        Some(a) => self.eval(a, &Ctx::maybe(schema, Some(row)))?,
                    };
                    if v.is_null() {
                        continue;
                    }
                    count += 1;
                    if let Some(f) = v.as_f64() {
                        sum += f;
                        if let Value::Integer(i) = v {
                            isum = isum.wrapping_add(i);
                        } else {
                            sum_is_int = false;
                        }
                    }
                    min = Some(match min {
                        None => v.clone(),
                        Some(m) => {
                            if v.total_cmp(&m) == Ordering::Less {
                                v.clone()
                            } else {
                                m
                            }
                        }
                    });
                    max = Some(match max {
                        None => v.clone(),
                        Some(m) => {
                            if v.total_cmp(&m) == Ordering::Greater {
                                v.clone()
                            } else {
                                m
                            }
                        }
                    });
                }
                Ok(match func {
                    AggFunc::Count => Value::Integer(count),
                    AggFunc::Sum if count == 0 => Value::Null,
                    AggFunc::Sum if sum_is_int => Value::Integer(isum),
                    AggFunc::Sum => Value::Real(sum),
                    AggFunc::Avg if count == 0 => Value::Null,
                    AggFunc::Avg => Value::Real(sum / count as f64),
                    AggFunc::Min => min.unwrap_or(Value::Null),
                    AggFunc::Max => max.unwrap_or(Value::Null),
                })
            }
            Expr::Binary { op, left, right } => {
                let l = self.eval_agg(left, schema, rows)?;
                let r = self.eval_agg(right, schema, rows)?;
                eval_binary(*op, l, r)
            }
            Expr::Neg(e) => {
                let v = self.eval_agg(e, schema, rows)?;
                self.eval(&Expr::Neg(Box::new(Expr::Literal(v))), &Ctx::none())
            }
            _ => {
                let first = rows.first().copied();
                self.eval(expr, &Ctx::maybe(schema, first))
            }
        }
    }

    fn call_function(&mut self, name: &str, args: Vec<Value>) -> Result<Value, SqlError> {
        let arity = |n: usize| -> Result<(), SqlError> {
            if args.len() == n {
                Ok(())
            } else {
                Err(SqlError::Runtime(format!(
                    "{name}() takes {n} argument(s), got {}",
                    args.len()
                )))
            }
        };
        match name {
            "now" => {
                arity(0)?;
                Ok(Value::Integer(self.env.now_ns()))
            }
            "random" => {
                arity(0)?;
                Ok(Value::Integer(self.env.random()))
            }
            "length" => {
                arity(1)?;
                Ok(match &args[0] {
                    Value::Null => Value::Null,
                    Value::Text(t) => Value::Integer(t.chars().count() as i64),
                    Value::Blob(b) => Value::Integer(b.len() as i64),
                    v => Value::Integer(v.to_string().len() as i64),
                })
            }
            "abs" => {
                arity(1)?;
                Ok(match &args[0] {
                    Value::Null => Value::Null,
                    Value::Integer(i) => Value::Integer(i.wrapping_abs()),
                    Value::Real(r) => Value::Real(r.abs()),
                    other => {
                        return Err(SqlError::Runtime(format!("abs() of {}", other.type_name())))
                    }
                })
            }
            "upper" | "lower" => {
                arity(1)?;
                Ok(match &args[0] {
                    Value::Null => Value::Null,
                    Value::Text(t) => Value::Text(if name == "upper" {
                        t.to_uppercase()
                    } else {
                        t.to_lowercase()
                    }),
                    other => other.clone(),
                })
            }
            "hex" => {
                arity(1)?;
                let bytes = match &args[0] {
                    Value::Blob(b) => b.clone(),
                    Value::Text(t) => t.clone().into_bytes(),
                    Value::Null => return Ok(Value::Text(String::new())),
                    v => v.to_string().into_bytes(),
                };
                Ok(Value::Text(
                    bytes.iter().map(|b| format!("{b:02X}")).collect(),
                ))
            }
            "coalesce" => Ok(args
                .into_iter()
                .find(|v| !v.is_null())
                .unwrap_or(Value::Null)),
            "typeof" => {
                arity(1)?;
                Ok(Value::Text(args[0].type_name().into()))
            }
            other => Err(SqlError::Runtime(format!("no such function: {other}"))),
        }
    }
}

/// Evaluation context: the current row, if any.
struct Ctx<'a> {
    schema: Option<&'a TableSchema>,
    row: Option<&'a [Value]>,
}

impl<'a> Ctx<'a> {
    fn none() -> Ctx<'static> {
        Ctx {
            schema: None,
            row: None,
        }
    }

    fn row(schema: &'a TableSchema, row: &'a [Value]) -> Ctx<'a> {
        Ctx {
            schema: Some(schema),
            row: Some(row),
        }
    }

    fn maybe(schema: Option<&'a TableSchema>, row: Option<&'a [Value]>) -> Ctx<'a> {
        Ctx { schema, row }
    }

    fn column(&self, name: &str) -> Result<Value, SqlError> {
        let (Some(schema), Some(row)) = (self.schema, self.row) else {
            return Err(SqlError::Runtime(format!("no such column: {name}")));
        };
        match schema.column_index(name) {
            Some(i) => Ok(row.get(i).cloned().unwrap_or(Value::Null)),
            None => Err(SqlError::Runtime(format!("no such column: {name}"))),
        }
    }
}

/// Does the expression contain an aggregate call?
fn contains_aggregate(expr: &Expr) -> bool {
    match expr {
        Expr::Aggregate { .. } => true,
        Expr::Neg(e) | Expr::Not(e) => contains_aggregate(e),
        Expr::IsNull { expr, .. } => contains_aggregate(expr),
        Expr::Binary { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::Call { args, .. } => args.iter().any(contains_aggregate),
        Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) => false,
    }
}

/// The value a literal or a bound parameter stands for.
fn literal<'e>(expr: &'e Expr, binds: &'e [Value]) -> Option<&'e Value> {
    match expr {
        Expr::Literal(v) => Some(v),
        Expr::Param(i) => Some(&binds[*i]),
        _ => None,
    }
}

/// Detect `pk = <integer literal>` (either operand order).
fn pk_eq_literal(filter: &Expr, schema: &TableSchema, binds: &[Value]) -> Option<i64> {
    let pk = schema.pk_index()?;
    let pk_name = &schema.columns[pk].name;
    let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = filter
    else {
        return None;
    };
    match (left.as_ref(), right.as_ref()) {
        (Expr::Column(c), other) | (other, Expr::Column(c)) if c.eq_ignore_ascii_case(pk_name) => {
            match literal(other, binds) {
                Some(Value::Integer(i)) => Some(*i),
                _ => None,
            }
        }
        _ => None,
    }
}

fn expr_name(expr: &Expr, binds: &[Value]) -> String {
    match expr {
        Expr::Column(c) => c.clone(),
        Expr::Aggregate { func, arg } => {
            let f = match func {
                AggFunc::Count => "count",
                AggFunc::Sum => "sum",
                AggFunc::Avg => "avg",
                AggFunc::Min => "min",
                AggFunc::Max => "max",
            };
            match arg {
                None => format!("{f}(*)"),
                Some(a) => format!("{f}({})", expr_name(a, binds)),
            }
        }
        Expr::Call { name, .. } => format!("{name}(..)"),
        _ => match literal(expr, binds) {
            Some(v) => v.to_string(),
            None => "expr".into(),
        },
    }
}

/// Coerce a value to a column's declared type (affinity-lite).
fn coerce(v: Value, ctype: ColType) -> Result<Value, SqlError> {
    Ok(match (ctype, v) {
        (ColType::Integer, Value::Real(r)) if r.fract() == 0.0 => Value::Integer(r as i64),
        (ColType::Real, Value::Integer(i)) => Value::Real(i as f64),
        (_, v) => v,
    })
}

fn eval_binary(op: BinOp, l: Value, r: Value) -> Result<Value, SqlError> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Rem => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let both_int = matches!((&l, &r), (Value::Integer(_), Value::Integer(_)));
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Err(SqlError::Runtime(format!(
                    "arithmetic on {} and {}",
                    l.type_name(),
                    r.type_name()
                )));
            };
            if both_int {
                let (ia, ib) = (l.as_i64().expect("int"), r.as_i64().expect("int"));
                return Ok(match op {
                    Add => Value::Integer(ia.wrapping_add(ib)),
                    Sub => Value::Integer(ia.wrapping_sub(ib)),
                    Mul => Value::Integer(ia.wrapping_mul(ib)),
                    Div if ib == 0 => Value::Null, // SQLite semantics
                    Div => Value::Integer(ia.wrapping_div(ib)),
                    Rem if ib == 0 => Value::Null,
                    Rem => Value::Integer(ia.wrapping_rem(ib)),
                    _ => unreachable!(),
                });
            }
            Ok(match op {
                Add => Value::Real(a + b),
                Sub => Value::Real(a - b),
                Mul => Value::Real(a * b),
                Div if b == 0.0 => Value::Null,
                Div => Value::Real(a / b),
                Rem if b == 0.0 => Value::Null,
                Rem => Value::Real(a % b),
                _ => unreachable!(),
            })
        }
        Concat => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Text(format!("{l}{r}")))
        }
        Eq | Ne | Lt | Le | Gt | Ge => match l.compare(&r) {
            None => Ok(Value::Null),
            Some(ord) => {
                let b = match op {
                    Eq => ord == Ordering::Equal,
                    Ne => ord != Ordering::Equal,
                    Lt => ord == Ordering::Less,
                    Le => ord != Ordering::Greater,
                    Gt => ord == Ordering::Greater,
                    Ge => ord != Ordering::Less,
                    _ => unreachable!(),
                };
                Ok(Value::Integer(i64::from(b)))
            }
        },
        Like => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let text = l.to_string();
            let pattern = r.to_string();
            Ok(Value::Integer(i64::from(like_match(
                &pattern.to_lowercase(),
                &text.to_lowercase(),
            ))))
        }
        And | Or => unreachable!("handled by eval_logic"),
    }
}

/// SQL LIKE: `%` matches any run, `_` matches one character.
fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    fn rec(p: &[char], t: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => (0..=t.len()).any(|i| rec(&p[1..], &t[i..])),
            Some('_') => !t.is_empty() && rec(&p[1..], &t[1..]),
            Some(c) => t.first() == Some(c) && rec(&p[1..], &t[1..]),
        }
    }
    rec(&p, &t)
}

impl Database {
    #[cfg(test)]
    fn pager_db(&self) -> &dyn Vfs {
        self.pager.db_vfs()
    }

    #[cfg(test)]
    fn pager_journal(&self) -> &dyn Vfs {
        self.pager.journal_vfs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::FixedEnv;
    use crate::parser::{parse, parse_script};
    use crate::vfs::MemVfs;

    fn db() -> Database {
        Database::open(
            Box::new(MemVfs::new()),
            Box::new(MemVfs::new()),
            DbOptions {
                journal_mode: JournalMode::Rollback,
                wal_autocheckpoint: crate::pager::DEFAULT_WAL_AUTOCHECKPOINT,
                env: Box::new(FixedEnv {
                    now_ns: 1_000,
                    random_state: 1,
                }),
            },
        )
        .expect("open")
    }

    #[test]
    fn nine_thousand_benchmark_rows_fill_their_leaves() {
        // The §4.2 benchmark's rows, appended with automatic rowids: their
        // cells take 183 pages' worth of leaf space, and they filled 378
        // pages while a full leaf was cut at its middle cell (every leaf
        // but the last half full); 191 since.
        let mut db = db();
        db.execute(
            "CREATE TABLE bench (id INTEGER PRIMARY KEY, k TEXT, v TEXT, ts INTEGER, rnd INTEGER)",
        )
        .expect("create");
        for seq in 0..9_000u64 {
            db.execute(&format!(
                "INSERT INTO bench (k, v, ts, rnd) VALUES ('voter-1-{}-{seq}', 'vote-{:x}', now(), random())",
                seq % 12,
                seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ))
            .expect("insert");
        }
        let pages = db.page_count();
        assert!((183..=195).contains(&pages), "{pages} pages");
    }

    fn ints(rows: &Rows, col: usize) -> Vec<i64> {
        rows.rows
            .iter()
            .map(|r| match &r[col] {
                Value::Integer(i) => *i,
                other => panic!("not an int: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn create_insert_select() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, age INTEGER)")
            .expect("create");
        let out = db
            .execute("INSERT INTO t (name, age) VALUES ('alice', 30), ('bob', 25)")
            .expect("insert");
        assert_eq!(out, ExecOutcome::Affected(2));
        let rows = db.query("SELECT * FROM t ORDER BY id").expect("select");
        assert_eq!(rows.columns, vec!["id", "name", "age"]);
        assert_eq!(rows.rows.len(), 2);
        assert_eq!(rows.rows[0][1], Value::Text("alice".into()));
        assert_eq!(rows.rows[0][0], Value::Integer(1), "rowid auto-assigned");
    }

    #[test]
    fn where_and_point_lookup() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            .expect("create");
        for i in 1..=10 {
            db.execute(&format!("INSERT INTO t (id, v) VALUES ({i}, {})", i * 10))
                .expect("insert");
        }
        let rows = db.query("SELECT v FROM t WHERE id = 7").expect("select");
        assert_eq!(ints(&rows, 0), vec![70]);
        let rows = db.query("SELECT v FROM t WHERE 7 = id").expect("select");
        assert_eq!(ints(&rows, 0), vec![70]);
        let rows = db
            .query("SELECT id FROM t WHERE v > 70 ORDER BY id")
            .expect("select");
        assert_eq!(ints(&rows, 0), vec![8, 9, 10]);
    }

    #[test]
    fn update_and_delete() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            .expect("create");
        db.execute("INSERT INTO t (v) VALUES (1), (2), (3)")
            .expect("insert");
        assert_eq!(
            db.execute("UPDATE t SET v = v * 100 WHERE v >= 2")
                .expect("update"),
            ExecOutcome::Affected(2)
        );
        let rows = db.query("SELECT v FROM t ORDER BY v").expect("select");
        assert_eq!(ints(&rows, 0), vec![1, 200, 300]);
        assert_eq!(
            db.execute("DELETE FROM t WHERE v = 200").expect("delete"),
            ExecOutcome::Affected(1)
        );
        assert_eq!(
            db.execute("DELETE FROM t").expect("delete all"),
            ExecOutcome::Affected(2)
        );
        assert!(db.query("SELECT * FROM t").expect("select").rows.is_empty());
    }

    #[test]
    fn aggregates_and_group_by() {
        let mut db = db();
        db.execute("CREATE TABLE votes (id INTEGER PRIMARY KEY, choice TEXT, weight REAL)")
            .expect("create");
        db.execute(
            "INSERT INTO votes (choice, weight) VALUES ('a', 1.0), ('b', 2.0), ('a', 3.0), ('a', 2.0)",
        )
        .expect("insert");
        let rows = db
            .query("SELECT choice, COUNT(*), SUM(weight), AVG(weight) FROM votes GROUP BY choice ORDER BY choice")
            .expect("select");
        assert_eq!(rows.rows.len(), 2);
        assert_eq!(rows.rows[0][0], Value::Text("a".into()));
        assert_eq!(rows.rows[0][1], Value::Integer(3));
        assert_eq!(rows.rows[0][2], Value::Real(6.0));
        assert_eq!(rows.rows[0][3], Value::Real(2.0));
        // Global aggregate without GROUP BY.
        let rows = db
            .query("SELECT COUNT(*), MIN(weight), MAX(weight) FROM votes")
            .expect("agg");
        assert_eq!(
            rows.rows[0],
            vec![Value::Integer(4), Value::Real(1.0), Value::Real(3.0)]
        );
        // Aggregate over empty table yields one row.
        db.execute("DELETE FROM votes").expect("clear");
        let rows = db
            .query("SELECT COUNT(*), SUM(weight) FROM votes")
            .expect("agg");
        assert_eq!(rows.rows[0], vec![Value::Integer(0), Value::Null]);
    }

    #[test]
    fn order_by_desc_and_limit() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            .expect("create");
        db.execute("INSERT INTO t (v) VALUES (5), (3), (9), (1)")
            .expect("insert");
        let rows = db
            .query("SELECT v FROM t ORDER BY v DESC LIMIT 2")
            .expect("select");
        assert_eq!(ints(&rows, 0), vec![9, 5]);
        let rows = db
            .query("SELECT v FROM t ORDER BY v LIMIT 0")
            .expect("select");
        assert!(rows.rows.is_empty());
    }

    #[test]
    fn expressions_and_functions() {
        let mut db = db();
        let rows = db
            .query("SELECT 1 + 2 * 3, 'a' || 'b', length('héllo'), abs(-4), upper('x'), coalesce(NULL, 7)")
            .expect("select");
        assert_eq!(
            rows.rows[0],
            vec![
                Value::Integer(7),
                Value::Text("ab".into()),
                Value::Integer(5),
                Value::Integer(4),
                Value::Text("X".into()),
                Value::Integer(7),
            ]
        );
        // Deterministic env functions.
        let rows = db.query("SELECT now(), typeof(random())").expect("select");
        assert_eq!(rows.rows[0][0], Value::Integer(1_000));
        assert_eq!(rows.rows[0][1], Value::Text("integer".into()));
    }

    #[test]
    fn null_semantics() {
        let mut db = db();
        let rows = db
            .query("SELECT 1 = NULL, NULL IS NULL, 5 IS NOT NULL, 1 + NULL, 1 / 0, NULL OR 1, NULL AND 0")
            .expect("select");
        assert_eq!(
            rows.rows[0],
            vec![
                Value::Null,
                Value::Integer(1),
                Value::Integer(1),
                Value::Null,
                Value::Null,
                Value::Integer(1),
                Value::Integer(0),
            ]
        );
    }

    #[test]
    fn like_patterns() {
        let mut db = db();
        let rows = db
            .query(
                "SELECT 'hello' LIKE 'h%', 'hello' LIKE 'H_LLO', 'hello' LIKE 'x%', 'a' LIKE '%'",
            )
            .expect("select");
        assert_eq!(
            rows.rows[0],
            vec![
                Value::Integer(1),
                Value::Integer(1),
                Value::Integer(0),
                Value::Integer(1)
            ]
        );
    }

    #[test]
    fn constraints_enforced() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL)")
            .expect("create");
        assert!(matches!(
            db.execute("INSERT INTO t (id, name) VALUES (1, NULL)"),
            Err(SqlError::Constraint(_))
        ));
        db.execute("INSERT INTO t (id, name) VALUES (1, 'x')")
            .expect("insert");
        assert!(matches!(
            db.execute("INSERT INTO t (id, name) VALUES (1, 'dup')"),
            Err(SqlError::Constraint(_))
        ));
    }

    #[test]
    fn schema_errors() {
        let mut db = db();
        assert!(matches!(
            db.execute("SELECT * FROM missing"),
            Err(SqlError::Schema(_))
        ));
        db.execute("CREATE TABLE t (a INTEGER)").expect("create");
        assert!(matches!(
            db.execute("CREATE TABLE t (a INTEGER)"),
            Err(SqlError::Schema(_))
        ));
        db.execute("CREATE TABLE IF NOT EXISTS t (a INTEGER)")
            .expect("idempotent");
        assert!(matches!(
            db.execute("INSERT INTO t (nope) VALUES (1)"),
            Err(SqlError::Schema(_))
        ));
        assert!(matches!(
            db.execute("CREATE TABLE bad (a TEXT PRIMARY KEY)"),
            Err(SqlError::Schema(_))
        ));
        db.execute("DROP TABLE t").expect("drop");
        assert!(db.execute("DROP TABLE t").is_err());
        db.execute("DROP TABLE IF EXISTS t")
            .expect("idempotent drop");
    }

    #[test]
    fn explicit_transactions() {
        let mut db = db();
        db.execute("CREATE TABLE t (v INTEGER)").expect("create");
        db.execute("BEGIN").expect("begin");
        db.execute("INSERT INTO t (v) VALUES (1)").expect("insert");
        db.execute("ROLLBACK").expect("rollback");
        assert!(db.query("SELECT * FROM t").expect("select").rows.is_empty());

        db.execute("BEGIN").expect("begin");
        db.execute("INSERT INTO t (v) VALUES (2)").expect("insert");
        db.execute("COMMIT").expect("commit");
        assert_eq!(db.query("SELECT * FROM t").expect("select").rows.len(), 1);

        assert!(matches!(db.execute("COMMIT"), Err(SqlError::Txn(_))));
        assert!(matches!(db.execute("ROLLBACK"), Err(SqlError::Txn(_))));
        db.execute("BEGIN").expect("begin");
        assert!(matches!(db.execute("BEGIN"), Err(SqlError::Txn(_))));
    }

    #[test]
    fn failed_statement_rolls_back() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT NOT NULL)")
            .expect("create");
        db.execute("INSERT INTO t (id, v) VALUES (1, 'keep')")
            .expect("insert");
        // Multi-row insert where the second row violates NOT NULL: the whole
        // statement must be rolled back.
        let err = db.execute("INSERT INTO t (id, v) VALUES (2, 'x'), (3, NULL)");
        assert!(matches!(err, Err(SqlError::Constraint(_))));
        let rows = db.query("SELECT id FROM t").expect("select");
        assert_eq!(ints(&rows, 0), vec![1]);
    }

    #[test]
    fn durability_across_reopen() {
        let mut dbf = MemVfs::new();
        let mut jf = MemVfs::new();
        {
            let mut d = Database::open(
                Box::new(dbf.clone()),
                Box::new(jf.clone()),
                DbOptions::default(),
            )
            .expect("open");
            d.execute("CREATE TABLE t (v INTEGER)").expect("create");
            d.execute("INSERT INTO t (v) VALUES (42)").expect("insert");
            // Pull out the backing bytes (committed + synced).
            dbf = extract(&mut d, true);
            jf = extract(&mut d, false);
        }
        let mut d2 =
            Database::open(Box::new(dbf), Box::new(jf), DbOptions::default()).expect("reopen");
        let rows = d2.query("SELECT v FROM t").expect("select");
        assert_eq!(ints(&rows, 0), vec![42]);
    }

    /// Test helper: copy a database's backing store out through the Vfs API.
    fn extract(d: &mut Database, db_file: bool) -> MemVfs {
        let src: &dyn Vfs = if db_file {
            d.pager_db()
        } else {
            d.pager_journal()
        };
        let mut out = MemVfs::new();
        let mut buf = vec![0u8; src.len() as usize];
        src.read_at(0, &mut buf).expect("read");
        out.write_at(0, &buf).expect("write");
        out.sync().expect("sync");
        out
    }

    #[test]
    fn select_without_from() {
        let mut db = db();
        let rows = db.query("SELECT 2 + 2 AS four WHERE 1").expect("select");
        assert_eq!(rows.columns, vec!["four"]);
        assert_eq!(rows.rows[0][0], Value::Integer(4));
        let rows = db.query("SELECT 1 WHERE 0").expect("select");
        assert!(rows.rows.is_empty());
    }

    #[test]
    fn script_execution() {
        let mut db = db();
        let out = db
            .execute_script(
                "CREATE TABLE t (v INTEGER); INSERT INTO t (v) VALUES (1); SELECT COUNT(*) FROM t",
            )
            .expect("script");
        match out {
            ExecOutcome::Rows(r) => assert_eq!(r.rows[0][0], Value::Integer(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scripts_split_where_the_tokenizer_does() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            .expect("create");
        // A `;` inside a comment ends nothing.
        assert_eq!(
            db.execute_script("INSERT INTO t (v) VALUES ('c') -- no; really"),
            Ok(ExecOutcome::Affected(1))
        );
        // A `'` inside a quoted identifier opens no string.
        let script =
            "INSERT INTO t (v) VALUES ('d'); SELECT v AS \"it's\" FROM t WHERE id = 1; SELECT COUNT(*) FROM t";
        let count = Rows {
            columns: vec!["count(*)".into()],
            rows: vec![vec![Value::Integer(2)]],
        };
        assert_eq!(db.execute_script(script), Ok(ExecOutcome::Rows(count)));
        let rows = db
            .query("SELECT v AS \"it's\" FROM t WHERE id = 1")
            .expect("select");
        assert_eq!(rows.columns, vec!["it's"]);
        assert_eq!(rows.rows, vec![vec![Value::Text("c".into())]]);
    }

    /// A literal in `sql`-text form, drawn so that one slot sees every kind.
    fn literal_text(g: &mut propcheck::Gen) -> String {
        match g.choice(12) {
            0 => g.i64_in(0..20).to_string(),
            1 => g.i64_in(0..1_000_000).to_string(),
            2 => format!("-{}", g.i64_in(0..50)),
            3 => format!("{}.{}", g.i64_in(0..100), g.i64_in(0..100)),
            4 => format!("-{}.5", g.i64_in(0..9)),
            5 => ["1e3", "2.5e-3", "0.0"][g.choice(3)].into(),
            6 => {
                let text = g.string_from(&['a', 'z', ' ', ';', '\'', '"', '\u{e9}', '|'], 0..8);
                format!("'{}'", text.replace('\'', "''"))
            }
            7 => {
                let blob = g.bytes(0..4);
                format!(
                    "x'{}'",
                    blob.iter().map(|b| format!("{b:02x}")).collect::<String>()
                )
            }
            8 => "NULL".into(),
            // The same shape with an integer, a float, a string and a blob.
            _ => ["1", "1.0", "'1'", "x'01'"][g.choice(4)].into(),
        }
    }

    /// One statement of the differential grammar.
    fn statement(g: &mut propcheck::Gen) -> String {
        let mut lit = || literal_text(g);
        let (a, b, c) = (lit(), lit(), lit());
        match g.choice(28) {
            0 | 1 => format!("INSERT INTO t (a, b, c) VALUES ({a}, {b}, {c})"),
            2 => format!("INSERT INTO t (id, a, b) VALUES ({a}, {b}, {c})"),
            3 => format!("INSERT INTO t (a, b) VALUES ({a}, {b}), (NULL, {c}), ({b}, {a})"),
            4 => format!("INSERT INTO \"s;'|\" (\"it's\", n) VALUES ({a}, {b})"),
            5 => format!("SELECT a, b, \"x AS y\" FROM t WHERE id = {a}"),
            6 => format!("SELECT b FROM t WHERE {a} = id OR c > {b}"),
            7 => format!("SELECT {a}, {b} + {c}, -{a}, {c} AS lit"),
            8 => format!(
                "SELECT * FROM t WHERE a >= {a} ORDER BY id DESC LIMIT {}",
                g.i64_in(0..6)
            ),
            9 => format!("SELECT id FROM t LIMIT {a}"),
            // A joined key would give these two one plan.
            10 => "SELECT x AS y FROM t".into(),
            11 => "SELECT \"x AS y\" FROM t".into(),
            12 => format!("UPDATE t SET b = {a}, c = {b} WHERE id = {c}"),
            13 => format!("DELETE FROM t WHERE id = {a} OR a < {b}"),
            14 => format!(
                "SELECT COUNT(*), SUM(a) + {a}, -SUM(c), MAX(id) - {b}, {c} FROM t WHERE b != {c}"
            ),
            15 => format!(
                "SELECT b, COUNT(*), {a} FROM t GROUP BY b ORDER BY b LIMIT {}",
                g.i64_in(0..4)
            ),
            16 => format!(
                "SELECT id AS c{} FROM \"s;'|\" WHERE id = {a}",
                g.i64_in(0..100)
            ),
            17 => ["BEGIN", "COMMIT", "ROLLBACK"][g.choice(3)].into(),
            18 => format!("SELEKT {a}"),
            19 => format!("SELECT {a} {b}"),
            // Other spellings of the same tokens: quoted identifiers spelled
            // like bare ones, `==` and `<>`, keywords in other cases, a
            // comment inside the statement.
            20 => format!("select \"a\", B from \"t\" where ID == {a} -- or; not\n or c <> {b}"),
            21 => format!("Insert Into \"t\" (a, \"b\") Values ({a}, {b})"),
            // Two shapes with one hash (found by search): only the token
            // compare tells them apart.
            22 | 23 => format!(
                "SELECT id AS \"{}\" FROM t",
                ["collideswithYYYY", "Km0HCEoIfn3RqPfu"][g.choice(2)]
            ),
            // Lex errors: the script they end runs nothing.
            24 => format!("SELECT {a} + 'open"),
            25 => ["SELECT x'abc'", "SELECT # FROM t", "SELECT \"open"][g.choice(3)].into(),
            // Larger rows, so that leaves split and the tail moves on.
            26 => format!(
                "INSERT INTO t (a, b) VALUES ({a}, '{}')",
                "p".repeat(g.usize_in(0..400))
            ),
            _ => format!("SELECT id FROM t WHERE id >= {a} ORDER BY id DESC LIMIT 2"),
        }
    }

    /// Writes on `t` around the tail the last INSERT leaves: appends, a
    /// failing INSERT (its second row repeats its first's key), an UPDATE
    /// that resizes every row or moves some past the end, a DELETE, an
    /// explicit transaction rolled back or committed, reads.
    fn tail_sequence(g: &mut propcheck::Gen) -> Vec<String> {
        (0..g.usize_in(2..10))
            .map(|_| {
                let pad = "q".repeat(g.usize_in(0..300));
                let key = 1_000 + g.i64_in(0..2_000);
                match g.choice(12) {
                    0..=3 => format!("INSERT INTO t (a, b) VALUES ({}, '{pad}')", g.i64_in(0..9)),
                    4 => format!("INSERT INTO t (id, a) VALUES ({key}, 1), ({key}, 2)"),
                    5 => format!("INSERT INTO t (id, b) VALUES ({key}, '{pad}')"),
                    6 => format!("UPDATE t SET b = '{pad}'"),
                    7 => format!("UPDATE t SET id = id + 5000 WHERE id > {}", g.i64_in(0..50)),
                    8 => format!("DELETE FROM t WHERE id > {}", g.i64_in(0..50)),
                    9 => format!(
                        "BEGIN; INSERT INTO t (b) VALUES ('{pad}'); INSERT INTO t (a) VALUES (1); {}",
                        ["ROLLBACK", "COMMIT"][g.choice(2)]
                    ),
                    10 => ["BEGIN", "ROLLBACK", "COMMIT"][g.choice(3)].into(),
                    _ => "SELECT COUNT(*), MAX(id) FROM t".into(),
                }
            })
            .collect()
    }

    /// Run a statement as the engine did before it kept a tail: every
    /// INSERT descends to the end of its table.
    fn descend_every_time(db: &mut Database, stmt: &Stmt) -> Result<ExecOutcome, SqlError> {
        db.tail = None;
        db.execute_stmt(stmt)
    }

    /// Both files of a database, byte for byte.
    fn files(db: &Database) -> [Vec<u8>; 2] {
        [db.db_file(), db.journal_file()].map(|v| snapshot_vfs(v).bytes().to_vec())
    }

    #[test]
    fn prop_plans_cached_per_shape_match_parsing_every_statement() {
        // The reference parses every statement from its literal text and
        // runs it (`parse` + `execute_stmt`, no cache) with a fresh descent
        // for every INSERT; the database under test runs the same
        // statements through its shape cache and its kept tail. Outcomes,
        // error text, both files and `IoStats` must agree after every one.
        propcheck::check("plans_cached_per_shape_match_reference", 48, |g| {
            let mode = [JournalMode::Rollback, JournalMode::Wal, JournalMode::Off][g.choice(3)];
            let open = || {
                Database::open(
                    Box::new(MemVfs::new()),
                    Box::new(MemVfs::new()),
                    DbOptions {
                        journal_mode: mode,
                        wal_autocheckpoint: 16,
                        env: Box::new(FixedEnv {
                            now_ns: 1_000,
                            random_state: 1,
                        }),
                    },
                )
                .expect("open")
            };
            let (mut cached, mut reference) = (open(), open());
            let setup = "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b TEXT, c REAL, \"x AS y\" BLOB); \
                         CREATE TABLE \"s;'|\" (id INTEGER PRIMARY KEY, \"it's\" TEXT NOT NULL, n INTEGER)";
            // (script, through the single-statement entry point)
            let mut scripts: Vec<(String, bool)> = vec![(setup.into(), false)];
            if g.choice(4) == 0 {
                // More shapes than the cache keeps, each twice, before
                // anything else.
                scripts.extend((0..140).map(|i| {
                    let k = i / 2;
                    (format!("SELECT a AS k{k} FROM t WHERE id = {i}"), false)
                }));
            }
            for _ in 0..g.usize_in(1..60) {
                if g.choice(6) == 0 {
                    for script in tail_sequence(g) {
                        let single = !script.contains(';') && g.bool();
                        scripts.push((script, single));
                    }
                    continue;
                }
                let n = g.usize_in(1..4);
                let mut script = (0..n).map(|_| statement(g)).collect::<Vec<_>>().join("; ");
                match g.choice(4) {
                    0 => script.push(';'),
                    1 => script.push_str(" -- trailing; comment"),
                    _ => {}
                }
                scripts.push((script, n == 1 && g.bool()));
            }
            for (script, single) in &scripts {
                let single = *single;
                if g.choice(8) == 0 {
                    // A cold page cache (as after a state transfer), so that
                    // a point lookup and a scan read different pages.
                    assert_eq!(cached.invalidate_cache(), reference.invalidate_cache());
                }
                let got = if single {
                    cached.execute(script)
                } else {
                    cached.execute_script(script)
                };
                let want = if single {
                    parse(script).and_then(|stmt| descend_every_time(&mut reference, &stmt))
                } else {
                    parse_script(script).and_then(|stmts| {
                        let mut last = ExecOutcome::Done;
                        for stmt in &stmts {
                            last = descend_every_time(&mut reference, stmt)?;
                        }
                        Ok(last)
                    })
                };
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{script}");
                assert_eq!(
                    cached.take_io_stats(),
                    reference.take_io_stats(),
                    "{script}"
                );
                assert!(
                    files(&cached) == files(&reference),
                    "files differ after {script}"
                );
            }
        });
    }

    #[test]
    fn changed_primary_key_moves_row() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            .expect("create");
        db.execute("INSERT INTO t (id, v) VALUES (1, 'a')")
            .expect("insert");
        db.execute("UPDATE t SET id = 100 WHERE id = 1")
            .expect("update");
        let rows = db.query("SELECT id FROM t WHERE id = 100").expect("select");
        assert_eq!(ints(&rows, 0), vec![100]);
        assert!(db
            .query("SELECT id FROM t WHERE id = 1")
            .expect("select")
            .rows
            .is_empty());
    }

    #[test]
    fn many_rows_survive_splits_end_to_end() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, blob TEXT)")
            .expect("create");
        db.execute("BEGIN").expect("begin");
        for i in 0..500 {
            db.execute(&format!(
                "INSERT INTO t (blob) VALUES ('row number {i} padding padding')"
            ))
            .expect("insert");
        }
        db.execute("COMMIT").expect("commit");
        let rows = db.query("SELECT COUNT(*) FROM t").expect("count");
        assert_eq!(rows.rows[0][0], Value::Integer(500));
        let rows = db
            .query("SELECT id FROM t ORDER BY id DESC LIMIT 1")
            .expect("max");
        assert_eq!(rows.rows[0][0], Value::Integer(500));
    }

    // ------------------------------------------------------------------
    // WAL mode end-to-end
    // ------------------------------------------------------------------

    fn wal_db() -> Database {
        Database::open(
            Box::new(MemVfs::new()),
            Box::new(MemVfs::new()),
            DbOptions {
                journal_mode: JournalMode::Wal,
                wal_autocheckpoint: 1_000,
                env: Box::new(FixedEnv {
                    now_ns: 1_000,
                    random_state: 1,
                }),
            },
        )
        .expect("open")
    }

    fn snapshot_vfs(v: &dyn Vfs) -> MemVfs {
        let mut out = MemVfs::new();
        let mut buf = vec![0u8; v.len() as usize];
        v.read_at(0, &mut buf).expect("read");
        out.write_at(0, &buf).expect("write");
        out.sync().expect("sync");
        out
    }

    #[test]
    fn wal_mode_crud_roundtrip() {
        let mut db = wal_db();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            .expect("create");
        db.execute("INSERT INTO t (v) VALUES ('a'), ('b'), ('c')")
            .expect("insert");
        db.execute("UPDATE t SET v = 'B' WHERE id = 2")
            .expect("update");
        db.execute("DELETE FROM t WHERE id = 3").expect("delete");
        let rows = db.query("SELECT v FROM t ORDER BY id").expect("select");
        assert_eq!(
            rows.rows,
            vec![vec![Value::Text("a".into())], vec![Value::Text("B".into())]]
        );
        assert!(db.wal_frames() > 0, "commits accumulated in the log");
    }

    #[test]
    fn wal_mode_reopen_sees_committed_data() {
        let mut db = wal_db();
        db.execute("CREATE TABLE t (v INTEGER)").expect("create");
        db.execute("INSERT INTO t (v) VALUES (42)").expect("insert");
        let files = (
            snapshot_vfs(db.pager_db()),
            snapshot_vfs(db.pager_journal()),
        );
        let mut db2 = Database::open(
            Box::new(files.0),
            Box::new(files.1),
            DbOptions {
                journal_mode: JournalMode::Wal,
                wal_autocheckpoint: 1_000,
                env: Box::new(FixedEnv {
                    now_ns: 1,
                    random_state: 1,
                }),
            },
        )
        .expect("reopen");
        let rows = db2.query("SELECT v FROM t").expect("select");
        assert_eq!(rows.rows[0][0], Value::Integer(42));
    }

    #[test]
    fn wal_checkpoint_then_reopen_without_log() {
        let mut db = wal_db();
        db.execute("CREATE TABLE t (v INTEGER)").expect("create");
        db.execute("INSERT INTO t (v) VALUES (7)").expect("insert");
        db.wal_checkpoint().expect("checkpoint");
        assert_eq!(db.wal_frames(), 0);
        // Drop the WAL entirely: the db file alone must suffice.
        let dbfile = snapshot_vfs(db.pager_db());
        let mut db2 = Database::open(
            Box::new(dbfile),
            Box::new(MemVfs::new()),
            DbOptions {
                journal_mode: JournalMode::Wal,
                wal_autocheckpoint: 1_000,
                env: Box::new(FixedEnv {
                    now_ns: 1,
                    random_state: 1,
                }),
            },
        )
        .expect("reopen");
        let rows = db2.query("SELECT v FROM t").expect("select");
        assert_eq!(rows.rows[0][0], Value::Integer(7));
    }

    #[test]
    fn wal_mode_explicit_transaction_atomicity() {
        let mut db = wal_db();
        db.execute("CREATE TABLE t (v INTEGER)").expect("create");
        db.execute("BEGIN").expect("begin");
        db.execute("INSERT INTO t (v) VALUES (1)").expect("insert");
        db.execute("INSERT INTO t (v) VALUES (2)").expect("insert");
        db.execute("ROLLBACK").expect("rollback");
        let rows = db.query("SELECT COUNT(*) FROM t").expect("count");
        assert_eq!(
            rows.rows[0][0],
            Value::Integer(0),
            "rolled-back txn invisible"
        );
        db.execute("BEGIN").expect("begin");
        db.execute("INSERT INTO t (v) VALUES (3)").expect("insert");
        db.execute("COMMIT").expect("commit");
        let rows = db.query("SELECT v FROM t").expect("select");
        assert_eq!(rows.rows[0][0], Value::Integer(3));
    }

    #[test]
    fn wal_mode_identical_scripts_identical_files() {
        // Determinism: the property the PBFT embedding relies on. Two
        // databases running the same script produce bit-identical database
        // *and* WAL files.
        let script = "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT);\n\
                      INSERT INTO t (v) VALUES ('x');\n\
                      INSERT INTO t (v) VALUES ('y');\n\
                      UPDATE t SET v = 'z' WHERE id = 1;";
        let run = || {
            let mut db = wal_db();
            db.execute_script(script).expect("script");
            (
                snapshot_vfs(db.pager_db()),
                snapshot_vfs(db.pager_journal()),
            )
        };
        let (db_a, wal_a) = run();
        let (db_b, wal_b) = run();
        assert_eq!(db_a.bytes(), db_b.bytes());
        assert_eq!(wal_a.bytes(), wal_b.bytes());
    }
}
