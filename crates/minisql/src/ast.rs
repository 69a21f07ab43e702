//! The abstract syntax tree.

use crate::value::Value;

/// A column data type (SQLite-style affinities).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 64-bit integer.
    Integer,
    /// 64-bit float.
    Real,
    /// UTF-8 text.
    Text,
    /// Binary blob.
    Blob,
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ctype: ColType,
    /// INTEGER PRIMARY KEY → rowid alias.
    pub primary_key: bool,
    /// NOT NULL constraint.
    pub not_null: bool,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `||`
    Concat,
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
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `LIKE`
    Like,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT(*) / COUNT(expr)
    Count,
    /// SUM(expr)
    Sum,
    /// AVG(expr)
    Avg,
    /// MIN(expr)
    Min,
    /// MAX(expr)
    Max,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// The statement's `n`-th literal, bound at execution (a plan parsed
    /// once per shape holds these where the text held literals).
    Param(usize),
    /// Column reference.
    Column(String),
    /// Unary minus.
    Neg(Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// Negated form.
        negated: bool,
    },
    /// Scalar function call.
    Call {
        /// Function name (lowercased).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Aggregate call; `None` argument means COUNT(*).
    Aggregate {
        /// Which aggregate.
        func: AggFunc,
        /// Argument (`None` for `*`).
        arg: Option<Box<Expr>>,
    },
}

/// A SELECT output column.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// Expression with optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// AS alias.
        alias: Option<String>,
    },
}

/// ORDER BY term.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    /// Sort key expression.
    pub expr: Expr,
    /// Descending?
    pub desc: bool,
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
        /// IF NOT EXISTS.
        if_not_exists: bool,
    },
    /// DROP TABLE.
    DropTable {
        /// Table name.
        name: String,
        /// IF EXISTS.
        if_exists: bool,
    },
    /// INSERT.
    Insert {
        /// Target table.
        table: String,
        /// Column list (empty = declared order).
        columns: Vec<String>,
        /// One or more value tuples.
        rows: Vec<Vec<Expr>>,
    },
    /// SELECT.
    Select(Box<SelectStmt>),
    /// UPDATE.
    Update {
        /// Target table.
        table: String,
        /// SET assignments.
        sets: Vec<(String, Expr)>,
        /// WHERE filter.
        filter: Option<Expr>,
    },
    /// DELETE.
    Delete {
        /// Target table.
        table: String,
        /// WHERE filter.
        filter: Option<Expr>,
    },
    /// BEGIN.
    Begin,
    /// COMMIT.
    Commit,
    /// ROLLBACK.
    Rollback,
}

/// The body of a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Output columns.
    pub items: Vec<SelectItem>,
    /// FROM table (optional: `SELECT 1+1`).
    pub from: Option<String>,
    /// WHERE filter.
    pub filter: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// ORDER BY terms.
    pub order_by: Vec<OrderBy>,
    /// LIMIT.
    pub limit: Option<Limit>,
}

/// A SELECT's row limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limit {
    /// A literal row count.
    Value(u64),
    /// The statement's `n`-th literal (a plan parsed once per shape).
    Param(usize),
}
