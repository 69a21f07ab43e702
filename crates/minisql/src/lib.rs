//! minisql — an embedded relational database engine, built from scratch as
//! the reproduction's stand-in for SQLite (paper §3.2).
//!
//! The paper's SQL state abstraction requires an engine with a specific set
//! of properties, all reproduced here:
//!
//! * **single-file storage**: every object lives in one paged database file
//!   whose bytes can be mapped onto the PBFT state region,
//! * **a VFS layer** ([`Vfs`]) between the engine and its storage, which is
//!   where the PBFT integration hooks `modify()` notifications and where
//!   deterministic `now()`/`random()` replacements are injected ([`Env`]),
//! * **rollback-journal ACID transactions** ([`JournalMode::Rollback`]): a
//!   committed transaction survives crashes, an uncommitted one is rolled
//!   back on the next open — and a **no-ACID mode** ([`JournalMode::Off`],
//!   "no rollback journal and no flushing to disk on each operation") for
//!   the paper's §4.2 comparison,
//! * enough SQL to host real applications: CREATE/DROP TABLE, INSERT,
//!   SELECT with WHERE/GROUP BY/ORDER BY/LIMIT, UPDATE, DELETE, BEGIN/
//!   COMMIT/ROLLBACK, scalar functions and aggregates.
//!
//! Storage is a B+tree per table keyed by a 64-bit rowid, with a catalog
//! B+tree (root at page 1) playing the role of `sqlite_master`.
//!
//! # Example
//!
//! ```
//! use minisql::{Database, DbOptions, ExecOutcome, MemVfs, Value};
//!
//! # fn main() -> Result<(), minisql::SqlError> {
//! let mut db = Database::open(
//!     Box::new(MemVfs::new()),
//!     Box::new(MemVfs::new()),
//!     DbOptions::default(),
//! )?;
//! db.execute("CREATE TABLE votes (id INTEGER PRIMARY KEY, voter TEXT, choice TEXT)")?;
//! db.execute("INSERT INTO votes (voter, choice) VALUES ('alice', 'yes'), ('bob', 'no')")?;
//! let rows = db.query("SELECT choice, COUNT(*) FROM votes GROUP BY choice ORDER BY choice")?;
//! assert_eq!(rows.rows.len(), 2);
//! assert_eq!(rows.rows[0][0], Value::Text("no".into()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod ast;
mod btree;
mod db;
mod env;
mod error;
mod hash;
mod journal;
mod pager;
mod parser;
mod record;
mod schema;
mod shape;
mod token;
mod value;
mod vfs;
pub mod wal;

pub use db::{Database, DbOptions, ExecOutcome, Rows};
pub use env::{Env, FixedEnv, SystemEnv};
pub use error::SqlError;
pub use pager::{IoStats, JournalMode, DEFAULT_WAL_AUTOCHECKPOINT, PAGE_SIZE};
pub use record::{decode_row, encode_row};
pub use value::Value;
pub use vfs::{MemVfs, Vfs, VfsError};
