//! The catalog: table schemas stored in a B+tree at page 1 (the engine's
//! `sqlite_master`).

use std::collections::BTreeMap;
use std::rc::Rc;

use crate::ast::{ColType, ColumnDef};
use crate::btree::BTree;
use crate::error::SqlError;
use crate::pager::Pager;
use crate::record::{decode_row, encode_row};
use crate::value::Value;

/// A table's schema plus its storage root.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    /// Catalog rowid (stable table id).
    pub id: i64,
    /// Table name as created.
    pub name: String,
    /// Column definitions in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Root page of the table's B+tree.
    pub root: u32,
}

impl TableSchema {
    /// Index of the INTEGER PRIMARY KEY column (the rowid alias), if any.
    pub fn pk_index(&self) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.primary_key && c.ctype == ColType::Integer)
    }

    /// Find a column index by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    fn to_row(&self) -> Vec<Value> {
        let mut row = vec![
            Value::Text(self.name.clone()),
            Value::Integer(self.root as i64),
            Value::Integer(self.columns.len() as i64),
        ];
        for c in &self.columns {
            row.push(Value::Text(c.name.clone()));
            row.push(Value::Integer(match c.ctype {
                ColType::Integer => 0,
                ColType::Real => 1,
                ColType::Text => 2,
                ColType::Blob => 3,
            }));
            row.push(Value::Integer(
                i64::from(c.primary_key) | (i64::from(c.not_null) << 1),
            ));
        }
        row
    }

    fn from_row(id: i64, row: &[Value]) -> Result<TableSchema, SqlError> {
        let corrupt = || SqlError::Corrupt("catalog row malformed".into());
        let name = match row.first() {
            Some(Value::Text(t)) => t.clone(),
            _ => return Err(corrupt()),
        };
        let root = match row.get(1) {
            Some(Value::Integer(r)) => *r as u32,
            _ => return Err(corrupt()),
        };
        let ncols = match row.get(2) {
            Some(Value::Integer(n)) => *n as usize,
            _ => return Err(corrupt()),
        };
        let mut columns = Vec::with_capacity(ncols);
        for i in 0..ncols {
            let base = 3 + i * 3;
            let cname = match row.get(base) {
                Some(Value::Text(t)) => t.clone(),
                _ => return Err(corrupt()),
            };
            let ctype = match row.get(base + 1) {
                Some(Value::Integer(0)) => ColType::Integer,
                Some(Value::Integer(1)) => ColType::Real,
                Some(Value::Integer(2)) => ColType::Text,
                Some(Value::Integer(3)) => ColType::Blob,
                _ => return Err(corrupt()),
            };
            let flags = match row.get(base + 2) {
                Some(Value::Integer(f)) => *f,
                _ => return Err(corrupt()),
            };
            columns.push(ColumnDef {
                name: cname,
                ctype,
                primary_key: flags & 1 != 0,
                not_null: flags & 2 != 0,
            });
        }
        Ok(TableSchema {
            id,
            name,
            columns,
            root,
        })
    }
}

/// Load every table schema, keyed by lowercase name.
///
/// # Errors
/// Storage failures / corruption.
pub fn load_catalog(pager: &mut Pager) -> Result<BTreeMap<String, Rc<TableSchema>>, SqlError> {
    let tree = BTree {
        root: pager.catalog_root(),
    };
    let mut out = BTreeMap::new();
    tree.scan(pager, |id, payload| {
        let schema = TableSchema::from_row(id, &decode_row(payload)?)?;
        out.insert(schema.name.to_ascii_lowercase(), Rc::new(schema));
        Ok(())
    })?;
    Ok(out)
}

/// Insert a new table into the catalog (assigns the id).
///
/// # Errors
/// Storage failures.
pub fn save_new_table(pager: &mut Pager, schema: &mut TableSchema) -> Result<(), SqlError> {
    let tree = BTree {
        root: pager.catalog_root(),
    };
    let id = tree.max_key(pager)?.unwrap_or(0) + 1;
    schema.id = id;
    tree.insert(pager, id, &encode_row(&schema.to_row()))
}

/// Remove a table from the catalog.
///
/// # Errors
/// Storage failures.
pub fn delete_table(pager: &mut Pager, id: i64) -> Result<(), SqlError> {
    let tree = BTree {
        root: pager.catalog_root(),
    };
    tree.delete(pager, id)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::JournalMode;
    use crate::vfs::MemVfs;

    fn schema(name: &str, root: u32) -> TableSchema {
        TableSchema {
            id: 0,
            name: name.into(),
            columns: vec![
                ColumnDef {
                    name: "id".into(),
                    ctype: ColType::Integer,
                    primary_key: true,
                    not_null: false,
                },
                ColumnDef {
                    name: "payload".into(),
                    ctype: ColType::Text,
                    primary_key: false,
                    not_null: true,
                },
            ],
            root,
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let mut pager = Pager::open(
            Box::new(MemVfs::new()),
            Box::new(MemVfs::new()),
            JournalMode::Off,
        )
        .expect("open");
        let mut s1 = schema("votes", 5);
        let mut s2 = schema("voters", 6);
        save_new_table(&mut pager, &mut s1).expect("save");
        save_new_table(&mut pager, &mut s2).expect("save");
        assert_ne!(s1.id, s2.id);
        let catalog = load_catalog(&mut pager).expect("load");
        assert_eq!(catalog.len(), 2);
        assert_eq!(*catalog["votes"], s1);
        assert_eq!(*catalog["voters"], s2);
    }

    #[test]
    fn delete_removes() {
        let mut pager = Pager::open(
            Box::new(MemVfs::new()),
            Box::new(MemVfs::new()),
            JournalMode::Off,
        )
        .expect("open");
        let mut s = schema("t", 5);
        save_new_table(&mut pager, &mut s).expect("save");
        delete_table(&mut pager, s.id).expect("delete");
        assert!(load_catalog(&mut pager).expect("load").is_empty());
    }

    #[test]
    fn helpers() {
        let s = schema("t", 1);
        assert_eq!(s.pk_index(), Some(0));
        assert_eq!(s.column_index("PAYLOAD"), Some(1));
        assert_eq!(s.column_index("nope"), None);
    }
}
