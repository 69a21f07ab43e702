//! The B+tree operations as they were before they moved in place: every
//! page on the way is parsed into a [`Node`], edited there, and written back
//! whole. Slow (a `Vec` per cell per page per operation) and obviously
//! right, which is what a reference is for: the `crosscheck_*` tests run the
//! same operations through both and compare results and pages byte for byte.
//! Its leaf split is the reference the in-place one is held to: an append
//! past the last key of the last leaf gets a leaf of its own, any other
//! key cuts the leaf at [`leaf_split_point`].

use super::{leaf_size, BTree, Node, Split, MAX_PAYLOAD};
use crate::error::SqlError;
use crate::pager::{Pager, PAGE_SIZE};

/// Where to cut an overflowing leaf: at the middle cell. Rows of more than a
/// third of a page can make a half overflow in turn; then the nearest cut
/// that fits both halves, if there is one (three rows of which no two share
/// a page have none).
fn leaf_split_point(cells: &[(i64, Vec<u8>)]) -> Option<usize> {
    let fits =
        |m: usize| leaf_size(&cells[..m]) <= PAGE_SIZE && leaf_size(&cells[m..]) <= PAGE_SIZE;
    let mid = cells.len() / 2;
    if fits(mid) {
        return Some(mid);
    }
    (1..cells.len())
        .filter(|&m| fits(m))
        .min_by_key(|m| m.abs_diff(mid))
}

fn child_for(cells: &[(i64, u32)], rightmost: u32, key: i64) -> u32 {
    cells
        .iter()
        .find(|(k, _)| key <= *k)
        .map_or(rightmost, |(_, c)| *c)
}

pub fn get(tree: &BTree, pager: &mut Pager, key: i64) -> Result<Option<Vec<u8>>, SqlError> {
    let mut page_id = tree.root;
    loop {
        match Node::parse(pager.page(page_id)?)? {
            Node::Leaf { cells, .. } => {
                return Ok(cells.into_iter().find(|(k, _)| *k == key).map(|(_, p)| p));
            }
            Node::Interior { rightmost, cells } => page_id = child_for(&cells, rightmost, key),
        }
    }
}

pub fn insert(tree: &BTree, pager: &mut Pager, key: i64, payload: Vec<u8>) -> Result<(), SqlError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(SqlError::RowTooLarge(payload.len()));
    }
    if let Some(split) = insert_into(pager, tree.root, key, payload)? {
        let left = pager.allocate()?;
        let root_bytes = pager.page(tree.root)?.to_vec();
        pager.page_mut(left)?.copy_from_slice(&root_bytes);
        Node::Interior {
            rightmost: split.right,
            cells: vec![(split.sep, left)],
        }
        .write_to(pager.page_mut(tree.root)?);
    }
    Ok(())
}

fn insert_into(
    pager: &mut Pager,
    page_id: u32,
    key: i64,
    payload: Vec<u8>,
) -> Result<Option<Split>, SqlError> {
    match Node::parse(pager.page(page_id)?)? {
        Node::Leaf { next, mut cells } => {
            let len = payload.len();
            let pos = match cells.binary_search_by_key(&key, |(k, _)| *k) {
                Ok(_) => return Err(SqlError::Constraint(format!("duplicate rowid {key}"))),
                Err(pos) => pos,
            };
            let appends = next == 0 && pos == cells.len() && !cells.is_empty();
            cells.insert(pos, (key, payload));
            let node = Node::Leaf { next, cells };
            if node.size() <= PAGE_SIZE {
                node.write_to(pager.page_mut(page_id)?);
                return Ok(None);
            }
            let Node::Leaf { next, mut cells } = node else {
                unreachable!()
            };
            if appends {
                // Past the last key of the last leaf: the new cell alone
                // goes right, and the full leaf keeps its cells.
                let new = cells.pop().expect("the new cell");
                let right_id = pager.allocate()?;
                Node::Leaf {
                    next,
                    cells: vec![new],
                }
                .write_to(pager.page_mut(right_id)?);
                let sep = cells.last().expect("the leaf held cells").0;
                Node::Leaf {
                    next: right_id,
                    cells,
                }
                .write_to(pager.page_mut(page_id)?);
                return Ok(Some(Split {
                    sep,
                    right: right_id,
                }));
            }
            let mid = leaf_split_point(&cells).ok_or(SqlError::RowTooLarge(len))?;
            let right_cells = cells.split_off(mid);
            let right_id = pager.allocate()?;
            let sep = cells.last().expect("left half non-empty").0;
            Node::Leaf {
                next,
                cells: right_cells,
            }
            .write_to(pager.page_mut(right_id)?);
            Node::Leaf {
                next: right_id,
                cells,
            }
            .write_to(pager.page_mut(page_id)?);
            Ok(Some(Split {
                sep,
                right: right_id,
            }))
        }
        Node::Interior {
            mut rightmost,
            mut cells,
        } => {
            let (slot, child) = match cells.iter().position(|(k, _)| key <= *k) {
                Some(i) => (Some(i), cells[i].1),
                None => (None, rightmost),
            };
            let Some(split) = insert_into(pager, child, key, payload)? else {
                return Ok(None);
            };
            match slot {
                Some(i) => {
                    let old_key = cells[i].0;
                    cells[i] = (split.sep, child);
                    cells.insert(i + 1, (old_key, split.right));
                }
                None => {
                    cells.push((split.sep, child));
                    rightmost = split.right;
                }
            }
            let node = Node::Interior { rightmost, cells };
            if node.size() <= PAGE_SIZE {
                node.write_to(pager.page_mut(page_id)?);
                return Ok(None);
            }
            let Node::Interior {
                rightmost,
                mut cells,
            } = node
            else {
                unreachable!()
            };
            let mid = cells.len() / 2;
            let (sep, left_rightmost) = cells[mid];
            let right = Node::Interior {
                rightmost,
                cells: cells[mid + 1..].to_vec(),
            };
            cells.truncate(mid);
            let right_id = pager.allocate()?;
            right.write_to(pager.page_mut(right_id)?);
            Node::Interior {
                rightmost: left_rightmost,
                cells,
            }
            .write_to(pager.page_mut(page_id)?);
            Ok(Some(Split {
                sep,
                right: right_id,
            }))
        }
    }
}

pub fn update(tree: &BTree, pager: &mut Pager, key: i64, payload: Vec<u8>) -> Result<(), SqlError> {
    if !delete(tree, pager, key)? {
        return Err(SqlError::Constraint(format!(
            "update of missing rowid {key}"
        )));
    }
    insert(tree, pager, key, payload)
}

pub fn delete(tree: &BTree, pager: &mut Pager, key: i64) -> Result<bool, SqlError> {
    let mut page_id = tree.root;
    loop {
        match Node::parse(pager.page(page_id)?)? {
            Node::Leaf { next, mut cells } => {
                let Ok(pos) = cells.binary_search_by_key(&key, |(k, _)| *k) else {
                    return Ok(false);
                };
                cells.remove(pos);
                Node::Leaf { next, cells }.write_to(pager.page_mut(page_id)?);
                return Ok(true);
            }
            Node::Interior { rightmost, cells } => page_id = child_for(&cells, rightmost, key),
        }
    }
}

pub fn collect_all(tree: &BTree, pager: &mut Pager) -> Result<Vec<(i64, Vec<u8>)>, SqlError> {
    let mut page_id = tree.root;
    while let Node::Interior { rightmost, cells } = Node::parse(pager.page(page_id)?)? {
        page_id = cells.first().map_or(rightmost, |(_, c)| *c);
    }
    let mut out = Vec::new();
    loop {
        let Node::Leaf { next, cells } = Node::parse(pager.page(page_id)?)? else {
            return Err(SqlError::Corrupt("leaf chain hit an interior node".into()));
        };
        out.extend(cells);
        if next == 0 {
            return Ok(out);
        }
        page_id = next;
    }
}

pub fn max_key(tree: &BTree, pager: &mut Pager) -> Result<Option<i64>, SqlError> {
    let mut page_id = tree.root;
    loop {
        match Node::parse(pager.page(page_id)?)? {
            Node::Leaf { cells, .. } => {
                if let Some((k, _)) = cells.last() {
                    return Ok(Some(*k));
                }
                let all = collect_all(tree, pager)?;
                return Ok(all.last().map(|(k, _)| *k));
            }
            Node::Interior { rightmost, .. } => page_id = rightmost,
        }
    }
}
