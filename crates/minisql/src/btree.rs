//! B+tree keyed by 64-bit rowids — the storage structure behind every table
//! (and the catalog). Interior nodes route by max-key; leaves form a chain
//! for in-order scans.
//!
//! # Page layout
//!
//! A 7-byte header (type `u8`, cell count `u16`, aux `u32` — a leaf's next
//! leaf, an interior page's rightmost child), then the cells, packed, in key
//! order; the rest of the page is zero. A leaf cell is `key i64, len u16,
//! payload`; an interior cell is `key i64, child u32` (340 to a page).
//!
//! # In place
//!
//! Lookups, scans, deletes, interior descents and every insert that fits its
//! page work on the cached page image: a bounds-checked walk over the cell
//! headers, then one `copy_within` to open or close the gap (a delete
//! zero-fills the vacated tail). Only a *split* materialises a page as a
//! [`Node`], the form that is easy to cut in two. Both routes produce the
//! same bytes — `Node::write_to` is what every page used to be written
//! with, and the `crosscheck_*` tests compare the two page for page — and
//! `tests/golden.rs` pins the resulting database files.
//!
//! An INSERT descends once: [`BTree::tail`] walks down the rightmost edge
//! to the last leaf and over its cells, which gives the largest key (the
//! next automatic rowid) and the end of the leaf, and [`BTree::append`]
//! writes every larger key there in place — the bytes [`BTree::insert`]
//! would write after a descent of its own. The database keeps the tail
//! for the next INSERT into the same tree ([`BTree::resume_tail`]), so
//! consecutive appends descend not at all.
//!
//! Every page can arrive by PBFT state transfer, so nothing here trusts a
//! count, a length or a child id: a malformed page is
//! [`SqlError::Corrupt`], never a panic, and descents and chain walks are
//! bounded so a cycle of page ids is an error as well.

use std::ops::Range;

use crate::error::SqlError;
use crate::pager::{Pager, PAGE_SIZE};

#[cfg(test)]
mod oracle;

const LEAF: u8 = 1;
const INTERIOR: u8 = 2;
const HDR: usize = 7; // type u8, nkeys u16, aux u32
const LEAF_CELL_HDR: usize = 10; // key i64, payload length u16
const INTERIOR_CELL: usize = 12; // key i64, child u32

/// Cells an interior page holds before it splits (340).
const MAX_INTERIOR_CELLS: usize = (PAGE_SIZE - HDR) / INTERIOR_CELL;

/// Interior levels a descent may cross. Pages are never merged, so every
/// interior page below the root keeps at least 170 children and a tree over
/// 32-bit page ids is at most 6 levels deep; a longer descent is a cycle.
const MAX_DEPTH: usize = 16;

/// Maximum payload stored in one leaf cell (one row). Rows larger than this
/// are rejected with [`SqlError::RowTooLarge`] — minisql does not implement
/// overflow pages (a documented simplification vs. SQLite).
pub const MAX_PAYLOAD: usize = PAGE_SIZE - HDR - 16;

/// Make `page` an empty leaf (new roots, cleared tables).
pub fn init_leaf(page: &mut [u8]) {
    page.fill(0);
    page[0] = LEAF;
}

fn corrupt(m: &str) -> SqlError {
    SqlError::Corrupt(format!("btree: {m}"))
}

fn unknown_type(ty: u8) -> SqlError {
    corrupt(&format!("unknown node type {ty}"))
}

// Big-endian field reads. Callers have checked that the field lies inside
// the page.
fn u16_at(page: &[u8], at: usize) -> usize {
    usize::from(u16::from_be_bytes([page[at], page[at + 1]]))
}

fn u32_at(page: &[u8], at: usize) -> u32 {
    u32::from_be_bytes(page[at..at + 4].try_into().expect("4 bytes"))
}

fn i64_at(page: &[u8], at: usize) -> i64 {
    i64::from_be_bytes(page[at..at + 8].try_into().expect("8 bytes"))
}

fn set_cell_count(page: &mut [u8], n: usize) {
    let n = u16::try_from(n).expect("cells are at least 10 bytes: a page holds under 410");
    page[1..3].copy_from_slice(&n.to_be_bytes());
}

/// One cell of a leaf page, by position: the cell is `page[start..end]`.
#[derive(Debug, Clone, Copy)]
struct LeafCell {
    key: i64,
    start: usize,
    end: usize,
}

impl LeafCell {
    fn payload(&self) -> Range<usize> {
        self.start + LEAF_CELL_HDR..self.end
    }
}

/// The bounds-checked walk over a leaf's cell headers. After the last cell
/// `pos` is the end of the used part of the page.
struct LeafCells<'a> {
    page: &'a [u8],
    left: usize,
    pos: usize,
}

impl<'a> LeafCells<'a> {
    fn new(page: &'a [u8]) -> Self {
        LeafCells {
            page,
            left: u16_at(page, 1),
            pos: HDR,
        }
    }
}

impl Iterator for LeafCells<'_> {
    type Item = Result<LeafCell, SqlError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        let start = self.pos;
        if start + LEAF_CELL_HDR > self.page.len() {
            return Some(Err(corrupt("leaf cell header past page end")));
        }
        let end = start + LEAF_CELL_HDR + u16_at(self.page, start + 8);
        if end > self.page.len() {
            return Some(Err(corrupt("leaf payload past page end")));
        }
        self.left -= 1;
        self.pos = end;
        Some(Ok(LeafCell {
            key: i64_at(self.page, start),
            start,
            end,
        }))
    }
}

/// Where a key is, or belongs, in a leaf.
struct Slot {
    /// The cell holding the key, if present.
    found: Option<LeafCell>,
    /// Offset of the first cell with a key `>=` the key (where a new cell
    /// goes); `used` if there is none.
    at: usize,
    /// End of the used part of the page.
    used: usize,
}

fn locate(page: &[u8], key: i64) -> Result<Slot, SqlError> {
    let mut cells = LeafCells::new(page);
    let mut at = None;
    let mut found = None;
    for cell in cells.by_ref() {
        let cell = cell?;
        if at.is_none() && cell.key >= key {
            at = Some(cell.start);
            if cell.key == key {
                found = Some(cell);
            }
        }
    }
    Ok(Slot {
        found,
        at: at.unwrap_or(cells.pos),
        used: cells.pos,
    })
}

/// Cell count of an interior page, checked against the page size.
fn interior_cells(page: &[u8]) -> Result<usize, SqlError> {
    let n = u16_at(page, 1);
    if HDR + n * INTERIOR_CELL > page.len() {
        return Err(corrupt("interior cell past page end"));
    }
    Ok(n)
}

fn interior_key(page: &[u8], i: usize) -> i64 {
    i64_at(page, HDR + i * INTERIOR_CELL)
}

fn interior_child(page: &[u8], i: usize) -> u32 {
    u32_at(page, HDR + i * INTERIOR_CELL + 8)
}

/// The child of an interior page that covers `key`: the first cell whose key
/// is `>= key` (`Some(slot)`), else the rightmost child (`None`).
fn route(page: &[u8], key: i64) -> Result<(Option<usize>, u32), SqlError> {
    let n = interior_cells(page)?;
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if interior_key(page, mid) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(if lo < n {
        (Some(lo), interior_child(page, lo))
    } else {
        (None, u32_at(page, 3))
    })
}

fn leaf_size(cells: &[(i64, Vec<u8>)]) -> usize {
    HDR + cells
        .iter()
        .map(|(_, p)| LEAF_CELL_HDR + p.len())
        .sum::<usize>()
}

/// A page in the form that is easy to cut in two: the working form of a
/// split (and the oracle the in-place operations are tested against).
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        next: u32,
        cells: Vec<(i64, Vec<u8>)>,
    },
    Interior {
        rightmost: u32,
        cells: Vec<(i64, u32)>,
    },
}

impl Node {
    fn parse(page: &[u8]) -> Result<Node, SqlError> {
        let aux = u32_at(page, 3);
        match page[0] {
            LEAF => {
                let cells = LeafCells::new(page)
                    .map(|cell| cell.map(|c| (c.key, page[c.payload()].to_vec())))
                    .collect::<Result<_, _>>()?;
                Ok(Node::Leaf { next: aux, cells })
            }
            INTERIOR => {
                let cells = (0..interior_cells(page)?)
                    .map(|i| (interior_key(page, i), interior_child(page, i)))
                    .collect();
                Ok(Node::Interior {
                    rightmost: aux,
                    cells,
                })
            }
            other => Err(unknown_type(other)),
        }
    }

    fn size(&self) -> usize {
        match self {
            Node::Leaf { cells, .. } => leaf_size(cells),
            Node::Interior { cells, .. } => HDR + cells.len() * INTERIOR_CELL,
        }
    }

    /// Overwrite `page` with this node: header, packed cells, zero tail.
    fn write_to(&self, page: &mut [u8]) {
        assert!(self.size() <= page.len(), "node overflows page");
        page.fill(0);
        match self {
            Node::Leaf { next, cells } => {
                page[0] = LEAF;
                set_cell_count(page, cells.len());
                page[3..7].copy_from_slice(&next.to_be_bytes());
                let mut pos = HDR;
                for (key, payload) in cells {
                    page[pos..pos + 8].copy_from_slice(&key.to_be_bytes());
                    page[pos + 8..pos + 10].copy_from_slice(&(payload.len() as u16).to_be_bytes());
                    pos += LEAF_CELL_HDR;
                    page[pos..pos + payload.len()].copy_from_slice(payload);
                    pos += payload.len();
                }
            }
            Node::Interior { rightmost, cells } => {
                page[0] = INTERIOR;
                set_cell_count(page, cells.len());
                page[3..7].copy_from_slice(&rightmost.to_be_bytes());
                let mut pos = HDR;
                for (key, child) in cells {
                    page[pos..pos + 8].copy_from_slice(&key.to_be_bytes());
                    page[pos + 8..pos + 12].copy_from_slice(&child.to_be_bytes());
                    pos += INTERIOR_CELL;
                }
            }
        }
    }
}

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

/// Result of an insertion that overflowed a node.
#[derive(Clone, Copy)]
struct Split {
    /// The original node now holds keys ≤ `sep`…
    sep: i64,
    /// …and this new node holds the rest.
    right: u32,
}

/// The end of a tree: its rightmost leaf, which in a tree this code wrote
/// holds keys above every separator on the way down to it, so a key above
/// its last one belongs after that last cell.
#[derive(Debug)]
pub struct Tail {
    /// The tree's root page.
    root: u32,
    leaf: u32,
    /// The leaf's last key (`None`: the leaf is empty, or the tail is spent).
    last: Option<i64>,
    /// End of the used part of the leaf.
    used: usize,
}

/// A descent from the root: the interior pages crossed, each with the cell
/// slot taken (`None` = rightmost child), and the leaf reached.
struct Path {
    steps: [(u32, Option<usize>); MAX_DEPTH],
    depth: usize,
    leaf: u32,
}

/// A B+tree rooted at a fixed page (the root page id never changes, so
/// catalog entries stay valid across splits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTree {
    /// Root page id.
    pub root: u32,
}

impl BTree {
    /// Create an empty tree on a freshly allocated page.
    ///
    /// # Errors
    /// Storage failures.
    pub fn create(pager: &mut Pager) -> Result<BTree, SqlError> {
        let root = pager.allocate()?;
        init_leaf(pager.page_mut(root)?);
        Ok(BTree { root })
    }

    /// Descend to the leaf that holds (or would hold) `key` and locate the
    /// key in it.
    fn seek(&self, pager: &mut Pager, key: i64) -> Result<(Path, Slot), SqlError> {
        let mut path = Path {
            steps: [(0, None); MAX_DEPTH],
            depth: 0,
            leaf: self.root,
        };
        loop {
            let page = pager.page(path.leaf)?;
            match page[0] {
                LEAF => return Ok((path, locate(page, key)?)),
                INTERIOR => {
                    if path.depth == MAX_DEPTH {
                        return Err(corrupt("descent deeper than any valid tree"));
                    }
                    let (slot, child) = route(page, key)?;
                    path.steps[path.depth] = (path.leaf, slot);
                    path.depth += 1;
                    path.leaf = child;
                }
                other => return Err(unknown_type(other)),
            }
        }
    }

    /// The leftmost or rightmost leaf.
    fn edge_leaf(&self, pager: &mut Pager, rightmost: bool) -> Result<u32, SqlError> {
        let mut page_id = self.root;
        for _ in 0..=MAX_DEPTH {
            let page = pager.page(page_id)?;
            match page[0] {
                LEAF => return Ok(page_id),
                INTERIOR => {
                    page_id = if rightmost || interior_cells(page)? == 0 {
                        u32_at(page, 3)
                    } else {
                        interior_child(page, 0)
                    };
                }
                other => return Err(unknown_type(other)),
            }
        }
        Err(corrupt("descent deeper than any valid tree"))
    }

    /// One descent to the rightmost leaf and one walk over its cells.
    ///
    /// # Errors
    /// Storage failures / corruption.
    pub fn tail(&self, pager: &mut Pager) -> Result<Tail, SqlError> {
        let leaf = self.edge_leaf(pager, true)?;
        let mut cells = LeafCells::new(pager.page(leaf)?);
        let mut last = None;
        for cell in cells.by_ref() {
            last = Some(cell?.key);
        }
        Ok(Tail {
            root: self.root,
            leaf,
            last,
            used: cells.pos,
        })
    }

    /// The tree's [`Tail`]: `kept`, if it is this tree's and not spent,
    /// else a fresh one ([`BTree::tail`]). The caller vouches that since
    /// `kept` was last used, nothing but [`BTree::append`] through it has
    /// changed the tree's cached pages.
    ///
    /// # Errors
    /// As [`BTree::tail`].
    pub fn resume_tail(&self, pager: &mut Pager, kept: Option<Tail>) -> Result<Tail, SqlError> {
        match kept {
            Some(tail) if tail.root == self.root && tail.last.is_some() => Ok(tail),
            _ => self.tail(pager),
        }
    }

    /// Insert a new `(key, payload)` given the tree's [`Tail`]: a key above
    /// the tail's last one is written after it in place — what [`insert`]
    /// would do after its own descent — and the tail moves on; any other
    /// key, or a cell that does not fit, goes through [`insert`] and spends
    /// the tail (every later key goes that way too).
    ///
    /// [`insert`]: BTree::insert
    ///
    /// # Errors
    /// As [`BTree::insert`].
    pub fn append(
        &self,
        pager: &mut Pager,
        tail: &mut Tail,
        key: i64,
        payload: &[u8],
    ) -> Result<(), SqlError> {
        let need = LEAF_CELL_HDR + payload.len();
        if !(tail.used + need <= PAGE_SIZE && tail.last.is_some_and(|last| key > last)) {
            tail.last = None;
            return self.insert(pager, key, payload);
        }
        let page = pager.page_mut(tail.leaf)?;
        let at = tail.used;
        page[at..at + 8].copy_from_slice(&key.to_be_bytes());
        page[at + 8..at + 10].copy_from_slice(&(payload.len() as u16).to_be_bytes());
        page[at + LEAF_CELL_HDR..at + need].copy_from_slice(payload);
        set_cell_count(page, u16_at(page, 1) + 1);
        tail.used += need;
        tail.last = Some(key);
        Ok(())
    }

    /// Point lookup: the payload, borrowed from the cached page.
    ///
    /// # Errors
    /// Storage failures / corruption.
    pub fn get<'p>(&self, pager: &'p mut Pager, key: i64) -> Result<Option<&'p [u8]>, SqlError> {
        let (path, slot) = self.seek(pager, key)?;
        let Some(cell) = slot.found else {
            return Ok(None);
        };
        Ok(Some(&pager.page(path.leaf)?[cell.payload()]))
    }

    /// Insert a new `(key, payload)`; duplicate keys are a constraint error.
    ///
    /// # Errors
    /// [`SqlError::Constraint`] on duplicates, [`SqlError::RowTooLarge`] on
    /// oversized payloads, storage failures.
    pub fn insert(&self, pager: &mut Pager, key: i64, payload: &[u8]) -> Result<(), SqlError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(SqlError::RowTooLarge(payload.len()));
        }
        let (path, slot) = self.seek(pager, key)?;
        if slot.found.is_some() {
            return Err(SqlError::Constraint(format!("duplicate rowid {key}")));
        }
        let need = LEAF_CELL_HDR + payload.len();
        if slot.used + need <= PAGE_SIZE {
            // Open a gap at the key's place and write the cell into it.
            let page = pager.page_mut(path.leaf)?;
            let at = slot.at;
            page.copy_within(at..slot.used, at + need);
            page[at..at + 8].copy_from_slice(&key.to_be_bytes());
            page[at + 8..at + 10].copy_from_slice(&(payload.len() as u16).to_be_bytes());
            page[at + LEAF_CELL_HDR..at + need].copy_from_slice(payload);
            set_cell_count(page, u16_at(page, 1) + 1);
            return Ok(());
        }
        let mut split = self.split_leaf(pager, path.leaf, key, payload)?;
        for &(page_id, slot) in path.steps[..path.depth].iter().rev() {
            match self.insert_child(pager, page_id, slot, split)? {
                Some(above) => split = above,
                None => return Ok(()),
            }
        }
        // Root split: copy the (already-split) root into a fresh left page
        // and convert the root into an interior node so its page id stays
        // stable.
        let left = pager.allocate()?;
        let root_bytes = pager.page(self.root)?.to_vec();
        pager.page_mut(left)?.copy_from_slice(&root_bytes);
        Node::Interior {
            rightmost: split.right,
            cells: vec![(split.sep, left)],
        }
        .write_to(pager.page_mut(self.root)?);
        Ok(())
    }

    /// Insert into a leaf that has no room: move the upper half of its cells
    /// to a new right page.
    fn split_leaf(
        &self,
        pager: &mut Pager,
        page_id: u32,
        key: i64,
        payload: &[u8],
    ) -> Result<Split, SqlError> {
        let Node::Leaf { next, mut cells } = Node::parse(pager.page(page_id)?)? else {
            unreachable!("seek ends on a leaf")
        };
        let pos = cells.partition_point(|(k, _)| *k < key);
        cells.insert(pos, (key, payload.to_vec()));
        let mid = leaf_split_point(&cells).ok_or(SqlError::RowTooLarge(payload.len()))?;
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
        Ok(Split {
            sep,
            right: right_id,
        })
    }

    /// Record in interior page `page_id` that the child under `slot` split:
    /// the child now holds keys ≤ `split.sep`, `split.right` holds the rest.
    fn insert_child(
        &self,
        pager: &mut Pager,
        page_id: u32,
        slot: Option<usize>,
        split: Split,
    ) -> Result<Option<Split>, SqlError> {
        let page = pager.page_mut(page_id)?;
        let n = interior_cells(page)?;
        if n < MAX_INTERIOR_CELLS {
            let end = HDR + n * INTERIOR_CELL;
            match slot {
                Some(i) => {
                    // Duplicate cell i into a gap at i + 1; then cell i takes
                    // the separator (keeping its child) and cell i + 1, which
                    // keeps the old key, points at the new right sibling.
                    let at = HDR + i * INTERIOR_CELL;
                    page.copy_within(at..end, at + INTERIOR_CELL);
                    page[at..at + 8].copy_from_slice(&split.sep.to_be_bytes());
                    page[at + INTERIOR_CELL + 8..at + 2 * INTERIOR_CELL]
                        .copy_from_slice(&split.right.to_be_bytes());
                }
                None => {
                    // The old rightmost child gets a cell of its own.
                    page[end..end + 8].copy_from_slice(&split.sep.to_be_bytes());
                    page.copy_within(3..7, end + 8);
                    page[3..7].copy_from_slice(&split.right.to_be_bytes());
                }
            }
            set_cell_count(page, n + 1);
            return Ok(None);
        }
        // Split the interior node.
        let Node::Interior {
            mut rightmost,
            mut cells,
        } = Node::parse(page)?
        else {
            unreachable!("seek recorded an interior page")
        };
        match slot {
            Some(i) => {
                let (old_key, child) = cells[i];
                cells[i] = (split.sep, child);
                cells.insert(i + 1, (old_key, split.right));
            }
            None => {
                cells.push((split.sep, rightmost));
                rightmost = split.right;
            }
        }
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

    /// Replace the payload of an existing key (delete, then insert).
    ///
    /// # Errors
    /// [`SqlError::Constraint`] if the key does not exist.
    pub fn update(&self, pager: &mut Pager, key: i64, payload: &[u8]) -> Result<(), SqlError> {
        if !self.delete(pager, key)? {
            return Err(SqlError::Constraint(format!(
                "update of missing rowid {key}"
            )));
        }
        self.insert(pager, key, payload)
    }

    /// Delete a key; returns whether it existed. (No page merging: pages may
    /// stay sparse until the table is dropped — a documented simplification.)
    ///
    /// # Errors
    /// Storage failures / corruption.
    pub fn delete(&self, pager: &mut Pager, key: i64) -> Result<bool, SqlError> {
        let (path, slot) = self.seek(pager, key)?;
        let Some(cell) = slot.found else {
            return Ok(false);
        };
        // Close the gap and zero the vacated tail.
        let page = pager.page_mut(path.leaf)?;
        page.copy_within(cell.end..slot.used, cell.start);
        page[slot.used - (cell.end - cell.start)..slot.used].fill(0);
        set_cell_count(page, u16_at(page, 1) - 1);
        Ok(true)
    }

    /// Visit every `(key, payload)` in key order; payloads are borrowed from
    /// the cached pages.
    ///
    /// # Errors
    /// Storage failures / corruption, or the first error `visit` returns.
    pub fn scan(
        &self,
        pager: &mut Pager,
        mut visit: impl FnMut(i64, &[u8]) -> Result<(), SqlError>,
    ) -> Result<(), SqlError> {
        // Find the leftmost leaf, then follow the chain — which in a valid
        // file visits no page twice.
        let mut page_id = self.edge_leaf(pager, false)?;
        for _ in 0..pager.page_count() {
            let page = pager.page(page_id)?;
            match page[0] {
                LEAF => {}
                INTERIOR => {
                    return Err(SqlError::Corrupt("leaf chain hit an interior node".into()))
                }
                other => return Err(unknown_type(other)),
            }
            for cell in LeafCells::new(page) {
                let cell = cell?;
                visit(cell.key, &page[cell.payload()])?;
            }
            page_id = u32_at(page, 3);
            if page_id == 0 {
                return Ok(());
            }
        }
        Err(corrupt("leaf chain longer than the file"))
    }

    /// Largest key in the tree (next-rowid assignment).
    ///
    /// # Errors
    /// Storage failures / corruption.
    pub fn max_key(&self, pager: &mut Pager) -> Result<Option<i64>, SqlError> {
        let tail = self.tail(pager)?;
        self.max_key_at(pager, &tail)
    }

    /// Largest key in the tree, given its fresh [`Tail`]: the tail's last
    /// key, or — the rightmost leaf can be empty after deletions — the last
    /// key of a full scan.
    ///
    /// # Errors
    /// Storage failures / corruption.
    pub fn max_key_at(&self, pager: &mut Pager, tail: &Tail) -> Result<Option<i64>, SqlError> {
        let mut last = tail.last;
        if last.is_none() {
            self.scan(pager, |key, _| {
                last = Some(key);
                Ok(())
            })?;
        }
        Ok(last)
    }

    /// Free every page of the tree except the root, which is reset to an
    /// empty leaf (DELETE without WHERE).
    ///
    /// # Errors
    /// Storage failures / corruption.
    pub fn clear(&self, pager: &mut Pager) -> Result<(), SqlError> {
        let pages = self.all_pages(pager)?;
        for p in pages {
            if p != self.root {
                pager.free(p)?;
            }
        }
        init_leaf(pager.page_mut(self.root)?);
        Ok(())
    }

    /// Free the entire tree including the root (DROP TABLE).
    ///
    /// # Errors
    /// Storage failures / corruption.
    pub fn destroy(self, pager: &mut Pager) -> Result<(), SqlError> {
        let pages = self.all_pages(pager)?;
        for p in pages {
            pager.free(p)?;
        }
        Ok(())
    }

    /// Every page of the tree, in the order `clear`/`destroy` free them
    /// (which decides the order the freelist hands them out again).
    fn all_pages(&self, pager: &mut Pager) -> Result<Vec<u32>, SqlError> {
        let mut stack = vec![self.root];
        let mut out = Vec::new();
        while let Some(p) = stack.pop() {
            if out.len() >= pager.page_count() as usize {
                return Err(corrupt("tree references more pages than the file holds"));
            }
            out.push(p);
            let page = pager.page(p)?;
            match page[0] {
                LEAF => {}
                INTERIOR => {
                    stack.push(u32_at(page, 3));
                    stack.extend((0..interior_cells(page)?).map(|i| interior_child(page, i)));
                }
                other => return Err(unknown_type(other)),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::JournalMode;
    use crate::vfs::{MemVfs, Vfs};

    fn fresh() -> (Pager, BTree) {
        let mut pager = Pager::open(
            Box::new(MemVfs::new()),
            Box::new(MemVfs::new()),
            JournalMode::Off,
        )
        .expect("open");
        let tree = BTree::create(&mut pager).expect("create");
        (pager, tree)
    }

    fn payload(i: i64) -> Vec<u8> {
        format!("row-{i:08}").into_bytes()
    }

    impl BTree {
        /// All `(key, payload)` pairs in key order.
        fn collect_all(&self, pager: &mut Pager) -> Result<Vec<(i64, Vec<u8>)>, SqlError> {
            let mut out = Vec::new();
            self.scan(pager, |key, payload| {
                out.push((key, payload.to_vec()));
                Ok(())
            })?;
            Ok(out)
        }
    }

    #[test]
    fn insert_get_small() {
        let (mut pager, tree) = fresh();
        for i in [5i64, 1, 9, 3] {
            tree.insert(&mut pager, i, &payload(i)).expect("insert");
        }
        assert_eq!(
            tree.get(&mut pager, 3).expect("get"),
            Some(payload(3).as_slice())
        );
        assert_eq!(tree.get(&mut pager, 4).expect("get"), None);
    }

    #[test]
    fn duplicate_rejected() {
        let (mut pager, tree) = fresh();
        tree.insert(&mut pager, 1, &payload(1)).expect("insert");
        assert!(matches!(
            tree.insert(&mut pager, 1, &payload(1)),
            Err(SqlError::Constraint(_))
        ));
    }

    #[test]
    fn oversized_payload_rejected() {
        let (mut pager, tree) = fresh();
        assert!(matches!(
            tree.insert(&mut pager, 1, &vec![0u8; MAX_PAYLOAD + 1]),
            Err(SqlError::RowTooLarge(_))
        ));
    }

    #[test]
    fn thousands_of_keys_with_splits() {
        let (mut pager, tree) = fresh();
        // Insert in a scrambled order to exercise interior splits.
        let mut keys: Vec<i64> = (0..3000).collect();
        let mut state = 12345u64;
        for i in (1..keys.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            keys.swap(i, j);
        }
        for &k in &keys {
            tree.insert(&mut pager, k, &payload(k)).expect("insert");
        }
        // Spot-check lookups.
        for k in [0i64, 1, 1499, 2998, 2999] {
            assert_eq!(
                tree.get(&mut pager, k).expect("get"),
                Some(payload(k).as_slice()),
                "key {k}"
            );
        }
        // Ordered scan returns everything in order.
        let all = tree.collect_all(&mut pager).expect("scan");
        assert_eq!(all.len(), 3000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(tree.max_key(&mut pager).expect("max"), Some(2999));
    }

    #[test]
    fn large_payloads_split_early() {
        let (mut pager, tree) = fresh();
        let big = vec![0xabu8; 1000];
        for i in 0..50 {
            tree.insert(&mut pager, i, &big).expect("insert");
        }
        let all = tree.collect_all(&mut pager).expect("scan");
        assert_eq!(all.len(), 50);
        assert!(all.iter().all(|(_, p)| p == &big));
    }

    #[test]
    fn delete_and_rescan() {
        let (mut pager, tree) = fresh();
        for i in 0..100 {
            tree.insert(&mut pager, i, &payload(i)).expect("insert");
        }
        for i in (0..100).step_by(2) {
            assert!(tree.delete(&mut pager, i).expect("delete"));
        }
        assert!(
            !tree.delete(&mut pager, 2).expect("delete again"),
            "already gone"
        );
        let all = tree.collect_all(&mut pager).expect("scan");
        assert_eq!(all.len(), 50);
        assert!(all.iter().all(|(k, _)| k % 2 == 1));
    }

    #[test]
    fn max_key_with_emptied_rightmost_leaf() {
        let (mut pager, tree) = fresh();
        for i in 0..500 {
            tree.insert(&mut pager, i, &payload(i)).expect("insert");
        }
        // Delete a tail range that likely empties the rightmost leaf.
        for i in 300..500 {
            tree.delete(&mut pager, i).expect("delete");
        }
        assert_eq!(tree.max_key(&mut pager).expect("max"), Some(299));
    }

    #[test]
    fn update_replaces_payload() {
        let (mut pager, tree) = fresh();
        tree.insert(&mut pager, 7, &payload(7)).expect("insert");
        tree.update(&mut pager, 7, b"new").expect("update");
        assert_eq!(tree.get(&mut pager, 7).expect("get"), Some(&b"new"[..]));
        assert!(tree.update(&mut pager, 8, b"x").is_err());
    }

    #[test]
    fn clear_resets_and_frees() {
        let (mut pager, tree) = fresh();
        for i in 0..1000 {
            tree.insert(&mut pager, i, &payload(i)).expect("insert");
        }
        let pages_before = pager.page_count();
        tree.clear(&mut pager).expect("clear");
        assert!(tree.collect_all(&mut pager).expect("scan").is_empty());
        assert_eq!(tree.max_key(&mut pager).expect("max"), None);
        // Freed pages are reused by new allocations rather than growing the
        // file.
        let again = BTree::create(&mut pager).expect("create");
        assert!(pager.page_count() <= pages_before, "freelist reuse");
        let _ = again;
    }

    #[test]
    fn persists_across_commit_and_cache_invalidation() {
        let (mut pager, tree) = fresh();
        for i in 0..200 {
            tree.insert(&mut pager, i, &payload(i)).expect("insert");
        }
        pager.commit().expect("commit");
        pager.invalidate_cache().expect("invalidate");
        let all = tree.collect_all(&mut pager).expect("scan");
        assert_eq!(all.len(), 200);
    }

    #[test]
    fn empty_tree_scan_and_max() {
        let (mut pager, tree) = fresh();
        assert!(tree.collect_all(&mut pager).expect("scan").is_empty());
        assert_eq!(tree.max_key(&mut pager).expect("max"), None);
        assert_eq!(tree.get(&mut pager, 1).expect("get"), None);
    }

    #[test]
    fn split_of_large_rows_cuts_where_both_halves_fit() {
        // Two 2000-byte rows share a leaf; a 4000-byte row after them does
        // not fit the upper half the middle cut would give it.
        let (mut pager, tree) = fresh();
        tree.insert(&mut pager, 1, &[1u8; 2000]).expect("insert");
        tree.insert(&mut pager, 2, &[2u8; 2000]).expect("insert");
        tree.insert(&mut pager, 3, &[3u8; 4000]).expect("insert");
        let all = tree.collect_all(&mut pager).expect("scan");
        assert_eq!(
            all.iter().map(|(k, p)| (*k, p.len())).collect::<Vec<_>>(),
            vec![(1, 2000), (2, 2000), (3, 4000)]
        );
        // Between two rows it cannot share a page with, a row has no cut at
        // all: an error, and nothing moved.
        let (mut pager, tree) = fresh();
        tree.insert(&mut pager, 1, &[1u8; 2000]).expect("insert");
        tree.insert(&mut pager, 3, &[3u8; 2000]).expect("insert");
        let before = pager.page(tree.root).expect("page").to_vec();
        assert_eq!(
            tree.insert(&mut pager, 2, &[2u8; 4000]),
            Err(SqlError::RowTooLarge(4000))
        );
        assert_eq!(pager.page(tree.root).expect("page"), before);
        assert_eq!(pager.page_count(), 3, "no page allocated");
    }

    // ------------------------------------------------------------------
    // crosscheck_*: the in-place operations against the `Node` oracle, and
    // against pages that are not what this code would have written.
    // ------------------------------------------------------------------

    /// Both pagers hold the same pages, byte for byte (page 0 is only
    /// written at commit).
    fn assert_same_pages(a: &mut Pager, b: &mut Pager) {
        assert_eq!(a.page_count(), b.page_count(), "page count");
        for id in 1..a.page_count() {
            assert!(
                a.page(id).expect("page") == b.page(id).expect("page"),
                "page {id} differs"
            );
        }
    }

    /// One operation through both implementations: same result, same pages.
    fn both(
        (pa, ta): (&mut Pager, &BTree),
        (pb, tb): (&mut Pager, &BTree),
        op: u8,
        key: i64,
        payload: &[u8],
    ) {
        match op {
            0 => assert_eq!(
                ta.insert(pa, key, payload),
                oracle::insert(tb, pb, key, payload.to_vec())
            ),
            1 => assert_eq!(ta.delete(pa, key), oracle::delete(tb, pb, key)),
            2 => assert_eq!(
                ta.update(pa, key, payload),
                oracle::update(tb, pb, key, payload.to_vec())
            ),
            3 => assert_eq!(
                ta.get(pa, key).map(|p| p.map(<[u8]>::to_vec)),
                oracle::get(tb, pb, key)
            ),
            4 => assert_eq!(ta.max_key(pa), oracle::max_key(tb, pb)),
            6 => {
                let rows = [(None, payload)];
                assert_eq!(append_rows(ta, pa, &rows), oracle_rows(tb, pb, &rows));
            }
            7 => {
                let rows = [(Some(key), payload)];
                assert_eq!(append_rows(ta, pa, &rows), oracle_rows(tb, pb, &rows));
            }
            _ => assert_eq!(ta.collect_all(pa), oracle::collect_all(tb, pb)),
        }
    }

    /// What an INSERT statement does with its rows: one [`Tail`] for the
    /// statement, and an automatic rowid (`None`) one past the largest so
    /// far.
    fn append_rows(
        tree: &BTree,
        pager: &mut Pager,
        rows: &[(Option<i64>, &[u8])],
    ) -> Result<(), SqlError> {
        let mut tail = tree.tail(pager)?;
        let mut next = tree.max_key_at(pager, &tail)?.unwrap_or(0) + 1;
        for &(key, payload) in rows {
            let key = key.unwrap_or(next);
            next = next.max(key + 1);
            tree.append(pager, &mut tail, key, payload)?;
        }
        Ok(())
    }

    /// [`append_rows`] through the oracle: `max_key`, then an insert per row.
    fn oracle_rows(
        tree: &BTree,
        pager: &mut Pager,
        rows: &[(Option<i64>, &[u8])],
    ) -> Result<(), SqlError> {
        let mut next = oracle::max_key(tree, pager)?.unwrap_or(0) + 1;
        for &(key, payload) in rows {
            let key = key.unwrap_or(next);
            next = next.max(key + 1);
            oracle::insert(tree, pager, key, payload.to_vec())?;
        }
        Ok(())
    }

    #[test]
    fn crosscheck_prop_appends_match_node_oracle() {
        // Multi-row INSERTs through one tail: automatic rowids, explicit
        // ones above and below the largest key and equal to it, rows that
        // fill or split the rightmost leaf or fit nowhere; deletes empty
        // the rightmost leaf now and then.
        propcheck::check("btree_appends_match_node_oracle", 64, |g| {
            let (mut pa, ta) = fresh();
            let (mut pb, tb) = fresh();
            for _ in 0..g.usize_in(1..120) {
                if g.choice(6) == 0 {
                    // Delete the largest few keys.
                    let max = ta.max_key(&mut pa).expect("max").unwrap_or(0);
                    for key in max - g.i64_in(0..12)..=max {
                        both((&mut pa, &ta), (&mut pb, &tb), 1, key, &[]);
                    }
                    continue;
                }
                let max = ta.max_key(&mut pa).expect("max").unwrap_or(0);
                let rows: Vec<(Option<i64>, Vec<u8>)> = (0..g.usize_in(1..6))
                    .map(|_| {
                        let key = match g.choice(6) {
                            0 => Some(max + g.i64_in(1..4)),
                            1 => Some(g.i64_in(-3..max + 1)),
                            _ => None,
                        };
                        let len = match g.choice(8) {
                            0..=4 => g.usize_in(0..300),
                            5 | 6 => g.usize_in(300..2000),
                            _ => g.usize_in(2000..MAX_PAYLOAD + 2),
                        };
                        (key, vec![g.u8(); len])
                    })
                    .collect();
                let rows: Vec<(Option<i64>, &[u8])> =
                    rows.iter().map(|(k, p)| (*k, p.as_slice())).collect();
                assert_eq!(
                    append_rows(&ta, &mut pa, &rows),
                    oracle_rows(&tb, &mut pb, &rows)
                );
                assert_same_pages(&mut pa, &mut pb);
            }
            both((&mut pa, &ta), (&mut pb, &tb), 5, 0, &[]);
        });
    }

    #[test]
    fn crosscheck_appends_through_interior_splits_match_oracle() {
        // Rows of ~1.4 KB, two to a leaf: every other automatic rowid is
        // appended in place, the rest split the rightmost leaf, until the
        // root interior page (340 cells) and then its right child split.
        let (mut pa, ta) = fresh();
        let (mut pb, tb) = fresh();
        for i in 0..700usize {
            let payload = vec![i as u8; 1380 + i * 7 % 200];
            both((&mut pa, &ta), (&mut pb, &tb), 6, 0, &payload);
            if i % 50 == 0 {
                assert_same_pages(&mut pa, &mut pb);
            }
        }
        let interior = (2..pa.page_count())
            .filter(|&id| pa.page(id).expect("page")[0] == INTERIOR)
            .count();
        assert!(
            interior >= 3,
            "root and two interior children, got {interior}"
        );
        // Explicit rowids above the largest and below it.
        both((&mut pa, &ta), (&mut pb, &tb), 7, 5_000, b"above");
        both((&mut pa, &ta), (&mut pb, &tb), 6, 0, b"after above");
        both((&mut pa, &ta), (&mut pb, &tb), 7, 0, b"below");
        both((&mut pa, &ta), (&mut pb, &tb), 7, 350, b"duplicate");
        both((&mut pa, &ta), (&mut pb, &tb), 7, 5_001, b"duplicate");
        both((&mut pa, &ta), (&mut pb, &tb), 6, 0, b"after below");
        // Empty the rightmost leaves: the next rowid comes from a full
        // scan and the row from `insert`.
        for key in 600..=5_002 {
            both((&mut pa, &ta), (&mut pb, &tb), 1, key, &[]);
        }
        assert_eq!(ta.tail(&mut pa).expect("tail").last, None);
        for _ in 0..5 {
            both((&mut pa, &ta), (&mut pb, &tb), 6, 0, &[9u8; 1500]);
        }
        assert_same_pages(&mut pa, &mut pb);
        both((&mut pa, &ta), (&mut pb, &tb), 5, 0, &[]);
    }

    #[test]
    fn crosscheck_prop_in_place_matches_node_oracle() {
        propcheck::check("btree_in_place_matches_node_oracle", 64, |g| {
            let (mut pa, ta) = fresh();
            let (mut pb, tb) = fresh();
            // A key space small enough for duplicates, hits and emptied
            // leaves; payloads from empty to larger than half a page, so
            // leaves split after a handful of rows and some rows have no
            // place at all.
            let keys = g.i64_in(4..200);
            for _ in 0..g.usize_in(1..300) {
                let key = g.i64_in(-keys..keys);
                let len = match g.choice(8) {
                    0 => g.usize_in(0..8),
                    1..=4 => g.usize_in(8..200),
                    5 | 6 => g.usize_in(200..1500),
                    _ => g.usize_in(1500..MAX_PAYLOAD + 2),
                };
                let payload = vec![g.u8(); len];
                let op = [0, 0, 0, 1, 1, 2, 2, 3, 4, 5][g.choice(10)];
                both((&mut pa, &ta), (&mut pb, &tb), op, key, &payload);
                assert_same_pages(&mut pa, &mut pb);
            }
            both((&mut pa, &ta), (&mut pb, &tb), 5, 0, &[]);
        });
    }

    #[test]
    fn crosscheck_interior_splits_match_oracle() {
        // Rows of ~1.4 KB, two to a leaf: ascending keys append a leaf per
        // row through the rightmost slot until the root interior page (340
        // cells) and then its right child split; scrambled keys below them
        // split leaves under every other slot.
        let (mut pa, ta) = fresh();
        let (mut pb, tb) = fresh();
        let mut state = 99u64;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for i in 0..560i64 {
            let payload = vec![i as u8; 1380 + rand() % 200];
            both((&mut pa, &ta), (&mut pb, &tb), 0, 100_000 + i, &payload);
            if i % 40 == 0 {
                assert_same_pages(&mut pa, &mut pb);
            }
        }
        for i in 0..700 {
            let key = (rand() % 90_000) as i64;
            let payload = vec![i as u8; 600 + rand() % 1200];
            both((&mut pa, &ta), (&mut pb, &tb), 0, key, &payload);
            if i % 40 == 0 {
                assert_same_pages(&mut pa, &mut pb);
            }
        }
        let interior = (2..pa.page_count())
            .filter(|&id| pa.page(id).expect("page")[0] == INTERIOR)
            .count();
        assert!(
            interior >= 4,
            "root and three interior children, got {interior}"
        );
        // Empty the upper leaves (the full-scan fallback of `max_key`),
        // shrink and grow what is left.
        for i in 0..560i64 {
            both((&mut pa, &ta), (&mut pb, &tb), 1, 100_000 + i, &[]);
        }
        both((&mut pa, &ta), (&mut pb, &tb), 4, 0, &[]);
        for i in 0..300 {
            let key = (rand() % 90_000) as i64;
            let payload = vec![i as u8; rand() % 2500];
            both((&mut pa, &ta), (&mut pb, &tb), 2, key, &payload);
        }
        assert_same_pages(&mut pa, &mut pb);
        both((&mut pa, &ta), (&mut pb, &tb), 5, 0, &[]);
        pa.commit().expect("commit");
        pb.commit().expect("commit");
        assert!(pa.page(0).expect("page") == pb.page(0).expect("page"));
    }

    /// The database file of a three-level tree (root, interior children,
    /// some 480 leaves) with its root page id and its keys' range.
    fn three_level_file() -> (Vec<u8>, BTree, i64) {
        let (mut pager, tree) = fresh();
        let keys = 480i64;
        for i in 0..keys {
            let payload = vec![i as u8; 1400 + (i as usize * 37) % 500];
            tree.insert(&mut pager, i * 3, &payload).expect("insert");
        }
        pager.commit().expect("commit");
        let mut file = vec![0u8; pager.db_vfs().len() as usize];
        pager.db_vfs().read_at(0, &mut file).expect("read");
        (file, tree, keys * 3)
    }

    #[test]
    fn crosscheck_prop_hostile_pages_never_panic() {
        // Every page a replica holds can arrive by state transfer. Damage a
        // few fields of a few pages of a valid tree — counts, lengths, child
        // and chain pointers (cycles included), types, keys — and run every
        // operation: each returns `Ok` or a clean error. A write outside a
        // page would be a slice panic, and a cycle would hang the test.
        let (file, tree, key_range) = three_level_file();
        propcheck::check("btree_hostile_pages_never_panic", 96, |g| {
            let mut db = MemVfs::new();
            db.write_at(0, &file).expect("write");
            let mut pager =
                Pager::open(Box::new(db), Box::new(MemVfs::new()), JournalMode::Off).expect("open");
            let pages = pager.page_count();
            for _ in 0..g.usize_in(1..5) {
                // Damage the root, one of its (interior) children, or any
                // page; new pointers favour those pages too, for cycles.
                let root = pager.page(tree.root).expect("root");
                let below_root =
                    interior_child(root, g.index(u16_at(root, 1).clamp(1, MAX_INTERIOR_CELLS)));
                let anywhere = g.u32() % (pages + 2);
                let id = [tree.root, below_root, anywhere.clamp(2, pages - 1)][g.choice(3)];
                let some_page = [0, tree.root, below_root, id, anywhere][g.choice(5)];
                let page = pager.page_mut(id).expect("page");
                let n = u16_at(page, 1);
                let interior = page[0] == INTERIOR;
                // What an earlier round left in the count need not index the page.
                let cells = n.clamp(1, MAX_INTERIOR_CELLS);
                match g.choice(7) {
                    0 => page[1..3].copy_from_slice(&(g.u64() as u16).to_be_bytes()),
                    1 => set_cell_count(page, (cells + g.usize_in(0..3)).saturating_sub(1)),
                    2 => page[3..7].copy_from_slice(&some_page.to_be_bytes()),
                    3 => page[0] = g.u8_in(0..4),
                    4 if interior => {
                        let at = HDR + g.index(cells) * INTERIOR_CELL + 8;
                        page[at..at + 4].copy_from_slice(&some_page.to_be_bytes());
                    }
                    4 => {
                        // The length field of the first or second cell.
                        let at = if g.bool() {
                            HDR
                        } else {
                            HDR + LEAF_CELL_HDR + u16_at(page, HDR + 8)
                        };
                        if at + LEAF_CELL_HDR <= PAGE_SIZE {
                            page[at + 8..at + 10].copy_from_slice(&(g.u64() as u16).to_be_bytes());
                        }
                    }
                    5 => {
                        let at = HDR + g.index(if interior { cells * INTERIOR_CELL } else { 64 });
                        page[at] = g.u8();
                    }
                    _ => {
                        let at = g.index(PAGE_SIZE);
                        page[at] ^= 1 << g.u8_in(0..8);
                    }
                }
            }
            let clean = |r: Result<(), SqlError>| {
                assert!(
                    matches!(
                        r,
                        Ok(())
                            | Err(SqlError::Corrupt(_)
                                | SqlError::Constraint(_)
                                | SqlError::RowTooLarge(_))
                    ),
                    "unexpected error {r:?}"
                );
            };
            for _ in 0..g.usize_in(1..40) {
                let key = g.i64_in(-2..key_range + 2);
                let payload = vec![g.u8(); g.usize_in(0..2200)];
                match g.choice(8) {
                    0 => clean(tree.insert(&mut pager, key, &payload)),
                    1 => {
                        let auto = g.bool().then_some(key);
                        clean(append_rows(
                            &tree,
                            &mut pager,
                            &[(auto, &payload), (None, b"x")],
                        ));
                    }
                    2 => clean(tree.delete(&mut pager, key).map(drop)),
                    3 => clean(tree.update(&mut pager, key, &payload)),
                    4 => clean(tree.get(&mut pager, key).map(drop)),
                    5 => clean(tree.max_key(&mut pager).map(drop)),
                    6 => clean(tree.scan(&mut pager, |_, _| Ok(()))),
                    _ => clean(append_rows(&tree, &mut pager, &[(None, &payload)])),
                }
            }
            if g.bool() {
                clean(tree.clear(&mut pager));
                clean(tree.insert(&mut pager, 1, b"after clear"));
            } else {
                clean(tree.destroy(&mut pager));
                clean(BTree::create(&mut pager).map(drop));
            }
            pager.commit().expect("commit");
        });
    }
}
