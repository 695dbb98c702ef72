//! B+tree with byte-string keys over the pager.
//!
//! One tree implementation backs both table storage (key = sortable
//! rowid encoding, value = row record) and indexes (key = memcomparable
//! column encoding + rowid, value = empty). Values larger than
//! [`MAX_LOCAL`] spill into overflow page chains, like SQLite's.

use crate::error::{Result, SqlError};
use crate::pager::{Pager, DB_PAGE};
use cubicle_core::System;

/// Maximum value bytes stored inside a leaf cell; longer values go to an
/// overflow chain.
pub const MAX_LOCAL: usize = 1024;

/// Maximum key size (keys must never force a split below 4 cells/page).
pub const MAX_KEY: usize = 512;

const LEAF: u8 = 1;
const INTERIOR: u8 = 2;
const OVERFLOW_DATA: usize = DB_PAGE - 8;

#[derive(Clone, Debug)]
struct LeafCell {
    key: Vec<u8>,
    local: Vec<u8>,
    overflow: u32,
}

#[derive(Clone, Debug)]
enum Node {
    Leaf {
        next: u32,
        cells: Vec<LeafCell>,
    },
    Interior {
        keys: Vec<Vec<u8>>,
        children: Vec<u32>,
    },
}

impl Node {
    fn serialized_size(&self) -> usize {
        match self {
            Node::Leaf { cells, .. } => {
                7 + cells
                    .iter()
                    .map(|c| 8 + c.key.len() + c.local.len())
                    .sum::<usize>()
            }
            Node::Interior { keys, children } => {
                3 + children.len() * 4 + keys.iter().map(|k| 2 + k.len()).sum::<usize>()
            }
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = vec![0u8; DB_PAGE];
        match self {
            Node::Leaf { next, cells } => {
                out[0] = LEAF;
                out[1..3].copy_from_slice(&(cells.len() as u16).to_le_bytes());
                out[3..7].copy_from_slice(&next.to_le_bytes());
                let mut pos = 7;
                for c in cells {
                    out[pos..pos + 2].copy_from_slice(&(c.key.len() as u16).to_le_bytes());
                    out[pos + 2..pos + 4].copy_from_slice(&(c.local.len() as u16).to_le_bytes());
                    out[pos + 4..pos + 8].copy_from_slice(&c.overflow.to_le_bytes());
                    pos += 8;
                    out[pos..pos + c.key.len()].copy_from_slice(&c.key);
                    pos += c.key.len();
                    out[pos..pos + c.local.len()].copy_from_slice(&c.local);
                    pos += c.local.len();
                }
            }
            Node::Interior { keys, children } => {
                out[0] = INTERIOR;
                out[1..3].copy_from_slice(&(keys.len() as u16).to_le_bytes());
                let mut pos = 3;
                for ch in children {
                    out[pos..pos + 4].copy_from_slice(&ch.to_le_bytes());
                    pos += 4;
                }
                for k in keys {
                    out[pos..pos + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
                    pos += 2;
                    out[pos..pos + k.len()].copy_from_slice(k);
                    pos += k.len();
                }
            }
        }
        out
    }

    /// Decodes a node image. Every field is read through [`bytes`], so a
    /// torn or stale page (read back after a crash) is `Corrupt`, never a
    /// panic.
    fn decode(data: &[u8]) -> Result<Node> {
        let kind = bytes(data, 0, 1, "node kind")?[0];
        let count = le_u16(data, 1, "node count")? as usize;
        // Each cell or key takes at least two bytes of the image.
        let capacity = count.min(data.len() / 2);
        match kind {
            LEAF => {
                let next = le_u32(data, 3, "leaf sibling")?;
                let mut cells = Vec::with_capacity(capacity);
                let mut pos = 7;
                for _ in 0..count {
                    let klen = le_u16(data, pos, "leaf cell header")? as usize;
                    let vlen = le_u16(data, pos + 2, "leaf cell header")? as usize;
                    let overflow = le_u32(data, pos + 4, "leaf cell header")?;
                    pos += 8;
                    let key = bytes(data, pos, klen, "leaf cell key")?.to_vec();
                    pos += klen;
                    let local = bytes(data, pos, vlen, "leaf cell value")?.to_vec();
                    pos += vlen;
                    cells.push(LeafCell {
                        key,
                        local,
                        overflow,
                    });
                }
                Ok(Node::Leaf { next, cells })
            }
            INTERIOR => {
                let mut pos = 3;
                let mut children = Vec::with_capacity(capacity + 1);
                for _ in 0..=count {
                    children.push(le_u32(data, pos, "interior child")?);
                    pos += 4;
                }
                let mut keys = Vec::with_capacity(capacity);
                for _ in 0..count {
                    let klen = le_u16(data, pos, "interior key length")? as usize;
                    pos += 2;
                    keys.push(bytes(data, pos, klen, "interior key")?.to_vec());
                    pos += klen;
                }
                Ok(Node::Interior { keys, children })
            }
            other => Err(SqlError::Corrupt(format!(
                "unknown btree node kind {other}"
            ))),
        }
    }
}

/// The `len` bytes of a node image at `pos`, or `Corrupt(what)` when the
/// image ends first.
fn bytes<'a>(data: &'a [u8], pos: usize, len: usize, what: &str) -> Result<&'a [u8]> {
    data.get(pos..pos + len)
        .ok_or_else(|| SqlError::Corrupt(what.into()))
}

/// The little-endian `u16` of a node image at `pos` ([`bytes`]).
fn le_u16(data: &[u8], pos: usize, what: &str) -> Result<u16> {
    Ok(u16::from_le_bytes(
        bytes(data, pos, 2, what)?.try_into().expect("2 bytes"),
    ))
}

/// The little-endian `u32` of a node image at `pos` ([`bytes`]).
fn le_u32(data: &[u8], pos: usize, what: &str) -> Result<u32> {
    Ok(u32::from_le_bytes(
        bytes(data, pos, 4, what)?.try_into().expect("4 bytes"),
    ))
}

fn read_node(sys: &mut System, pager: &mut Pager, pno: u32) -> Result<Node> {
    let data = pager.page_ref(sys, pno)?;
    Node::decode(data)
}

fn write_node(sys: &mut System, pager: &mut Pager, pno: u32, node: &Node) -> Result<()> {
    pager.write_page(sys, pno, &node.encode())
}

/// Creates an empty tree, returning its root page.
///
/// # Errors
///
/// Pager errors (must run inside a transaction).
pub fn create(sys: &mut System, pager: &mut Pager) -> Result<u32> {
    let root = pager.allocate_page(sys)?;
    write_node(
        sys,
        pager,
        root,
        &Node::Leaf {
            next: 0,
            cells: Vec::new(),
        },
    )?;
    Ok(root)
}

// ---------------------------------------------------------------------------
// Overflow chains
// ---------------------------------------------------------------------------

fn write_overflow(sys: &mut System, pager: &mut Pager, data: &[u8]) -> Result<u32> {
    let mut first = 0u32;
    let mut prev = 0u32;
    for chunk in data.chunks(OVERFLOW_DATA) {
        let pno = pager.allocate_page(sys)?;
        let mut page = vec![0u8; DB_PAGE];
        page[4..6].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
        page[8..8 + chunk.len()].copy_from_slice(chunk);
        pager.write_page(sys, pno, &page)?;
        if prev != 0 {
            let mut prev_page = pager.read_page(sys, prev)?;
            prev_page[..4].copy_from_slice(&pno.to_le_bytes());
            pager.write_page(sys, prev, &prev_page)?;
        } else {
            first = pno;
        }
        prev = pno;
    }
    Ok(first)
}

fn read_overflow(sys: &mut System, pager: &mut Pager, mut pno: u32) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    while pno != 0 {
        let page = pager.page_ref(sys, pno)?;
        let next = u32::from_le_bytes(page[..4].try_into().expect("4"));
        let len = u16::from_le_bytes(page[4..6].try_into().expect("2")) as usize;
        out.extend_from_slice(&page[8..8 + len]);
        pno = next;
    }
    Ok(out)
}

fn free_overflow(sys: &mut System, pager: &mut Pager, mut pno: u32) -> Result<()> {
    while pno != 0 {
        let next = {
            let page = pager.page_ref(sys, pno)?;
            u32::from_le_bytes(page[..4].try_into().expect("4"))
        };
        pager.free_page(sys, pno)?;
        pno = next;
    }
    Ok(())
}

fn make_cell(sys: &mut System, pager: &mut Pager, key: &[u8], value: &[u8]) -> Result<LeafCell> {
    if key.len() > MAX_KEY {
        return Err(SqlError::Misuse(format!(
            "key too large ({} bytes)",
            key.len()
        )));
    }
    if value.len() > MAX_LOCAL {
        let overflow = write_overflow(sys, pager, value)?;
        Ok(LeafCell {
            key: key.to_vec(),
            local: Vec::new(),
            overflow,
        })
    } else {
        Ok(LeafCell {
            key: key.to_vec(),
            local: value.to_vec(),
            overflow: 0,
        })
    }
}

fn cell_value(sys: &mut System, pager: &mut Pager, cell: &LeafCell) -> Result<Vec<u8>> {
    if cell.overflow != 0 {
        read_overflow(sys, pager, cell.overflow)
    } else {
        Ok(cell.local.clone())
    }
}

// ---------------------------------------------------------------------------
// Insert / get / delete
// ---------------------------------------------------------------------------

/// Inserts or replaces `key`. Returns the (possibly new) root page.
///
/// # Errors
///
/// Pager errors; [`SqlError::Misuse`] for oversized keys.
pub fn insert(
    sys: &mut System,
    pager: &mut Pager,
    root: u32,
    key: &[u8],
    value: &[u8],
) -> Result<u32> {
    match insert_rec(sys, pager, root, key, value)? {
        None => Ok(root),
        Some((sep, right)) => {
            let new_root = pager.allocate_page(sys)?;
            write_node(
                sys,
                pager,
                new_root,
                &Node::Interior {
                    keys: vec![sep],
                    children: vec![root, right],
                },
            )?;
            Ok(new_root)
        }
    }
}

fn insert_rec(
    sys: &mut System,
    pager: &mut Pager,
    pno: u32,
    key: &[u8],
    value: &[u8],
) -> Result<Option<(Vec<u8>, u32)>> {
    let node = read_node(sys, pager, pno)?;
    match node {
        Node::Leaf { next, mut cells } => {
            let idx = cells.partition_point(|c| c.key.as_slice() < key);
            if idx < cells.len() && cells[idx].key == key {
                // replace
                if cells[idx].overflow != 0 {
                    free_overflow(sys, pager, cells[idx].overflow)?;
                }
                cells[idx] = make_cell(sys, pager, key, value)?;
            } else {
                let cell = make_cell(sys, pager, key, value)?;
                cells.insert(idx, cell);
            }
            let node = Node::Leaf { next, cells };
            if node.serialized_size() <= DB_PAGE {
                write_node(sys, pager, pno, &node)?;
                return Ok(None);
            }
            // split
            let Node::Leaf { next, mut cells } = node else {
                unreachable!()
            };
            let mid = cells.len() / 2;
            let right_cells = cells.split_off(mid);
            let sep = right_cells[0].key.clone();
            let right_pno = pager.allocate_page(sys)?;
            write_node(
                sys,
                pager,
                right_pno,
                &Node::Leaf {
                    next,
                    cells: right_cells,
                },
            )?;
            write_node(
                sys,
                pager,
                pno,
                &Node::Leaf {
                    next: right_pno,
                    cells,
                },
            )?;
            Ok(Some((sep, right_pno)))
        }
        Node::Interior {
            mut keys,
            mut children,
        } => {
            let idx = keys.partition_point(|k| k.as_slice() <= key);
            let child = children[idx];
            let Some((sep, right)) = insert_rec(sys, pager, child, key, value)? else {
                return Ok(None);
            };
            keys.insert(idx, sep);
            children.insert(idx + 1, right);
            let node = Node::Interior { keys, children };
            if node.serialized_size() <= DB_PAGE {
                write_node(sys, pager, pno, &node)?;
                return Ok(None);
            }
            let Node::Interior {
                mut keys,
                mut children,
            } = node
            else {
                unreachable!()
            };
            let mid = keys.len() / 2;
            let promote = keys[mid].clone();
            let right_keys = keys.split_off(mid + 1);
            keys.pop(); // the promoted key leaves this node
            let right_children = children.split_off(mid + 1);
            let right_pno = pager.allocate_page(sys)?;
            write_node(
                sys,
                pager,
                right_pno,
                &Node::Interior {
                    keys: right_keys,
                    children: right_children,
                },
            )?;
            write_node(sys, pager, pno, &Node::Interior { keys, children })?;
            Ok(Some((promote, right_pno)))
        }
    }
}

/// Looks up `key`.
///
/// # Errors
///
/// Pager errors or corruption.
pub fn get(sys: &mut System, pager: &mut Pager, root: u32, key: &[u8]) -> Result<Option<Vec<u8>>> {
    let mut pno = root;
    loop {
        match read_node(sys, pager, pno)? {
            Node::Leaf { cells, .. } => {
                let idx = cells.partition_point(|c| c.key.as_slice() < key);
                if idx < cells.len() && cells[idx].key == key {
                    return Ok(Some(cell_value(sys, pager, &cells[idx])?));
                }
                return Ok(None);
            }
            Node::Interior { keys, children } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                pno = children[idx];
            }
        }
    }
}

/// Deletes `key`. Returns `true` if it was present. Leaves are allowed
/// to underflow (lazy deletion, no rebalancing — freed space is reused
/// by later inserts).
///
/// # Errors
///
/// Pager errors or corruption.
pub fn delete(sys: &mut System, pager: &mut Pager, root: u32, key: &[u8]) -> Result<bool> {
    let mut pno = root;
    loop {
        match read_node(sys, pager, pno)? {
            Node::Leaf { next, mut cells } => {
                let idx = cells.partition_point(|c| c.key.as_slice() < key);
                if idx < cells.len() && cells[idx].key == key {
                    let cell = cells.remove(idx);
                    if cell.overflow != 0 {
                        free_overflow(sys, pager, cell.overflow)?;
                    }
                    write_node(sys, pager, pno, &Node::Leaf { next, cells })?;
                    return Ok(true);
                }
                return Ok(false);
            }
            Node::Interior { keys, children } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                pno = children[idx];
            }
        }
    }
}

/// Frees every page of the tree (DROP TABLE / DROP INDEX).
///
/// # Errors
///
/// Pager errors or corruption.
pub fn free_tree(sys: &mut System, pager: &mut Pager, root: u32) -> Result<()> {
    match read_node(sys, pager, root)? {
        Node::Leaf { cells, .. } => {
            for c in &cells {
                if c.overflow != 0 {
                    free_overflow(sys, pager, c.overflow)?;
                }
            }
        }
        Node::Interior { children, .. } => {
            for child in children {
                free_tree(sys, pager, child)?;
            }
        }
    }
    pager.free_page(sys, root)
}

/// Returns the largest key in the tree, or `None` when empty.
///
/// # Errors
///
/// Pager errors or corruption.
pub fn last_key(sys: &mut System, pager: &mut Pager, root: u32) -> Result<Option<Vec<u8>>> {
    let mut pno = root;
    loop {
        match read_node(sys, pager, pno)? {
            Node::Leaf { cells, .. } => {
                if let Some(cell) = cells.last() {
                    return Ok(Some(cell.key.clone()));
                }
                // Lazy deletion can leave the rightmost leaf empty; fall
                // back to a full scan remembering the last key seen.
                let mut cur = Cursor::seek(sys, pager, root, None)?;
                let mut last = None;
                while let Some((key, _)) = cur.next(sys, pager)? {
                    last = Some(key);
                }
                return Ok(last);
            }
            Node::Interior { children, .. } => {
                pno = *children.last().expect("interior has children");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cursors
// ---------------------------------------------------------------------------

/// Forward cursor over a tree's entries in key order.
#[derive(Debug)]
pub struct Cursor {
    leaf: u32,
    idx: usize,
    cached_leaf: u32,
    cells: Vec<LeafCell>,
    next_leaf: u32,
}

impl Cursor {
    /// Positions at the first key `>= start` (or the smallest key when
    /// `start` is `None`).
    ///
    /// # Errors
    ///
    /// Pager errors or corruption.
    pub fn seek(
        sys: &mut System,
        pager: &mut Pager,
        root: u32,
        start: Option<&[u8]>,
    ) -> Result<Cursor> {
        let mut pno = root;
        loop {
            match read_node(sys, pager, pno)? {
                Node::Leaf { next, cells } => {
                    let idx = match start {
                        Some(key) => cells.partition_point(|c| c.key.as_slice() < key),
                        None => 0,
                    };
                    return Ok(Cursor {
                        leaf: pno,
                        idx,
                        cached_leaf: pno,
                        cells,
                        next_leaf: next,
                    });
                }
                Node::Interior { keys, children } => {
                    let idx = match start {
                        Some(key) => keys.partition_point(|k| k.as_slice() <= key),
                        None => 0,
                    };
                    pno = children[idx];
                }
            }
        }
    }

    /// Returns the next `(key, value)`, or `None` at the end.
    ///
    /// # Errors
    ///
    /// Pager errors or corruption.
    pub fn next(
        &mut self,
        sys: &mut System,
        pager: &mut Pager,
    ) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        loop {
            if self.cached_leaf != self.leaf {
                let Node::Leaf { next, cells } = read_node(sys, pager, self.leaf)? else {
                    return Err(SqlError::Corrupt("cursor leaf is not a leaf".into()));
                };
                self.cells = cells;
                self.next_leaf = next;
                self.cached_leaf = self.leaf;
            }
            if self.idx < self.cells.len() {
                let idx = self.idx;
                self.idx += 1;
                let cell = &self.cells[idx];
                // Inline values skip the extra cell clone on this hot path.
                if cell.overflow == 0 {
                    return Ok(Some((cell.key.clone(), cell.local.clone())));
                }
                let key = cell.key.clone();
                let value = read_overflow(sys, pager, cell.overflow)?;
                return Ok(Some((key, value)));
            }
            if self.next_leaf == 0 {
                return Ok(None);
            }
            self.leaf = self.next_leaf;
            self.cached_leaf = u32::MAX; // force reload
            self.idx = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// Integrity check
// ---------------------------------------------------------------------------

/// Validates key ordering and structure; returns the number of entries.
///
/// # Errors
///
/// [`SqlError::Corrupt`] describing the first violation found.
pub fn validate(sys: &mut System, pager: &mut Pager, root: u32) -> Result<u64> {
    fn walk(
        sys: &mut System,
        pager: &mut Pager,
        pno: u32,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
    ) -> Result<u64> {
        match read_node(sys, pager, pno)? {
            Node::Leaf { cells, .. } => {
                for w in cells.windows(2) {
                    if w[0].key >= w[1].key {
                        return Err(SqlError::Corrupt("leaf keys out of order".into()));
                    }
                }
                for c in &cells {
                    if lo.is_some_and(|l| c.key.as_slice() < l)
                        || hi.is_some_and(|h| c.key.as_slice() >= h)
                    {
                        return Err(SqlError::Corrupt(
                            "leaf key outside separator bounds".into(),
                        ));
                    }
                }
                Ok(cells.len() as u64)
            }
            Node::Interior { keys, children } => {
                if children.len() != keys.len() + 1 {
                    return Err(SqlError::Corrupt("interior arity mismatch".into()));
                }
                for w in keys.windows(2) {
                    if w[0] >= w[1] {
                        return Err(SqlError::Corrupt("interior keys out of order".into()));
                    }
                }
                let mut count = 0;
                for (i, &child) in children.iter().enumerate() {
                    let clo = if i == 0 {
                        lo
                    } else {
                        Some(keys[i - 1].as_slice())
                    };
                    let chi = if i == keys.len() {
                        hi
                    } else {
                        Some(keys[i].as_slice())
                    };
                    count += walk(sys, pager, child, clo, chi)?;
                }
                Ok(count)
            }
        }
    }
    walk(sys, pager, root, None, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::HostEnv;
    use cubicle_core::{IsolationMode, System};

    fn setup() -> (System, Pager) {
        let mut sys = System::new(IsolationMode::Unikraft);
        let env = HostEnv::new();
        let mut pager = Pager::open(&mut sys, Box::new(env), "/bt.db", 64).unwrap();
        pager.begin(&mut sys).unwrap();
        (sys, pager)
    }

    fn k(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn a_damaged_node_image_decodes_to_an_error_never_a_panic() {
        use cubicle_mpk::rng::Rng64;
        let leaf = Node::Leaf {
            next: 7,
            cells: (0..20u64)
                .map(|i| LeafCell {
                    key: k(i),
                    local: vec![i as u8; 30],
                    overflow: 0,
                })
                .collect(),
        };
        let interior = Node::Interior {
            keys: (1..20u64).map(k).collect(),
            children: (0..20).collect(),
        };
        // Where cell `i`'s length fields sit: a leaf cell is an 8-byte
        // header (key and value lengths first) plus 8 + 30 bytes; an
        // interior key a 2-byte length plus 8 bytes, after 20 children.
        let length_field = |node: &Node, i: usize| match node {
            Node::Leaf { .. } => 7 + i * 46 + 2 * (i % 2),
            Node::Interior { .. } => 3 + 20 * 4 + i * 10,
        };
        let mut rng = Rng64::new(0xB7EE);
        for node in [leaf, interior] {
            let image = node.encode();
            assert!(Node::decode(&image).is_ok());
            for round in 0..300 {
                let mut bad = image.clone();
                let end = match round % 3 {
                    // A count of cells no page can hold.
                    0 => {
                        let count = rng.range_usize(DB_PAGE / 6 + 1, 1 << 16) as u16;
                        bad[1..3].copy_from_slice(&count.to_le_bytes());
                        DB_PAGE
                    }
                    // A key or value length past the page end.
                    1 => {
                        let at = length_field(&node, rng.range_usize(0, 19));
                        let len = rng.range_usize(DB_PAGE, 1 << 16) as u16;
                        bad[at..at + 2].copy_from_slice(&len.to_le_bytes());
                        DB_PAGE
                    }
                    // A torn image, ending before its last byte.
                    _ => rng.range_usize(0, node.serialized_size()),
                };
                assert!(
                    matches!(Node::decode(&bad[..end]), Err(SqlError::Corrupt(_))),
                    "round {round}"
                );
            }
        }
    }

    #[test]
    fn insert_get_small() {
        let (mut sys, mut pager) = setup();
        let mut root = create(&mut sys, &mut pager).unwrap();
        for i in 0..100u64 {
            root = insert(
                &mut sys,
                &mut pager,
                root,
                &k(i),
                format!("v{i}").as_bytes(),
            )
            .unwrap();
        }
        for i in 0..100u64 {
            let v = get(&mut sys, &mut pager, root, &k(i)).unwrap().unwrap();
            assert_eq!(v, format!("v{i}").as_bytes());
        }
        assert!(get(&mut sys, &mut pager, root, &k(1000)).unwrap().is_none());
    }

    #[test]
    fn splits_preserve_all_keys() {
        let (mut sys, mut pager) = setup();
        let mut root = create(&mut sys, &mut pager).unwrap();
        // values sized so leaves hold ~40 cells → multiple levels
        let val = vec![0xAB; 90];
        for i in 0..5_000u64 {
            // insertion order deliberately scrambled
            let key = k(i.wrapping_mul(2_654_435_761) % 5_000);
            root = insert(&mut sys, &mut pager, root, &key, &val).unwrap();
        }
        let count = validate(&mut sys, &mut pager, root).unwrap();
        assert_eq!(count, 5_000);
    }

    #[test]
    fn replace_updates_in_place() {
        let (mut sys, mut pager) = setup();
        let mut root = create(&mut sys, &mut pager).unwrap();
        root = insert(&mut sys, &mut pager, root, b"key", b"old").unwrap();
        root = insert(&mut sys, &mut pager, root, b"key", b"new").unwrap();
        assert_eq!(
            get(&mut sys, &mut pager, root, b"key").unwrap().unwrap(),
            b"new"
        );
        assert_eq!(validate(&mut sys, &mut pager, root).unwrap(), 1);
    }

    #[test]
    fn delete_removes() {
        let (mut sys, mut pager) = setup();
        let mut root = create(&mut sys, &mut pager).unwrap();
        for i in 0..500u64 {
            root = insert(&mut sys, &mut pager, root, &k(i), b"x").unwrap();
        }
        for i in (0..500u64).step_by(2) {
            assert!(delete(&mut sys, &mut pager, root, &k(i)).unwrap());
        }
        assert!(
            !delete(&mut sys, &mut pager, root, &k(0)).unwrap(),
            "already gone"
        );
        assert_eq!(validate(&mut sys, &mut pager, root).unwrap(), 250);
        for i in 0..500u64 {
            let present = get(&mut sys, &mut pager, root, &k(i)).unwrap().is_some();
            assert_eq!(present, i % 2 == 1, "key {i}");
        }
    }

    #[test]
    fn cursor_scans_in_order() {
        let (mut sys, mut pager) = setup();
        let mut root = create(&mut sys, &mut pager).unwrap();
        for i in (0..1_000u64).rev() {
            root = insert(&mut sys, &mut pager, root, &k(i), &i.to_le_bytes()).unwrap();
        }
        let mut cur = Cursor::seek(&mut sys, &mut pager, root, None).unwrap();
        let mut seen = 0u64;
        while let Some((key, val)) = cur.next(&mut sys, &mut pager).unwrap() {
            assert_eq!(key, k(seen));
            assert_eq!(val, seen.to_le_bytes());
            seen += 1;
        }
        assert_eq!(seen, 1_000);
    }

    #[test]
    fn cursor_seek_starts_midway() {
        let (mut sys, mut pager) = setup();
        let mut root = create(&mut sys, &mut pager).unwrap();
        for i in 0..100u64 {
            root = insert(&mut sys, &mut pager, root, &k(i * 2), b"v").unwrap();
        }
        // seek to a key between entries
        let mut cur = Cursor::seek(&mut sys, &mut pager, root, Some(&k(51))).unwrap();
        let (key, _) = cur.next(&mut sys, &mut pager).unwrap().unwrap();
        assert_eq!(key, k(52));
    }

    #[test]
    fn overflow_values_round_trip() {
        let (mut sys, mut pager) = setup();
        let mut root = create(&mut sys, &mut pager).unwrap();
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        root = insert(&mut sys, &mut pager, root, b"big", &big).unwrap();
        root = insert(&mut sys, &mut pager, root, b"small", b"s").unwrap();
        assert_eq!(
            get(&mut sys, &mut pager, root, b"big").unwrap().unwrap(),
            big
        );
        assert_eq!(
            get(&mut sys, &mut pager, root, b"small").unwrap().unwrap(),
            b"s"
        );
        // replacing the big value frees its chain (pages get reused)
        let before = pager.page_count();
        root = insert(&mut sys, &mut pager, root, b"big", b"now small").unwrap();
        let big2: Vec<u8> = vec![7; 20_000];
        root = insert(&mut sys, &mut pager, root, b"big2", &big2).unwrap();
        assert!(
            pager.page_count() <= before + 1,
            "freed overflow pages are reused"
        );
        assert_eq!(
            get(&mut sys, &mut pager, root, b"big2").unwrap().unwrap(),
            big2
        );
    }

    #[test]
    fn oversized_key_rejected() {
        let (mut sys, mut pager) = setup();
        let root = create(&mut sys, &mut pager).unwrap();
        let huge_key = vec![1u8; MAX_KEY + 1];
        assert!(matches!(
            insert(&mut sys, &mut pager, root, &huge_key, b"v"),
            Err(SqlError::Misuse(_))
        ));
    }

    #[test]
    fn free_tree_recycles_pages() {
        let (mut sys, mut pager) = setup();
        let mut root = create(&mut sys, &mut pager).unwrap();
        for i in 0..2_000u64 {
            root = insert(&mut sys, &mut pager, root, &k(i), &[9u8; 100]).unwrap();
        }
        let peak = pager.page_count();
        free_tree(&mut sys, &mut pager, root).unwrap();
        let mut root2 = create(&mut sys, &mut pager).unwrap();
        for i in 0..2_000u64 {
            root2 = insert(&mut sys, &mut pager, root2, &k(i), &[9u8; 100]).unwrap();
        }
        assert!(
            pager.page_count() <= peak + 2,
            "second tree reuses freed pages"
        );
    }

    #[test]
    fn persistence_across_reopen() {
        let mut sys = System::new(IsolationMode::Unikraft);
        let env = HostEnv::new();
        let root;
        {
            let mut pager = Pager::open(&mut sys, Box::new(env.clone()), "/p.db", 64).unwrap();
            pager.begin(&mut sys).unwrap();
            let mut r = create(&mut sys, &mut pager).unwrap();
            for i in 0..300u64 {
                r = insert(&mut sys, &mut pager, r, &k(i), &i.to_le_bytes()).unwrap();
            }
            pager.set_schema_root(&mut sys, r).unwrap();
            pager.commit(&mut sys).unwrap();
            root = r;
        }
        let mut pager = Pager::open(&mut sys, Box::new(env), "/p.db", 64).unwrap();
        assert_eq!(pager.schema_root(), root);
        assert_eq!(validate(&mut sys, &mut pager, root).unwrap(), 300);
        for i in 0..300u64 {
            assert!(get(&mut sys, &mut pager, root, &k(i)).unwrap().is_some());
        }
    }
}
