//! Arena-based B+-tree index, `u64 -> u64`, with page-touch tracing.
//!
//! DCLUE maintains explicit B+-tree indices per table; index pages flow
//! through the buffer cache just like data pages, so every operation here
//! reports the *node path it touched* — the caller (the transaction
//! engine) turns those into buffer-cache accesses, fusion transfers and
//! disk reads. That is how the paper gets index-cache hit ratios to
//! "fall out of the actual functioning of the simulation".
//!
//! Deletion removes the key and unlinks nodes that become empty, but does
//! not rebalance siblings: TPC-C's only deleter (the new-order table)
//! removes the oldest keys in order, for which empty-node cleanup keeps
//! the tree tidy. This trade is documented here deliberately.
//!
//! Bulk loads go through [`BTree::push_max`], an ascending-append path
//! that walks only the rightmost spine. Its precondition is that `key`
//! sorts after every key on that spine: strictly above the rightmost
//! leaf's last key and at or above each last separator on the way
//! down. Under it, `insert` would take the same path and push at the
//! same end, and both share one split routine, so the resulting tree
//! is node-for-node and id-for-id the one `insert` builds. Any other
//! key falls back to `insert`.

/// Maximum keys per node. 64 keys x (8 B key + 8 B value/child) plus
/// headers approximates an 8 KB index page at ~50% occupancy, matching
/// a production B+-tree's steady state.
const ORDER: usize = 64;

/// Deepest spine `push_max` records. Appends alone need over 32^15
/// keys to grow a tree this deep; a deeper tree takes the `insert` path.
const MAX_SPINE: usize = 16;

#[derive(Debug, PartialEq, Eq)]
enum Node {
    Internal {
        /// `keys[i]` is the smallest key reachable under `children[i+1]`.
        keys: Vec<u64>,
        children: Vec<u32>,
    },
    Leaf {
        keys: Vec<u64>,
        vals: Vec<u64>,
    },
    /// Freed slot.
    Free,
}

/// A B+-tree whose nodes live in a slab; node ids double as index-page
/// ids for buffer-cache accounting.
///
/// ```
/// use dclue_db::btree::BTree;
///
/// let mut idx = BTree::new();
/// let mut touched = Vec::new();
/// idx.insert(42, 7, &mut touched);
/// touched.clear();
/// assert_eq!(idx.get(42, &mut touched), Some(7));
/// // Every index page the lookup visited is reported for buffer-cache
/// // accounting:
/// assert!(!touched.is_empty());
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct BTree {
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: u32,
    len: usize,
}

impl Default for BTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BTree {
    pub fn new() -> Self {
        BTree {
            nodes: vec![Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
            }],
            free: Vec::new(),
            root: 0,
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of live nodes (= index pages).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Smallest key stored at/under `node`, if it exists and is
    /// non-empty. Used by the cluster to partition index pages by the
    /// key range they serve.
    pub fn min_key(&self, node: u32) -> Option<u64> {
        match self.nodes.get(node as usize)? {
            Node::Leaf { keys, .. } => keys.first().copied(),
            Node::Internal { keys, .. } => keys.first().copied(),
            Node::Free => None,
        }
    }

    /// Depth of the tree (1 = just a root leaf).
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut n = self.root;
        loop {
            match &self.nodes[n as usize] {
                Node::Internal { children, .. } => {
                    n = children[0];
                    d += 1;
                }
                _ => return d,
            }
        }
    }

    fn alloc(&mut self, node: Node) -> u32 {
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = node;
            i
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn release(&mut self, id: u32) {
        self.nodes[id as usize] = Node::Free;
        self.free.push(id);
    }

    /// Look up `key`, recording every node visited in `trace`.
    pub fn get(&self, key: u64, trace: &mut Vec<u32>) -> Option<u64> {
        let mut n = self.root;
        loop {
            trace.push(n);
            match &self.nodes[n as usize] {
                Node::Internal { keys, children } => {
                    let i = keys.partition_point(|&k| k <= key);
                    n = children[i];
                }
                Node::Leaf { keys, vals } => {
                    return keys.binary_search(&key).ok().map(|i| vals[i]);
                }
                Node::Free => unreachable!("walked into a freed node"),
            }
        }
    }

    /// Insert or replace; returns the previous value if any.
    pub fn insert(&mut self, key: u64, val: u64, trace: &mut Vec<u32>) -> Option<u64> {
        let root = self.root;
        let res = self.insert_rec(root, key, val, trace);
        self.finish(root, res)
    }

    /// Append a key that sorts after every key in the tree, touching
    /// only the rightmost spine and tracing nothing. The resulting tree
    /// is identical, node ids included, to the one `insert` builds;
    /// a key that is not such an append falls back to `insert`.
    pub fn push_max(&mut self, key: u64, val: u64) -> Option<u64> {
        // The spine `insert` would walk for this key, root first,
        // checked on the way down.
        let mut spine = [0u32; MAX_SPINE];
        let mut depth = 0;
        let mut n = self.root;
        while let Node::Internal { keys, children } = &self.nodes[n as usize] {
            if depth == MAX_SPINE || keys.last().is_some_and(|&k| k > key) {
                return self.insert(key, val, &mut Vec::new());
            }
            spine[depth] = n;
            depth += 1;
            n = children[keys.len()];
        }
        let Node::Leaf { keys, vals } = &mut self.nodes[n as usize] else {
            unreachable!("walked into a freed node")
        };
        if keys.last().is_some_and(|&k| k >= key) {
            return self.insert(key, val, &mut Vec::new());
        }
        keys.push(key);
        vals.push(val);
        self.len += 1;
        if keys.len() <= ORDER {
            return None;
        }
        let mut res = self.split_leaf(n);
        for &parent in spine[..depth].iter().rev() {
            let InsertResult::Split(sep, right) = res else {
                return None;
            };
            let Node::Internal { keys, .. } = &self.nodes[parent as usize] else {
                unreachable!()
            };
            // The child that split is the last one.
            res = self.link_split(parent, keys.len(), sep, right);
        }
        let root = self.root;
        self.finish(root, res)
    }

    /// Grow a new root if the old one split.
    fn finish(&mut self, root: u32, res: InsertResult) -> Option<u64> {
        match res {
            InsertResult::Done(old) => old,
            InsertResult::Split(sep, right) => {
                self.root = self.alloc(Node::Internal {
                    keys: vec![sep],
                    children: vec![root, right],
                });
                None
            }
        }
    }

    /// Remove `key`; returns its value if present.
    pub fn remove(&mut self, key: u64, trace: &mut Vec<u32>) -> Option<u64> {
        let root = self.root;
        let (old, _empty) = self.remove_rec(root, key, trace);
        // Shrink the root if it is an internal node with a single child.
        loop {
            match &self.nodes[self.root as usize] {
                Node::Internal { children, .. } if children.len() == 1 => {
                    let child = children[0];
                    let dead = self.root;
                    self.root = child;
                    self.release(dead);
                }
                _ => break,
            }
        }
        old
    }

    /// Ascending scan of `[lo, hi)`, up to `limit` entries; every node
    /// visited lands in `trace`.
    pub fn range(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
        out: &mut Vec<(u64, u64)>,
        trace: &mut Vec<u32>,
    ) {
        self.range_rec(self.root, lo, hi, limit, out, trace);
    }

    /// Largest `(key, value)` with `lo <= key < hi`, if any.
    pub fn last_in_range(&self, lo: u64, hi: u64, trace: &mut Vec<u32>) -> Option<(u64, u64)> {
        self.last_rec(self.root, lo, hi, trace)
    }

    /// Smallest `(key, value)` with `lo <= key < hi`, if any.
    pub fn first_in_range(&self, lo: u64, hi: u64, trace: &mut Vec<u32>) -> Option<(u64, u64)> {
        let mut out = Vec::with_capacity(1);
        self.range_rec(self.root, lo, hi, 1, &mut out, trace);
        out.pop()
    }

    // ------------------------------------------------------------------

    fn insert_rec(&mut self, n: u32, key: u64, val: u64, trace: &mut Vec<u32>) -> InsertResult {
        trace.push(n);
        match &mut self.nodes[n as usize] {
            Node::Leaf { keys, vals } => match keys.binary_search(&key) {
                Ok(i) => InsertResult::Done(Some(std::mem::replace(&mut vals[i], val))),
                Err(i) => {
                    keys.insert(i, key);
                    vals.insert(i, val);
                    self.len += 1;
                    self.split_leaf(n)
                }
            },
            Node::Internal { keys, children } => {
                let i = keys.partition_point(|&k| k <= key);
                let child = children[i];
                match self.insert_rec(child, key, val, trace) {
                    InsertResult::Split(sep, right) => self.link_split(n, i, sep, right),
                    done => done,
                }
            }
            Node::Free => unreachable!(),
        }
    }

    /// Split leaf `n` in half if it overflowed.
    fn split_leaf(&mut self, n: u32) -> InsertResult {
        let Node::Leaf { keys, vals } = &mut self.nodes[n as usize] else {
            unreachable!()
        };
        if keys.len() <= ORDER {
            return InsertResult::Done(None);
        }
        let mid = keys.len() / 2;
        let rkeys = split_tail(keys, mid, ORDER + 1);
        let rvals = split_tail(vals, mid, ORDER + 1);
        let sep = rkeys[0];
        let right = self.alloc(Node::Leaf {
            keys: rkeys,
            vals: rvals,
        });
        InsertResult::Split(sep, right)
    }

    /// Link child `i`'s new right sibling into internal node `n`, and
    /// split `n` in half if it overflowed.
    fn link_split(&mut self, n: u32, i: usize, sep: u64, right: u32) -> InsertResult {
        let Node::Internal { keys, children } = &mut self.nodes[n as usize] else {
            unreachable!()
        };
        keys.insert(i, sep);
        children.insert(i + 1, right);
        if keys.len() <= ORDER {
            return InsertResult::Done(None);
        }
        let mid = keys.len() / 2;
        // keys[mid] moves up as the separator.
        let up = keys[mid];
        let rkeys = split_tail(keys, mid + 1, ORDER + 1);
        keys.pop();
        let rchildren = split_tail(children, mid + 1, ORDER + 2);
        let right = self.alloc(Node::Internal {
            keys: rkeys,
            children: rchildren,
        });
        InsertResult::Split(up, right)
    }

    /// Returns `(removed value, node-is-now-empty)`.
    fn remove_rec(&mut self, n: u32, key: u64, trace: &mut Vec<u32>) -> (Option<u64>, bool) {
        trace.push(n);
        match &mut self.nodes[n as usize] {
            Node::Leaf { keys, vals } => match keys.binary_search(&key) {
                Ok(i) => {
                    keys.remove(i);
                    let v = vals.remove(i);
                    self.len -= 1;
                    let empty = keys.is_empty();
                    (Some(v), empty)
                }
                Err(_) => (None, false),
            },
            Node::Internal { keys, children } => {
                let i = keys.partition_point(|&k| k <= key);
                let child = children[i];
                let (old, child_empty) = self.remove_rec(child, key, trace);
                if child_empty {
                    let Node::Internal { keys, children } = &mut self.nodes[n as usize] else {
                        unreachable!()
                    };
                    // Keep at least one child so the tree stays rooted.
                    if children.len() > 1 {
                        children.remove(i);
                        keys.remove(if i == 0 { 0 } else { i - 1 });
                        self.release(child);
                    }
                    let empty = {
                        let Node::Internal { children, .. } = &self.nodes[n as usize] else {
                            unreachable!()
                        };
                        children.len() == 1 && self.is_node_empty(children[0])
                    };
                    (old, empty)
                } else {
                    (old, false)
                }
            }
            Node::Free => unreachable!(),
        }
    }

    fn is_node_empty(&self, n: u32) -> bool {
        match &self.nodes[n as usize] {
            Node::Leaf { keys, .. } => keys.is_empty(),
            Node::Internal { .. } => false,
            Node::Free => true,
        }
    }

    fn range_rec(
        &self,
        n: u32,
        lo: u64,
        hi: u64,
        limit: usize,
        out: &mut Vec<(u64, u64)>,
        trace: &mut Vec<u32>,
    ) {
        if out.len() >= limit {
            return;
        }
        trace.push(n);
        match &self.nodes[n as usize] {
            Node::Leaf { keys, vals } => {
                let start = keys.partition_point(|&k| k < lo);
                for i in start..keys.len() {
                    if keys[i] >= hi || out.len() >= limit {
                        break;
                    }
                    out.push((keys[i], vals[i]));
                }
            }
            Node::Internal { keys, children } => {
                let first = keys.partition_point(|&k| k <= lo);
                for i in first..children.len() {
                    if i > first {
                        // Subtree minimum is keys[i-1]; prune if past hi.
                        if keys[i - 1] >= hi {
                            break;
                        }
                    }
                    self.range_rec(children[i], lo, hi, limit, out, trace);
                    if out.len() >= limit {
                        break;
                    }
                }
            }
            Node::Free => unreachable!(),
        }
    }

    fn last_rec(&self, n: u32, lo: u64, hi: u64, trace: &mut Vec<u32>) -> Option<(u64, u64)> {
        trace.push(n);
        match &self.nodes[n as usize] {
            Node::Leaf { keys, vals } => {
                let end = keys.partition_point(|&k| k < hi);
                if end == 0 {
                    return None;
                }
                let i = end - 1;
                (keys[i] >= lo).then(|| (keys[i], vals[i]))
            }
            Node::Internal { keys, children } => {
                // Walk children from the rightmost that can contain < hi.
                let mut i = keys.partition_point(|&k| k < hi);
                loop {
                    if let Some(hit) = self.last_rec(children[i], lo, hi, trace) {
                        return Some(hit);
                    }
                    if i == 0 {
                        return None;
                    }
                    i -= 1;
                    // Subtree maximum below keys[i]; prune if under lo.
                    if keys[i] < lo {
                        return None;
                    }
                }
            }
            Node::Free => unreachable!(),
        }
    }
}

enum InsertResult {
    Done(Option<u64>),
    Split(u64, u32),
}

/// `Vec::split_off`, with the new half presized to the length at which
/// it will next overflow and split.
fn split_tail<T: Copy>(v: &mut Vec<T>, at: usize, cap: usize) -> Vec<T> {
    let mut tail = Vec::with_capacity(cap);
    tail.extend_from_slice(&v[at..]);
    v.truncate(at);
    tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclue_sim::SimRng;
    use std::collections::BTreeMap;

    fn t() -> Vec<u32> {
        Vec::new()
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut b = BTree::new();
        for i in 0..1000u64 {
            assert_eq!(b.insert(i * 7 % 1000, i, &mut t()), None);
        }
        for i in 0..1000u64 {
            assert_eq!(b.get(i * 7 % 1000, &mut t()), Some(i));
        }
        assert_eq!(b.len(), 1000);
        assert_eq!(b.get(5000, &mut t()), None);
    }

    #[test]
    fn insert_replaces() {
        let mut b = BTree::new();
        assert_eq!(b.insert(5, 1, &mut t()), None);
        assert_eq!(b.insert(5, 2, &mut t()), Some(1));
        assert_eq!(b.get(5, &mut t()), Some(2));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn tree_grows_in_depth() {
        let mut b = BTree::new();
        assert_eq!(b.depth(), 1);
        for i in 0..10_000u64 {
            b.insert(i, i, &mut t());
        }
        assert!(b.depth() >= 3, "depth={}", b.depth());
        assert!(b.node_count() > 100);
    }

    #[test]
    fn trace_length_equals_depth_for_get() {
        let mut b = BTree::new();
        for i in 0..10_000u64 {
            b.insert(i, i, &mut t());
        }
        let mut trace = Vec::new();
        b.get(1234, &mut trace);
        assert_eq!(trace.len(), b.depth());
        assert_eq!(trace[0], b.root);
    }

    #[test]
    fn remove_then_get_misses() {
        let mut b = BTree::new();
        for i in 0..500u64 {
            b.insert(i, i + 1, &mut t());
        }
        assert_eq!(b.remove(250, &mut t()), Some(251));
        assert_eq!(b.get(250, &mut t()), None);
        assert_eq!(b.remove(250, &mut t()), None);
        assert_eq!(b.len(), 499);
    }

    #[test]
    fn fifo_workload_releases_nodes() {
        // The new-order pattern: insert at the tail, delete at the head.
        let mut b = BTree::new();
        for i in 0..1000u64 {
            b.insert(i, i, &mut t());
        }
        let peak = b.node_count();
        for i in 0..900u64 {
            b.insert(1000 + i, i, &mut t());
            b.remove(i, &mut t());
        }
        // Empty leaves must be reclaimed; node count should not balloon.
        assert!(
            b.node_count() < peak * 2,
            "nodes={} peak={peak}",
            b.node_count()
        );
        assert_eq!(b.len(), 1000);
    }

    #[test]
    fn range_scan_in_order() {
        let mut b = BTree::new();
        for i in (0..2000u64).rev() {
            b.insert(i * 2, i, &mut t());
        }
        let mut out = Vec::new();
        b.range(100, 140, usize::MAX, &mut out, &mut t());
        let keys: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120, 122, 124, 126, 128, 130,
                132, 134, 136, 138
            ]
        );
    }

    #[test]
    fn range_respects_limit() {
        let mut b = BTree::new();
        for i in 0..1000u64 {
            b.insert(i, i, &mut t());
        }
        let mut out = Vec::new();
        b.range(0, 1000, 7, &mut out, &mut t());
        assert_eq!(out.len(), 7);
        assert_eq!(out[6].0, 6);
    }

    #[test]
    fn last_in_range_finds_max() {
        let mut b = BTree::new();
        for i in 0..5000u64 {
            b.insert(i * 3, i, &mut t());
        }
        assert_eq!(b.last_in_range(0, 1000, &mut t()), Some((999, 333)));
        assert_eq!(b.last_in_range(998, 999, &mut t()), None);
        assert_eq!(b.last_in_range(0, u64::MAX, &mut t()), Some((14997, 4999)));
    }

    #[test]
    fn first_in_range_finds_min() {
        let mut b = BTree::new();
        for i in 10..100u64 {
            b.insert(i * 10, i, &mut t());
        }
        assert_eq!(b.first_in_range(0, u64::MAX, &mut t()), Some((100, 10)));
        assert_eq!(b.first_in_range(101, 110, &mut t()), None);
        assert_eq!(b.first_in_range(105, 121, &mut t()), Some((110, 11)));
    }

    #[test]
    fn min_key_reports_subtree_floor() {
        let mut b = BTree::new();
        for i in 100..5000u64 {
            b.insert(i, i, &mut t());
        }
        let mut trace = Vec::new();
        b.get(100, &mut trace);
        // The leaf holding key 100 reports a min key <= 100.
        let leaf = *trace.last().unwrap();
        assert!(b.min_key(leaf).unwrap() <= 100);
        assert_eq!(b.min_key(9999), None);
    }

    #[test]
    fn empty_tree_behaves() {
        let b = BTree::new();
        assert!(b.is_empty());
        assert_eq!(b.get(1, &mut t()), None);
        assert_eq!(b.last_in_range(0, 100, &mut t()), None);
        let mut out = Vec::new();
        b.range(0, 100, 10, &mut out, &mut t());
        assert!(out.is_empty());
    }

    #[test]
    fn root_shrinks_after_mass_deletion() {
        let mut b = BTree::new();
        for i in 0..5000u64 {
            b.insert(i, i, &mut t());
        }
        let deep = b.depth();
        assert!(deep >= 3);
        for i in 0..4999u64 {
            b.remove(i, &mut t());
        }
        assert_eq!(b.len(), 1);
        assert_eq!(b.get(4999, &mut t()), Some(4999));
        assert!(
            b.depth() < deep,
            "root must shrink: depth {} -> {}",
            deep,
            b.depth()
        );
    }

    #[test]
    fn range_spanning_many_leaves() {
        let mut b = BTree::new();
        for i in 0..10_000u64 {
            b.insert(i, i * 2, &mut t());
        }
        let mut out = Vec::new();
        let mut trace = Vec::new();
        b.range(2_000, 4_000, usize::MAX, &mut out, &mut trace);
        assert_eq!(out.len(), 2_000);
        assert_eq!(out.first(), Some(&(2_000, 4_000)));
        assert_eq!(out.last(), Some(&(3_999, 7_998)));
        // The scan touched many leaves but pruned the rest of the tree.
        assert!(trace.len() > 30, "traced {} nodes", trace.len());
        assert!(trace.len() < 100, "traced {} nodes", trace.len());
    }

    #[test]
    fn min_key_tracks_mutations() {
        let mut b = BTree::new();
        for i in 100..200u64 {
            b.insert(i, i, &mut t());
        }
        assert_eq!(b.min_key(0).map(|k| k >= 100), Some(true));
        let mut trace = Vec::new();
        b.get(100, &mut trace);
        let leaf = *trace.last().unwrap();
        b.remove(100, &mut t());
        // Leaf min key moved up after removing the smallest key.
        if let Some(k) = b.min_key(leaf) {
            assert!(k > 100);
        }
    }

    #[test]
    fn interleaved_duplicate_keys_replace_not_grow() {
        let mut b = BTree::new();
        for round in 0..50u64 {
            for k in 0..100u64 {
                b.insert(k, round, &mut t());
            }
        }
        assert_eq!(b.len(), 100);
        assert_eq!(b.get(50, &mut t()), Some(49));
        assert!(b.node_count() < 10, "no growth from replacement");
    }

    #[test]
    fn matches_btreemap() {
        let mut rng = SimRng::new(0xB7EE_0001);
        for case in 0..32 {
            let n_ops = rng.uniform(1, 399) as usize;
            let mut model = BTreeMap::new();
            let mut tree = BTree::new();
            for _ in 0..n_ops {
                let op = rng.uniform(0, 2) as u8;
                let k = rng.uniform(0, 499);
                let v = rng.uniform(0, 999);
                match op {
                    0 => {
                        assert_eq!(tree.insert(k, v, &mut t()), model.insert(k, v));
                    }
                    1 => {
                        assert_eq!(tree.remove(k, &mut t()), model.remove(&k));
                    }
                    _ => {
                        assert_eq!(tree.get(k, &mut t()), model.get(&k).copied());
                    }
                }
                assert_eq!(tree.len(), model.len(), "case {case}");
            }
            // Full-range scan equals the model's ordered contents.
            let mut out = Vec::new();
            tree.range(0, u64::MAX, usize::MAX, &mut out, &mut t());
            let expect: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(out, expect, "case {case}");
        }
    }

    #[test]
    fn push_max_matches_insert_on_ascending_keys() {
        let mut rng = SimRng::new(0xB7EE_0003);
        for case in 0..24 {
            // Two cases deep enough for four levels (three root splits).
            let n = if case < 2 {
                100_000
            } else {
                rng.uniform(0, 5_000)
            };
            let mut by_insert = BTree::new();
            let mut by_append = BTree::new();
            let mut key = rng.uniform(0, 1_000);
            for v in 0..n {
                key += rng.uniform(1, 9);
                assert_eq!(by_insert.insert(key, v, &mut t()), None);
                assert_eq!(by_append.push_max(key, v), None);
            }
            if case < 2 {
                assert_eq!(by_append.depth(), 4, "case {case}");
            }
            // Node for node, ids, free list and root included.
            assert_eq!(by_append, by_insert, "case {case}");
        }
    }

    #[test]
    fn ascending_layout_is_pinned() {
        // Index node ids are page ids, so the layout an ascending load
        // produces is part of every Report: each split leaves 32 keys
        // behind, and ids follow allocation order.
        let mut b = BTree::new();
        for k in 0..10_000u64 {
            b.push_max(k, k);
        }
        assert_eq!((b.node_count(), b.depth(), b.root), (322, 3, 68));
        // Leaf 0, its split-off right half 1, the first root 2 (its
        // separator), then one new leaf per 32 keys.
        let mins: Vec<Option<u64>> = (0..6).map(|id| b.min_key(id)).collect();
        assert_eq!(mins, [0, 32, 32, 64, 96, 128].map(Some));
    }

    #[test]
    fn push_max_falls_back_to_insert_off_the_tail() {
        let mut rng = SimRng::new(0xB7EE_0004);
        for case in 0..32 {
            let mut by_insert = BTree::new();
            let mut by_append = BTree::new();
            let mut key = 0u64;
            for v in 0..rng.uniform(1, 3_000) {
                // Mostly appends, with repeats, steps back below the
                // maximum and head removals (stale separators) mixed in.
                match rng.uniform(0, 9) {
                    0 => key = key.saturating_sub(rng.uniform(0, 200)),
                    1 => {
                        let k = rng.uniform(0, key);
                        assert_eq!(by_append.remove(k, &mut t()), by_insert.remove(k, &mut t()));
                        continue;
                    }
                    2 => {}
                    _ => key += rng.uniform(1, 5),
                }
                assert_eq!(
                    by_append.push_max(key, v),
                    by_insert.insert(key, v, &mut t())
                );
            }
            assert_eq!(by_append, by_insert, "case {case}");
        }
    }

    #[test]
    fn last_in_range_matches_model() {
        use std::collections::BTreeSet;
        let mut rng = SimRng::new(0xB7EE_0002);
        for case in 0..48 {
            let n_keys = rng.uniform(1, 299) as usize;
            let keys: BTreeSet<u64> = (0..n_keys).map(|_| rng.uniform(0, 1999)).collect();
            let lo = rng.uniform(0, 1999);
            let span = rng.uniform(1, 499);
            let hi = lo + span;
            let mut tree = BTree::new();
            for &k in &keys {
                tree.insert(k, k * 2, &mut t());
            }
            let expect = keys.range(lo..hi).next_back().map(|&k| (k, k * 2));
            assert_eq!(tree.last_in_range(lo, hi, &mut t()), expect, "case {case}");
        }
    }
}
