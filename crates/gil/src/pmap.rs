//! A persistent ordered map: the heap representation of the symbolic
//! memories.
//!
//! Symbolic execution hands every branch of a memory action its own
//! memory (paper Def. 2.6), so a heap is cloned far more often than it is
//! written, and almost every write lands on a clone whose parent is still
//! alive. [`PMap`] makes both cheap:
//!
//! - cloning is one reference-count bump on the root;
//! - `get`/`insert`/`remove` are O(log n). A write copies only the nodes
//!   on the path to the changed entry (plus, when a node splits or
//!   merges, one sibling per level) and shares every other node with the
//!   map it was cloned from. Nodes the map owns alone — every node a
//!   previous write on this map already copied — are mutated in place;
//! - iteration is in ascending key order, exactly the order of a
//!   `std::collections::BTreeMap` holding the same entries, and
//!   [`PMap::range`] starts at any lower bound in O(log n).
//!
//! The structure is a B-tree of reference-counted nodes. Leaves hold up to
//! `MAX` sorted entries; a branch holds up to `MAX` children and the
//! separator keys between them. Every leaf sits at the same depth, and
//! every node but the root holds at least `MIN` entries or children, so
//! the height is O(log n).

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// Most entries in a leaf, and most children of a branch.
const MAX: usize = 16;
/// Fewest entries (children) of a non-root leaf (branch).
const MIN: usize = MAX / 4;

enum Node<K, V> {
    Leaf(Vec<(K, V)>),
    Branch(Branch<K, V>),
}

/// The separator and new right sibling an overfull node splits off.
type Split<K, V> = (K, Arc<Node<K, V>>);

struct Branch<K, V> {
    /// `seps[i]` separates `children[i]` from `children[i + 1]`: every
    /// key of `children[..=i]` is below it, every key of
    /// `children[i + 1..]` at or above it.
    seps: Vec<K>,
    children: Vec<Arc<Node<K, V>>>,
}

impl<K: Clone, V: Clone> Clone for Node<K, V> {
    fn clone(&self) -> Self {
        // Room for one more entry, so the write that copied this node
        // does not reallocate it when it inserts.
        match self {
            Node::Leaf(entries) => {
                let mut out = Vec::with_capacity(entries.len() + 1);
                out.extend(entries.iter().cloned());
                Node::Leaf(out)
            }
            Node::Branch(b) => {
                let mut seps = Vec::with_capacity(b.seps.len() + 1);
                seps.extend(b.seps.iter().cloned());
                let mut children = Vec::with_capacity(b.children.len() + 1);
                children.extend(b.children.iter().cloned());
                Node::Branch(Branch { seps, children })
            }
        }
    }
}

impl<K, V> Node<K, V> {
    /// Entries (leaf) or children (branch).
    fn width(&self) -> usize {
        match self {
            Node::Leaf(entries) => entries.len(),
            Node::Branch(b) => b.children.len(),
        }
    }
}

/// The child of a branch whose key range holds `key`.
fn child_index<K: Borrow<Q>, Q: Ord + ?Sized>(seps: &[K], key: &Q) -> usize {
    seps.partition_point(|s| s.borrow() <= key)
}

fn leaf_search<K: Borrow<Q>, V, Q: Ord + ?Sized>(
    entries: &[(K, V)],
    key: &Q,
) -> Result<usize, usize> {
    entries.binary_search_by(|(k, _)| k.borrow().cmp(key))
}

/// Splits an overfull node in two: returns the separator that goes up
/// and the new right half.
fn split<K: Clone, V>(node: &mut Node<K, V>) -> Split<K, V> {
    match node {
        Node::Leaf(entries) => {
            let right = entries.split_off(entries.len() / 2);
            let sep = right[0].0.clone();
            (sep, Arc::new(Node::Leaf(right)))
        }
        Node::Branch(b) => {
            let mid = b.children.len() / 2;
            let children = b.children.split_off(mid);
            let seps = b.seps.split_off(mid);
            let sep = b
                .seps
                .pop()
                .expect("a branch has a separator per split point");
            (sep, Arc::new(Node::Branch(Branch { seps, children })))
        }
    }
}

/// Inserts into the subtree at `node`; returns the replaced value and,
/// when the node overflowed, the separator and right half to add to the
/// parent.
fn insert_rec<K: Ord + Clone, V: Clone>(
    node: &mut Arc<Node<K, V>>,
    key: K,
    value: V,
) -> (Option<V>, Option<Split<K, V>>) {
    let node = Arc::make_mut(node);
    let old = match node {
        Node::Leaf(entries) => match leaf_search(entries, &key) {
            Ok(i) => return (Some(std::mem::replace(&mut entries[i].1, value)), None),
            Err(i) => {
                entries.insert(i, (key, value));
                None
            }
        },
        Node::Branch(b) => {
            let i = child_index(&b.seps, &key);
            let (old, grown) = insert_rec(&mut b.children[i], key, value);
            match grown {
                Some((sep, right)) => {
                    b.seps.insert(i, sep);
                    b.children.insert(i + 1, right);
                }
                None => return (old, None),
            }
            old
        }
    };
    let grown = (node.width() > MAX).then(|| split(node));
    (old, grown)
}

/// Removes `key` (known present) from the subtree at `node`.
fn remove_rec<K, V, Q>(node: &mut Arc<Node<K, V>>, key: &Q) -> Option<V>
where
    K: Ord + Clone + Borrow<Q>,
    V: Clone,
    Q: Ord + ?Sized,
{
    match Arc::make_mut(node) {
        Node::Leaf(entries) => {
            let i = leaf_search(entries, key).ok()?;
            Some(entries.remove(i).1)
        }
        Node::Branch(b) => {
            let i = child_index(&b.seps, key);
            let old = remove_rec(&mut b.children[i], key);
            if b.children[i].width() < MIN {
                rebalance(b, i);
            }
            old
        }
    }
}

/// Restores the minimum width of `b.children[i]` by merging it with a
/// neighbour, splitting the union again when it overflows.
fn rebalance<K: Clone, V: Clone>(b: &mut Branch<K, V>, i: usize) {
    if b.children.len() < 2 {
        return;
    }
    let j = if i + 1 < b.children.len() { i } else { i - 1 };
    let right = b.children.remove(j + 1);
    let sep = b.seps.remove(j);
    let right = Arc::try_unwrap(right).unwrap_or_else(|shared| (*shared).clone());
    let left = Arc::make_mut(&mut b.children[j]);
    match (left, right) {
        (Node::Leaf(l), Node::Leaf(r)) => l.extend(r),
        (Node::Branch(l), Node::Branch(r)) => {
            l.seps.push(sep);
            l.seps.extend(r.seps);
            l.children.extend(r.children);
        }
        _ => unreachable!("siblings sit at the same depth"),
    }
    let left = Arc::make_mut(&mut b.children[j]);
    if left.width() > MAX {
        let (sep, right) = split(left);
        b.seps.insert(j, sep);
        b.children.insert(j + 1, right);
    }
}

/// A persistent ordered map with O(1) clones and O(log n) path-copying
/// writes (see the module documentation).
///
/// ```
/// use gillian_gil::PMap;
///
/// let mut a: PMap<i64, &str> = (0..100).map(|i| (i, "x")).collect();
/// let b = a.clone();
/// a.insert(7, "y");
/// assert_eq!(a.get(&7), Some(&"y"));
/// assert_eq!(b.get(&7), Some(&"x"), "the clone is unaffected");
/// assert!(a.unshared_nodes(&b) <= a.height());
/// ```
pub struct PMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: None, len: 0 }
    }
}

impl<K, V> PMap<K, V> {
    /// The empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut it = Iter {
            stack: Vec::new(),
            leaf: [].iter(),
        };
        if let Some(root) = &self.root {
            it.descend_leftmost(root);
        }
        it
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Levels from the root to the leaves (0 for the empty map).
    pub fn height(&self) -> usize {
        let mut h = 0;
        let mut node = self.root.as_deref();
        while let Some(n) = node {
            h += 1;
            node = match n {
                Node::Leaf(_) => None,
                Node::Branch(b) => Some(&b.children[0]),
            };
        }
        h
    }

    /// Number of tree nodes.
    pub fn node_count(&self) -> usize {
        fn count<K, V>(n: &Node<K, V>) -> usize {
            match n {
                Node::Leaf(_) => 1,
                Node::Branch(b) => 1 + b.children.iter().map(|c| count(c)).sum::<usize>(),
            }
        }
        self.root.as_deref().map_or(0, count)
    }

    /// Number of this map's nodes that `other` does not share: the nodes
    /// a write copied or created since the two maps diverged. A
    /// structural-sharing diagnostic.
    pub fn unshared_nodes(&self, other: &PMap<K, V>) -> usize {
        fn collect<K, V>(n: &Arc<Node<K, V>>, out: &mut HashSet<*const Node<K, V>>) {
            out.insert(Arc::as_ptr(n));
            if let Node::Branch(b) = &**n {
                for c in &b.children {
                    collect(c, out);
                }
            }
        }
        fn unshared<K, V>(n: &Arc<Node<K, V>>, theirs: &HashSet<*const Node<K, V>>) -> usize {
            if theirs.contains(&Arc::as_ptr(n)) {
                return 0;
            }
            1 + match &**n {
                Node::Leaf(_) => 0,
                Node::Branch(b) => b.children.iter().map(|c| unshared(c, theirs)).sum(),
            }
        }
        let mut theirs = HashSet::new();
        if let Some(r) = &other.root {
            collect(r, &mut theirs);
        }
        self.root.as_ref().map_or(0, |r| unshared(r, &theirs))
    }

    /// True when both maps are the same tree (a clone not written since).
    pub fn ptr_eq(&self, other: &PMap<K, V>) -> bool {
        match (&self.root, &other.root) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }
}

impl<K: Ord, V> PMap<K, V> {
    /// The entry for `key`.
    pub fn get_key_value<Q>(&self, key: &Q) -> Option<(&K, &V)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut node = self.root.as_deref()?;
        loop {
            match node {
                Node::Leaf(entries) => {
                    let i = leaf_search(entries, key).ok()?;
                    let (k, v) = &entries[i];
                    return Some((k, v));
                }
                Node::Branch(b) => node = &b.children[child_index(&b.seps, key)],
            }
        }
    }

    /// The value for `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get_key_value(key).map(|(_, v)| v)
    }

    /// True when `key` has an entry.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get_key_value(key).is_some()
    }

    /// The entries whose keys fall in `range`, in ascending order. The
    /// first is found in O(log n).
    pub fn range<'a, Q, R>(&'a self, range: R) -> impl Iterator<Item = (&'a K, &'a V)> + 'a
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized + 'a,
        R: RangeBounds<Q> + 'a,
    {
        let mut it = Iter {
            stack: Vec::new(),
            leaf: [].iter(),
        };
        if let Some(root) = &self.root {
            it.seek(root, range.start_bound());
        }
        it.take_while(move |(k, _)| match range.end_bound() {
            Bound::Included(end) => (*k).borrow() <= end,
            Bound::Excluded(end) => (*k).borrow() < end,
            Bound::Unbounded => true,
        })
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// Inserts `value` at `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let Some(root) = &mut self.root else {
            self.root = Some(Arc::new(Node::Leaf(vec![(key, value)])));
            self.len = 1;
            return None;
        };
        let (old, grown) = insert_rec(root, key, value);
        if let Some((sep, right)) = grown {
            let left = self.root.take().expect("root present");
            self.root = Some(Arc::new(Node::Branch(Branch {
                seps: vec![sep],
                children: vec![left, right],
            })));
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes the entry for `key`, returning its value. A miss copies
    /// nothing.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if !self.contains_key(key) {
            return None;
        }
        let root = self.root.as_mut()?;
        let old = remove_rec(root, key);
        self.len -= 1;
        // Collapse a root left with a single child (or no entries).
        loop {
            let next = match self.root.as_deref() {
                Some(Node::Branch(b)) if b.children.len() == 1 => Some(b.children[0].clone()),
                Some(Node::Leaf(entries)) if entries.is_empty() => None,
                _ => break,
            };
            self.root = next;
        }
        old
    }

    /// Mutable access to the value for `key`, copying the path to it
    /// where it is shared. A miss copies nothing.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if !self.contains_key(key) {
            return None;
        }
        let mut node = self.root.as_mut()?;
        loop {
            match Arc::make_mut(node) {
                Node::Leaf(entries) => {
                    let i = leaf_search(entries, key).ok()?;
                    return Some(&mut entries[i].1);
                }
                Node::Branch(b) => node = &mut b.children[child_index(&b.seps, key)],
            }
        }
    }
}

type Children<'a, K, V> = &'a [Arc<Node<K, V>>];

/// Ascending iterator over a [`PMap`].
pub struct Iter<'a, K, V> {
    /// Per branch on the current path: its children and the index of the
    /// next child to visit.
    stack: Vec<(Children<'a, K, V>, usize)>,
    leaf: std::slice::Iter<'a, (K, V)>,
}

impl<'a, K, V> Iter<'a, K, V> {
    fn descend_leftmost(&mut self, mut node: &'a Node<K, V>) {
        loop {
            match node {
                Node::Leaf(entries) => {
                    self.leaf = entries.iter();
                    return;
                }
                Node::Branch(b) => {
                    self.stack.push((&b.children, 1));
                    node = &b.children[0];
                }
            }
        }
    }

    /// Positions the iterator at the first entry not below `start`.
    fn seek<Q>(&mut self, mut node: &'a Node<K, V>, start: Bound<&Q>)
    where
        K: Borrow<Q> + Ord,
        Q: Ord + ?Sized,
    {
        loop {
            match node {
                Node::Leaf(entries) => {
                    let skip = match start {
                        Bound::Included(s) => entries.partition_point(|(k, _)| k.borrow() < s),
                        Bound::Excluded(s) => entries.partition_point(|(k, _)| k.borrow() <= s),
                        Bound::Unbounded => 0,
                    };
                    self.leaf = entries[skip..].iter();
                    return;
                }
                Node::Branch(b) => {
                    let i = match start {
                        Bound::Included(s) | Bound::Excluded(s) => child_index(&b.seps, s),
                        Bound::Unbounded => 0,
                    };
                    self.stack.push((&b.children, i + 1));
                    node = &b.children[i];
                }
            }
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((k, v)) = self.leaf.next() {
                return Some((k, v));
            }
            let (children, next) = self.stack.last_mut()?;
            let children: Children<'a, K, V> = children;
            if *next < children.len() {
                let child = &children[*next];
                *next += 1;
                self.descend_leftmost(child);
            } else {
                self.stack.pop();
            }
        }
    }
}

impl<'a, K, V> IntoIterator for &'a PMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

impl<K: Ord + Clone, V: Clone> FromIterator<(K, V)> for PMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = PMap::new();
        map.extend(iter);
        map
    }
}

impl<K: Ord + Clone, V: Clone> Extend<(K, V)> for PMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for PMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && (self.ptr_eq(other) || self.iter().eq(other.iter()))
    }
}

impl<K: Eq, V: Eq> Eq for PMap<K, V> {}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A deterministic xorshift stream (no randomness dependency).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// Checks every structural invariant: sorted keys, separator bounds,
    /// uniform leaf depth, node widths, and the entry count.
    fn check<K: Ord + fmt::Debug, V>(m: &PMap<K, V>) {
        fn walk<K: Ord + fmt::Debug, V>(
            n: &Node<K, V>,
            lo: Option<&K>,
            hi: Option<&K>,
            root: bool,
            depth: usize,
            leaf_depth: &mut Option<usize>,
        ) -> usize {
            assert!(n.width() <= MAX, "overfull node");
            assert!(root || n.width() >= MIN, "underfull node");
            match n {
                Node::Leaf(entries) => {
                    assert_eq!(*leaf_depth.get_or_insert(depth), depth, "ragged leaves");
                    for w in entries.windows(2) {
                        assert!(w[0].0 < w[1].0, "unsorted leaf");
                    }
                    for (k, _) in entries {
                        assert!(lo.is_none_or(|lo| lo <= k) && hi.is_none_or(|hi| k < hi));
                    }
                    entries.len()
                }
                Node::Branch(b) => {
                    assert_eq!(b.seps.len() + 1, b.children.len());
                    (0..b.children.len())
                        .map(|i| {
                            let clo = if i == 0 { lo } else { Some(&b.seps[i - 1]) };
                            let chi = b.seps.get(i).or(hi);
                            walk(&b.children[i], clo, chi, false, depth + 1, leaf_depth)
                        })
                        .sum()
                }
            }
        }
        let n = m
            .root
            .as_deref()
            .map_or(0, |r| walk(r, None, None, true, 0, &mut None));
        assert_eq!(n, m.len());
        if let Some(Node::Branch(b)) = m.root.as_deref() {
            assert!(b.children.len() >= 2, "uncollapsed root");
        }
    }

    #[test]
    fn invariants_hold_under_random_writes() {
        // Random inserts and removes over a small key space (so removes
        // and overwrites hit), with the tree's invariants checked along
        // the way; `tests/pmap_model.rs` checks contents and persistence
        // against a `BTreeMap` model.
        for seed in 1..=20u64 {
            let mut rng = Rng(seed * 0x9E37_79B9_7F4A_7C15);
            let keys = 1 + rng.next() % 400;
            let mut map: PMap<u64, u64> = PMap::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for step in 0..3000u64 {
                let k = rng.next() % keys;
                if rng.next().is_multiple_of(2) {
                    assert_eq!(map.insert(k, step), model.insert(k, step));
                } else {
                    assert_eq!(map.remove(&k), model.remove(&k));
                }
                if step % 100 == 0 {
                    check(&map);
                }
            }
            check(&map);
            assert!(map.iter().eq(model.iter()));
        }
    }

    #[test]
    fn equality_is_by_content() {
        let a: PMap<i32, i32> = (0..200).map(|i| (i, i)).collect();
        let b: PMap<i32, i32> = (0..200).rev().map(|i| (i, i)).collect();
        assert_eq!(a, b, "insertion order does not matter");
        let mut c = a.clone();
        c.insert(5, -5);
        assert_ne!(a, c);
        c.insert(5, 5);
        assert_eq!(a, c);
        c.remove(&5);
        assert_ne!(a, c);
    }

    #[test]
    fn writes_copy_only_a_path() {
        let base: PMap<i64, i64> = (0..4096).map(|i| (i, i)).collect();
        let h = base.height();
        assert!(h >= 3 && base.node_count() > 300);
        let mut child = base.clone();
        assert_eq!(child.unshared_nodes(&base), 0);
        child.insert(1000, -1);
        assert_eq!(child.unshared_nodes(&base), h, "one path");
        // Further writes nearby mutate the now-owned path in place.
        child.insert(1001, -1);
        assert_eq!(child.unshared_nodes(&base), h);
        let mut child = base.clone();
        child.remove(&2000);
        assert!(child.unshared_nodes(&base) <= 2 * h);
        assert_eq!(base.get(&2000), Some(&2000));
        // A miss copies nothing.
        let mut child = base.clone();
        assert_eq!(child.remove(&-1), None);
        assert!(child.get_mut(&-1).is_none());
        assert!(child.ptr_eq(&base));
    }

    #[test]
    fn range_with_borrowed_and_excluded_bounds() {
        let m: PMap<String, usize> = ["a", "b", "ba", "bb", "c"]
            .iter()
            .enumerate()
            .map(|(i, s)| (s.to_string(), i))
            .collect();
        let prefix: Vec<_> = m
            .range::<str, _>((Bound::Included("b"), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with('b'))
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(prefix, ["b", "ba", "bb"]);
        let after: Vec<_> = m
            .range::<str, _>((Bound::Excluded("b"), Bound::Excluded("c")))
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(after, ["ba", "bb"]);
    }
}
