//! The authenticated state map: a path-compressed binary radix (crit-bit)
//! trie that holds the state's entries and memoises their digests, so a
//! state root costs hashes in proportion to what changed since the last
//! one, not to the size of the state.
//!
//! ## Definition of the root (WIRE_FORMAT.md §12.3)
//!
//! Every entry lives at a 65-bit *path*: one namespace tag bit (`0` =
//! account, `1` = KV) followed by the key's 64 bits, most significant
//! first. Bit index `0` is the tag, index `64` the key's lowest bit.
//!
//! * no entries — the all-zero hash;
//! * one entry — its leaf digest `H(0x00 ‖ tag ‖ key_be ‖ value)`, where
//!   `value` is `balance_be ‖ nonce_be` for an account and the raw bytes for
//!   a KV entry;
//! * otherwise — `H(0x01 ‖ c ‖ root(L) ‖ root(R))`, where `c` (one byte) is
//!   the index of the first bit on which any two paths of the set differ,
//!   and `L`/`R` are the entries whose bit `c` is `0`/`1`.
//!
//! The shape is a pure function of the key set, so the root is a pure
//! function of the state: no insertion order, delete-then-reinsert detour,
//! apply width or arena layout can show through. [`reference_root`]
//! computes the definition from a sorted entry list alone; [`StateTrie`]
//! computes the same value incrementally.
//!
//! ## Cost model
//!
//! A write that changes a stored value clears the cached digests on the
//! path from its leaf to the root (a write that stores the value already
//! present clears nothing). [`StateTrie::root`] then rehashes exactly the
//! cleared nodes, bottom-up, each shared ancestor once: hashes per block ≈
//! touched leaves + their distinct ancestors, at most
//! `touched · (depth + 1)` with depth ≈ log₂(entries) for spread keys and
//! ≤ 65 always.

use crate::state::Account;
use fireledger_crypto::hash_bytes;
use fireledger_crypto::sha256::Sha256;
use fireledger_types::{Bytes, Hash};
use std::cell::Cell;
use std::fmt;

/// The root of the empty state.
const EMPTY_ROOT: Hash = Hash([0u8; 32]);

/// Domain-separation byte opening a leaf pre-image.
const LEAF_DOMAIN: u8 = 0x00;
/// Domain-separation byte opening an inner-node pre-image.
const INNER_DOMAIN: u8 = 0x01;

/// An entry's 65-bit path in the low bits of a `u128`: the namespace tag
/// at bit 64 above the key.
type Path = u128;

/// What the map stores under a path; the variant *is* the namespace tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Value {
    /// An account (tag bit `0`).
    Account(Account),
    /// A raw KV value (tag bit `1`).
    Kv(Bytes),
}

impl Value {
    fn namespace(&self) -> Namespace {
        match self {
            Value::Account(_) => Namespace::Account,
            Value::Kv(_) => Namespace::Kv,
        }
    }
}

/// The namespace tag bit of a path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Namespace {
    /// Account ids.
    Account = 0,
    /// KV keys.
    Kv = 1,
}

fn path_of(namespace: Namespace, key: u64) -> Path {
    (namespace as u128) << 64 | key as u128
}

/// Bit `index` (0 = tag … 64 = lowest key bit) of `path`.
fn bit(path: Path, index: u8) -> usize {
    // The tag apart, so that every other level is a 64-bit shift: a
    // variable 128-bit one sits on each lookup's chain of dependent loads
    // and nearly doubles its cost.
    match index {
        0 => (path >> 64) as usize,
        _ => ((path as u64 >> (64 - index)) & 1) as usize,
    }
}

/// Index of the first bit on which two distinct paths differ.
fn crit_bit(a: Path, b: Path) -> u8 {
    debug_assert_ne!(a, b, "equal paths have no critical bit");
    // Paths occupy the low 65 bits, so 63 leading zeros are structural.
    ((a ^ b).leading_zeros() - 63) as u8
}

fn leaf_digest(path: Path, value: &Value) -> Hash {
    let mut hasher = Sha256::new();
    let mut head = [0u8; 10];
    head[0] = LEAF_DOMAIN;
    // The low nine bytes of the path are exactly `tag ‖ key_be`.
    head[1..].copy_from_slice(&path.to_be_bytes()[7..]);
    hasher.update(head);
    match value {
        Value::Account(account) => {
            hasher.update(account.balance.to_be_bytes());
            hasher.update(account.nonce.to_be_bytes());
        }
        Value::Kv(bytes) => hasher.update(bytes),
    }
    Hash::from_bytes(hasher.finalize())
}

fn inner_digest(crit: u8, left: &Hash, right: &Hash) -> Hash {
    let mut pre = [0u8; 66];
    pre[0] = INNER_DOMAIN;
    pre[1] = crit;
    pre[2..34].copy_from_slice(left.as_bytes());
    pre[34..].copy_from_slice(right.as_bytes());
    hash_bytes(&pre)
}

/// The root of `entries` (sorted by path, paths distinct) computed from
/// the definition alone — no trie, no cache. The oracle the incremental
/// path is tested against.
fn reference_root(entries: &[(Path, &Value)]) -> Hash {
    match entries {
        [] => EMPTY_ROOT,
        [(path, value)] => leaf_digest(*path, value),
        [(first, _), .., (last, _)] => {
            // Sorted, so the extremes differ on the set's first differing
            // bit, and that bit splits the slice in two.
            let crit = crit_bit(*first, *last);
            let split = entries.partition_point(|(path, _)| bit(*path, crit) == 0);
            inner_digest(
                crit,
                &reference_root(&entries[..split]),
                &reference_root(&entries[split..]),
            )
        }
    }
}

/// A reference to a node in one of the two arenas: an arena index, with
/// the top bit set for a leaf (half the size of an enum, and the trie is
/// mostly references).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ref(u32);

enum Node {
    Leaf(usize),
    Inner(usize),
}

impl Ref {
    const LEAF: u32 = 1 << 31;

    fn leaf(index: usize) -> Ref {
        Ref(Self::checked(index) | Self::LEAF)
    }

    fn inner(index: usize) -> Ref {
        Ref(Self::checked(index))
    }

    fn checked(index: usize) -> u32 {
        u32::try_from(index)
            .ok()
            .filter(|i| i & Self::LEAF == 0)
            .expect("state trie outgrew its 31-bit arena indices")
    }

    fn node(self) -> Node {
        let index = (self.0 & !Self::LEAF) as usize;
        if self.0 & Self::LEAF != 0 {
            Node::Leaf(index)
        } else {
            Node::Inner(index)
        }
    }
}

#[derive(Clone)]
struct Leaf {
    key: u64,
    value: Value,
    /// `None` = not hashed since the value last changed.
    digest: Cell<Option<Hash>>,
}

impl Leaf {
    fn path(&self) -> Path {
        path_of(self.value.namespace(), self.key)
    }
}

#[derive(Clone)]
struct Inner {
    /// The critical bit: every path below agrees on all earlier bits, and
    /// `child[b]` holds those whose bit `crit` is `b`. Strictly increasing
    /// from the root down.
    crit: u8,
    child: [Ref; 2],
    /// `None` = some leaf below changed since this node was last hashed.
    digest: Cell<Option<Hash>>,
}

/// The inner nodes one lookup passed, root first. Critical bits strictly
/// increase on the way down, so 65 slots always suffice.
struct Trail {
    inners: [u32; 65],
    depth: usize,
}

impl Trail {
    fn new() -> Self {
        Trail {
            inners: [0; 65],
            depth: 0,
        }
    }

    fn push(&mut self, inner: usize) {
        // Arena indices fit 31 bits (see `Ref`).
        self.inners[self.depth] = inner as u32;
        self.depth += 1;
    }

    fn as_slice(&self) -> &[u32] {
        &self.inners[..self.depth]
    }
}

/// The crit-bit trie. Nodes live in two index arenas (freed slots are
/// recycled through free lists), so a clone is a pair of `Vec` copies and
/// carries the digest cache with it.
///
/// The cache sits in `Cell`s: hashing happens under `&self` in
/// [`StateTrie::root`], equality and `Debug` never see it, and the type is
/// `Send` but deliberately not `Sync`.
#[derive(Clone, Default)]
pub(crate) struct StateTrie {
    root: Option<Ref>,
    leaves: Vec<Leaf>,
    inners: Vec<Inner>,
    free_leaves: Vec<usize>,
    free_inners: Vec<usize>,
    /// Live entries per namespace tag.
    len: [usize; 2],
}

impl StateTrie {
    /// An empty map with room for `entries` entries.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        StateTrie {
            leaves: Vec::with_capacity(entries),
            inners: Vec::with_capacity(entries.saturating_sub(1)),
            ..StateTrie::default()
        }
    }

    /// Number of live entries in `namespace`.
    pub(crate) fn len(&self, namespace: Namespace) -> usize {
        self.len[namespace as usize]
    }

    /// The value stored under `key` in `namespace`, if any.
    pub(crate) fn get(&self, namespace: Namespace, key: u64) -> Option<&Value> {
        let path = path_of(namespace, key);
        let leaf = &self.leaves[self.descend(path, |_| {})?];
        (leaf.path() == path).then_some(&leaf.value)
    }

    /// Stores `value` under `key` in the namespace its variant names. Only
    /// a write that changes what is stored invalidates cached digests.
    pub(crate) fn set(&mut self, key: u64, value: Value) {
        let path = path_of(value.namespace(), key);
        let mut trail = Trail::new();
        let Some(nearest) = self.descend(path, |inner| trail.push(inner)) else {
            self.root = Some(self.alloc_leaf(key, value));
            return;
        };
        let found = &mut self.leaves[nearest];
        let found_path = found.path();
        if found_path == path {
            if found.value != value {
                found.value = value;
                found.digest.set(None);
                self.invalidate(trail.as_slice());
            }
            return;
        }
        // A new key: it parts from the nearest leaf at `crit`, so its new
        // parent goes below the trail's inner nodes that test earlier bits
        // and takes whatever hung there as its other child.
        let crit = crit_bit(found_path, path);
        let above = trail.as_slice();
        let above = &above[..above.partition_point(|&i| self.inners[i as usize].crit < crit)];
        self.invalidate(above);
        let displaced = self.child_towards(above.last().copied(), path);
        let leaf = self.alloc_leaf(key, value);
        let child = if bit(path, crit) == 0 {
            [leaf, displaced]
        } else {
            [displaced, leaf]
        };
        let inner = self.alloc_inner(Inner {
            crit,
            child,
            digest: Cell::new(None),
        });
        self.set_child_towards(above.last().copied(), path, inner);
    }

    /// Removes `key` from `namespace`; removing an absent key changes (and
    /// invalidates) nothing. The removed leaf's parent collapses into the
    /// leaf's sibling, which keeps the shape canonical.
    pub(crate) fn remove(&mut self, namespace: Namespace, key: u64) {
        let path = path_of(namespace, key);
        let mut trail = Trail::new();
        let Some(found) = self.descend(path, |inner| trail.push(inner)) else {
            return;
        };
        if self.leaves[found].path() != path {
            return;
        }
        match trail.as_slice() {
            [] => self.root = None,
            [above @ .., parent] => {
                let parent = *parent as usize;
                let Inner { crit, child, .. } = self.inners[parent];
                self.invalidate(above);
                self.set_child_towards(above.last().copied(), path, child[1 - bit(path, crit)]);
                self.free_inners.push(parent);
            }
        }
        let leaf = &mut self.leaves[found];
        self.len[leaf.value.namespace() as usize] -= 1;
        // Release the value now; the slot itself waits on the free list.
        leaf.value = Value::Account(Account::default());
        self.free_leaves.push(found);
    }

    /// The state root, rehashing exactly the nodes invalidated since the
    /// previous call and caching the result.
    pub(crate) fn root(&self) -> Hash {
        self.root.map_or(EMPTY_ROOT, |root| self.digest(root))
    }

    /// The state root recomputed from the entries alone, reading and
    /// writing no cached digest.
    pub(crate) fn root_from_scratch(&self) -> Hash {
        let mut entries: Vec<(Path, &Value)> = self
            .entries()
            .map(|(key, value)| (path_of(value.namespace(), *key), value))
            .collect();
        // Already sorted if the trie is well-formed; the oracle does not
        // take that on trust.
        entries.sort_unstable_by_key(|(path, _)| *path);
        reference_root(&entries)
    }

    /// Every entry in ascending path order: accounts by id, then KV
    /// entries by key.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&u64, &Value)> {
        let mut stack: Vec<Ref> = self.root.into_iter().collect();
        std::iter::from_fn(move || loop {
            match stack.pop()?.node() {
                Node::Leaf(i) => {
                    let leaf = &self.leaves[i];
                    return Some((&leaf.key, &leaf.value));
                }
                Node::Inner(i) => {
                    let [left, right] = self.inners[i].child;
                    stack.push(right);
                    stack.push(left);
                }
            }
        })
    }

    /// Reachable nodes (leaves and inner) without a cached digest — what
    /// the next [`StateTrie::root`] will hash.
    #[cfg(test)]
    pub(crate) fn dirty_nodes(&self) -> usize {
        let mut stack: Vec<Ref> = self.root.into_iter().collect();
        let mut dirty = 0;
        while let Some(node) = stack.pop() {
            let cached = match node.node() {
                Node::Leaf(i) => self.leaves[i].digest.get(),
                Node::Inner(i) => {
                    stack.extend(self.inners[i].child);
                    self.inners[i].digest.get()
                }
            };
            dirty += usize::from(cached.is_none());
        }
        dirty
    }

    /// Follows `path`'s bits from the root down to a leaf, reporting each
    /// inner node passed. The leaf reached is the only one that can hold
    /// `path`, and otherwise one sharing the longest prefix with it. `None`
    /// when the map is empty.
    fn descend(&self, path: Path, mut passed: impl FnMut(usize)) -> Option<usize> {
        let mut node = self.root?;
        loop {
            match node.node() {
                Node::Leaf(leaf) => return Some(leaf),
                Node::Inner(i) => {
                    passed(i);
                    let inner = &self.inners[i];
                    node = inner.child[bit(path, inner.crit)];
                }
            }
        }
    }

    /// Drops the cached digests of `inners`.
    fn invalidate(&self, inners: &[u32]) {
        for &i in inners {
            self.inners[i as usize].digest.set(None);
        }
    }

    /// What hangs on `path`'s side of `parent` — or at the root, for no
    /// parent. The map must not be empty.
    fn child_towards(&self, parent: Option<u32>, path: Path) -> Ref {
        match parent {
            None => self.root.expect("child of an empty trie"),
            Some(i) => {
                let parent = &self.inners[i as usize];
                parent.child[bit(path, parent.crit)]
            }
        }
    }

    fn set_child_towards(&mut self, parent: Option<u32>, path: Path, node: Ref) {
        match parent {
            None => self.root = Some(node),
            Some(i) => {
                let parent = &mut self.inners[i as usize];
                parent.child[bit(path, parent.crit)] = node;
            }
        }
    }

    fn digest(&self, node: Ref) -> Hash {
        match node.node() {
            Node::Leaf(i) => {
                let leaf = &self.leaves[i];
                leaf.digest.get().unwrap_or_else(|| {
                    let digest = leaf_digest(leaf.path(), &leaf.value);
                    leaf.digest.set(Some(digest));
                    digest
                })
            }
            Node::Inner(i) => {
                let inner = &self.inners[i];
                inner.digest.get().unwrap_or_else(|| {
                    let [left, right] = inner.child;
                    let digest = inner_digest(inner.crit, &self.digest(left), &self.digest(right));
                    inner.digest.set(Some(digest));
                    digest
                })
            }
        }
    }

    fn alloc_leaf(&mut self, key: u64, value: Value) -> Ref {
        self.len[value.namespace() as usize] += 1;
        let leaf = Leaf {
            key,
            value,
            digest: Cell::new(None),
        };
        Ref::leaf(match self.free_leaves.pop() {
            Some(i) => {
                self.leaves[i] = leaf;
                i
            }
            None => {
                self.leaves.push(leaf);
                self.leaves.len() - 1
            }
        })
    }

    fn alloc_inner(&mut self, inner: Inner) -> Ref {
        Ref::inner(match self.free_inners.pop() {
            Some(i) => {
                self.inners[i] = inner;
                i
            }
            None => {
                self.inners.push(inner);
                self.inners.len() - 1
            }
        })
    }
}

impl fmt::Debug for StateTrie {
    /// The entries in path order — accounts, then KV entries; the variant
    /// names tell the namespaces apart. Never the arenas or the cache.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.entries()).finish()
    }
}

impl PartialEq for StateTrie {
    /// Equality of the entry sets; arena layout and cache are invisible.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.entries().eq(other.entries())
    }
}

impl Eq for StateTrie {}
