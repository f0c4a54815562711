//! Blocks, block headers, hashes and signatures.
//!
//! FireLedger separates the *data path* from the *consensus path* (§6.1.1 of
//! the paper): full [`Block`]s — a batch of transactions — are disseminated
//! asynchronously, while only the much smaller signed [`BlockHeader`]s pass
//! through the WRB/OBBC consensus layer. A header carries the hash of its
//! predecessor header, which is the authentication data the recovery procedure
//! relies on to detect equivocation by Byzantine proposers.
//!
//! The [`struct@Hash`] and [`Signature`] types here are plain carriers; the
//! actual SHA-256 / signature operations live in `fireledger-crypto` so that
//! this crate stays dependency-free.

use crate::bytes::Bytes;
use crate::ids::{NodeId, Round, WorkerId};
use crate::transaction::Transaction;
use std::fmt;
use std::sync::OnceLock;

/// A 32-byte digest (SHA-256 in the reference implementation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Hash(pub [u8; 32]);

/// The hash every chain starts from: the parent of the block at round 0.
pub const GENESIS_HASH: Hash = Hash([0u8; 32]);

/// Lower-case hex encoding of a byte slice (log / display helper).
fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0x0F) as usize] as char);
    }
    out
}

impl Hash {
    /// Builds a hash from raw bytes.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Hash(bytes)
    }

    /// Returns the raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Short hex prefix, used in logs and debug output.
    pub fn short_hex(&self) -> String {
        hex_encode(&self.0[..6])
    }
}

impl fmt::Debug for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.short_hex())
    }
}

impl fmt::Display for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", hex_encode(&self.0))
    }
}

/// An opaque signature (ECDSA secp256k1 DER bytes in the reference
/// implementation, §7.1 of the paper).
///
/// Storage is the workspace's Arc-backed [`Bytes`]: signatures are cloned
/// into chain entries, piggybacked headers and re-broadcast evidence many
/// times per decided block, and each of those clones is a reference-count
/// bump instead of a heap copy.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Signature(pub Bytes);

impl Signature {
    /// An empty placeholder signature, used by tests and by simulated
    /// lightweight signing modes.
    pub fn empty() -> Self {
        Signature(Bytes::new())
    }

    /// Raw signature bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Whether the signature carries any bytes at all.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<Vec<u8>> for Signature {
    fn from(v: Vec<u8>) -> Self {
        Signature(Bytes::from(v))
    }
}

impl From<&[u8]> for Signature {
    fn from(v: &[u8]) -> Self {
        Signature(Bytes::copy_from_slice(v))
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            write!(f, "sig(∅)")
        } else {
            write!(f, "sig({}B)", self.0.len())
        }
    }
}

/// A thread-safe compute-once cache for a digest derived from the value it
/// sits on (see [`BlockHeader::hash_cache`] / [`Block::payload_root_cache`]).
///
/// The memo is deliberately **invisible to value semantics**: two values
/// that differ only in cache state compare equal, hash identically, and
/// `Clone` hands back an *empty* cache. The clone-resets rule is what makes
/// the cache safe next to public fields — the codebase's mutation idiom is
/// clone-then-mutate (equivocating proposers, test tampering), and a clone
/// that inherited the original's digest would serve a stale hash after the
/// mutation. The price is one recompute per cloned lineage, which is exactly
/// what the code paid before memoization existed.
///
/// Mutating a value **in place** after its digest was computed would leave
/// the memo stale; in-place field mutation of an already-hashed header is
/// not something any workspace code does (and `reset` exists for code that
/// must).
#[derive(Default)]
pub struct HashMemo(OnceLock<Hash>);

impl HashMemo {
    /// An empty (not yet computed) memo.
    pub fn new() -> Self {
        HashMemo(OnceLock::new())
    }

    /// The cached digest, computing and storing it on first use.
    pub fn get_or_init(&self, compute: impl FnOnce() -> Hash) -> Hash {
        *self.0.get_or_init(compute)
    }

    /// The cached digest, if one was computed.
    pub fn get(&self) -> Option<Hash> {
        self.0.get().copied()
    }

    /// Clears the cache (for code that mutates a value in place after its
    /// digest was computed).
    pub fn reset(&mut self) {
        self.0 = OnceLock::new();
    }
}

impl Clone for HashMemo {
    /// Clones are *empty*: the clone may be mutated before it is hashed, so
    /// it must not inherit the original's digest.
    fn clone(&self) -> Self {
        HashMemo::new()
    }
}

/// Cache state never participates in equality.
impl PartialEq for HashMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for HashMemo {}

/// Cache state never participates in hashing.
impl std::hash::Hash for HashMemo {
    fn hash<H: std::hash::Hasher>(&self, _: &mut H) {}
}

impl fmt::Debug for HashMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.get() {
            Some(h) => write!(f, "memo({h:?})"),
            None => write!(f, "memo(∅)"),
        }
    }
}

/// A thread-safe compute-once cache for a *boolean* fact derived from the
/// value it sits on — the signature-validity analogue of [`HashMemo`] (see
/// [`SignedHeader::sig_cache`]).
///
/// The semantics mirror [`HashMemo`] exactly: invisible to equality and
/// hashing, and `Clone` hands back an empty cache, so the clone-then-mutate
/// idiom can never serve a stale verdict. The memo is what lets a node
/// verify a header's signature once, where the header arrives, and have
/// every later check of the stored value (chain validation, fallback
/// evidence, recovery versions) read the verdict instead of paying the
/// verification again: moves preserve the cache.
#[derive(Default)]
pub struct SigMemo(OnceLock<bool>);

impl SigMemo {
    /// An empty (not yet computed) memo.
    pub fn new() -> Self {
        SigMemo(OnceLock::new())
    }

    /// The cached verdict, computing and storing it on first use.
    pub fn get_or_init(&self, compute: impl FnOnce() -> bool) -> bool {
        *self.0.get_or_init(compute)
    }

    /// The cached verdict, if one was computed.
    pub fn get(&self) -> Option<bool> {
        self.0.get().copied()
    }

    /// Clears the cache (for code that mutates a value in place after the
    /// verdict was computed).
    pub fn reset(&mut self) {
        self.0 = OnceLock::new();
    }
}

impl Clone for SigMemo {
    /// Clones are *empty*: the clone may be mutated before it is verified,
    /// so it must not inherit the original's verdict.
    fn clone(&self) -> Self {
        SigMemo::new()
    }
}

/// Cache state never participates in equality.
impl PartialEq for SigMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for SigMemo {}

/// Cache state never participates in hashing.
impl std::hash::Hash for SigMemo {
    fn hash<H: std::hash::Hasher>(&self, _: &mut H) {}
}

impl fmt::Debug for SigMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.get() {
            Some(v) => write!(f, "memo({v})"),
            None => write!(f, "memo(∅)"),
        }
    }
}

/// The consensus-path representation of a block (§6.1.1).
///
/// Headers are what WRB-broadcast / OBBC operate on; the body (the
/// transactions) travels separately on the data path and is referenced by
/// `payload_hash`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BlockHeader {
    /// Round in which this block is proposed.
    pub round: Round,
    /// FLO worker instance this block belongs to.
    pub worker: WorkerId,
    /// Node that created and signed this block.
    pub proposer: NodeId,
    /// Hash of the predecessor block's header (the chain authentication data).
    pub parent: Hash,
    /// Merkle root / digest of the block body (its transactions).
    pub payload_hash: Hash,
    /// Number of transactions in the body.
    pub tx_count: u32,
    /// Total payload bytes of the body.
    pub payload_bytes: u64,
    /// Lagged execution state root (WIRE_FORMAT.md §12): the canonical root
    /// of this worker's executed ledger prefix at the moment the header was
    /// built — execution pipelined one block behind the commit frontier,
    /// Overlord's scheme adapted to BBFC(f+1) finality. `None` on clusters
    /// that run without the execution stage (and on all baseline protocols),
    /// encoded behind a presence byte so the two populations stay
    /// wire-compatible with each other.
    pub exec_root: Option<Hash>,
    /// Compute-once cache for this header's digest (`hash_header`); private
    /// so struct literals outside this crate cannot bypass [`HashMemo`]'s
    /// clone-resets discipline.
    hash_cache: HashMemo,
}

/// The canonical (signing / wire) encoding of a [`BlockHeader`], returned on
/// the stack: 92 fixed bytes, one exec-root presence byte, and 32 root bytes
/// when present (93 or 125 bytes total). Derefs to `&[u8]`, so call sites
/// that used to receive a fixed array keep compiling unchanged.
pub struct CanonicalBytes {
    buf: [u8; BlockHeader::CANONICAL_MAX],
    len: usize,
}

impl CanonicalBytes {
    /// The encoded bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// Number of encoded bytes (93 without an exec root, 125 with one).
    #[inline]
    #[allow(clippy::len_without_is_empty)] // never empty: ≥ 93 bytes
    pub fn len(&self) -> usize {
        self.len
    }
}

impl std::ops::Deref for CanonicalBytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for CanonicalBytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for CanonicalBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for CanonicalBytes {}

impl fmt::Debug for CanonicalBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CanonicalBytes({})", hex_encode(self.as_slice()))
    }
}

impl BlockHeader {
    /// Creates a header (without an execution root; see
    /// [`BlockHeader::with_exec_root`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        round: Round,
        worker: WorkerId,
        proposer: NodeId,
        parent: Hash,
        payload_hash: Hash,
        tx_count: u32,
        payload_bytes: u64,
    ) -> Self {
        BlockHeader {
            round,
            worker,
            proposer,
            parent,
            payload_hash,
            tx_count,
            payload_bytes,
            exec_root: None,
            hash_cache: HashMemo::new(),
        }
    }

    /// Returns this header carrying `root` as its lagged execution state
    /// root. Must be applied **before** the header is signed or hashed — the
    /// root is part of the canonical bytes.
    pub fn with_exec_root(mut self, root: Hash) -> Self {
        self.exec_root = Some(root);
        self
    }

    /// Size in bytes of the fixed leading portion of
    /// [`BlockHeader::canonical_bytes`] (everything up to the exec-root
    /// presence byte).
    pub const CANONICAL_LEN: usize = 8 + 4 + 4 + 32 + 32 + 4 + 8;

    /// Maximum size of [`BlockHeader::canonical_bytes`]: the fixed fields,
    /// the exec-root presence byte, and the root itself.
    pub const CANONICAL_MAX: usize = Self::CANONICAL_LEN + 1 + 32;

    /// A canonical byte encoding used as the pre-image for hashing and
    /// signing — and byte-identical to the wire encoding, so a receiver
    /// verifies signatures over exactly the bytes it received. The encoding
    /// is explicit (not serde-derived) so that it is stable across versions
    /// and platforms, and it is returned on the stack — the sign/verify hot
    /// path pays no allocation for its pre-image.
    pub fn canonical_bytes(&self) -> CanonicalBytes {
        let mut buf = [0u8; Self::CANONICAL_MAX];
        buf[0..8].copy_from_slice(&self.round.0.to_be_bytes());
        buf[8..12].copy_from_slice(&self.worker.0.to_be_bytes());
        buf[12..16].copy_from_slice(&self.proposer.0.to_be_bytes());
        buf[16..48].copy_from_slice(self.parent.as_bytes());
        buf[48..80].copy_from_slice(self.payload_hash.as_bytes());
        buf[80..84].copy_from_slice(&self.tx_count.to_be_bytes());
        buf[84..92].copy_from_slice(&self.payload_bytes.to_be_bytes());
        let len = match &self.exec_root {
            None => {
                buf[92] = 0;
                Self::CANONICAL_LEN + 1
            }
            Some(root) => {
                buf[92] = 1;
                buf[93..125].copy_from_slice(root.as_bytes());
                Self::CANONICAL_MAX
            }
        };
        CanonicalBytes { buf, len }
    }

    /// The compute-once cache for this header's digest. `fireledger-crypto`'s
    /// `hash_header` goes through this so repeated hashing of a *stored*
    /// header (chain tips, parent links) is a cache read.
    pub fn hash_cache(&self) -> &HashMemo {
        &self.hash_cache
    }

    /// True when the block carries no transactions.
    pub fn is_empty(&self) -> bool {
        self.tx_count == 0
    }
}

impl fmt::Debug for BlockHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Header({} {} by {}, parent={:?}, {} txs)",
            self.worker, self.round, self.proposer, self.parent, self.tx_count
        )
    }
}

/// A header together with its proposer's signature — the unit that flows
/// through WRB and that constitutes `evidence(1)` for OBBC (§A.5).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SignedHeader {
    /// The header being signed.
    pub header: BlockHeader,
    /// The proposer's signature over [`BlockHeader::canonical_bytes`].
    pub signature: Signature,
    /// Compute-once cache for the signature check; private so struct
    /// literals outside this crate cannot bypass [`SigMemo`]'s clone-resets
    /// discipline.
    sig_cache: SigMemo,
}

impl SignedHeader {
    /// Creates a signed header from parts.
    pub fn new(header: BlockHeader, signature: Signature) -> Self {
        SignedHeader {
            header,
            signature,
            sig_cache: SigMemo::new(),
        }
    }

    /// The compute-once cache for this header's signature check.
    /// `fireledger-crypto`'s `verify_header_cached` goes through this, so a
    /// header verified where it arrives is a cache read for every later
    /// check of the same value (moves keep the cache; clones reset it).
    pub fn sig_cache(&self) -> &SigMemo {
        &self.sig_cache
    }

    /// The round the header belongs to.
    pub fn round(&self) -> Round {
        self.header.round
    }

    /// The node that proposed (and signed) the header.
    pub fn proposer(&self) -> NodeId {
        self.header.proposer
    }
}

impl fmt::Debug for SignedHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signed{:?}", self.header)
    }
}

/// A full block: a header plus its transaction batch (the data path payload).
#[derive(Clone, PartialEq, Eq)]
pub struct Block {
    /// The block header.
    pub header: BlockHeader,
    /// The transaction batch (β transactions in the paper's notation).
    pub txs: Vec<Transaction>,
    /// Compute-once cache for the body's merkle root (see
    /// [`Block::payload_root_cache`]).
    payload_root_cache: HashMemo,
}

impl Block {
    /// Creates a block from a header and its transactions.
    pub fn new(header: BlockHeader, txs: Vec<Transaction>) -> Self {
        Block {
            header,
            txs,
            payload_root_cache: HashMemo::new(),
        }
    }

    /// The compute-once cache for the merkle root of `txs`.
    /// `fireledger-crypto`'s `block_payload_root` goes through this so
    /// validating the same `Block` value twice hashes its transactions once.
    pub fn payload_root_cache(&self) -> &HashMemo {
        &self.payload_root_cache
    }

    /// Number of transactions in the block.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// True when the block carries no transactions.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Total payload bytes across all transactions.
    pub fn payload_bytes(&self) -> u64 {
        self.txs.iter().map(|t| t.payload.len() as u64).sum()
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Block({} {} by {}, {} txs, {}B)",
            self.header.worker,
            self.header.round,
            self.header.proposer,
            self.txs.len(),
            self.payload_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::WireCodec;

    fn header(round: u64, proposer: u32) -> BlockHeader {
        BlockHeader::new(
            Round(round),
            WorkerId(0),
            NodeId(proposer),
            GENESIS_HASH,
            Hash([7u8; 32]),
            3,
            1536,
        )
    }

    #[test]
    fn genesis_hash_is_zero() {
        assert_eq!(GENESIS_HASH, Hash([0u8; 32]));
        assert_eq!(GENESIS_HASH, Hash::default());
    }

    #[test]
    fn canonical_bytes_are_stable_and_unique() {
        let a = header(1, 0);
        let b = header(1, 0);
        let c = header(2, 0);
        let d = header(1, 1);
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        assert_ne!(a.canonical_bytes(), c.canonical_bytes());
        assert_ne!(a.canonical_bytes(), d.canonical_bytes());
        // Canonical bytes always carry the exec-root presence byte.
        assert_eq!(a.canonical_bytes().len(), BlockHeader::CANONICAL_LEN + 1);
    }

    #[test]
    fn exec_root_changes_canonical_bytes_and_wire_size() {
        let plain = header(1, 0);
        let rooted = header(1, 0).with_exec_root(Hash([3u8; 32]));
        assert_ne!(plain.canonical_bytes(), rooted.canonical_bytes());
        assert_eq!(rooted.canonical_bytes().len(), BlockHeader::CANONICAL_MAX);
        assert_eq!(rooted.encoded_len(), BlockHeader::CANONICAL_MAX);
        assert_eq!(plain.encoded_len(), BlockHeader::CANONICAL_LEN + 1);
        assert_eq!(
            rooted.canonical_bytes().as_slice()[BlockHeader::CANONICAL_LEN],
            1
        );
        assert_eq!(
            &rooted.canonical_bytes()[BlockHeader::CANONICAL_LEN + 1..],
            &[3u8; 32]
        );
        // Two different roots encode differently.
        let other = header(1, 0).with_exec_root(Hash([4u8; 32]));
        assert_ne!(rooted.canonical_bytes(), other.canonical_bytes());
    }

    #[test]
    fn block_payload_accounting() {
        let txs = vec![
            Transaction::zeroed(0, 0, 512),
            Transaction::zeroed(0, 1, 512),
        ];
        let block = Block::new(header(0, 0), txs);
        assert_eq!(block.len(), 2);
        assert!(!block.is_empty());
        assert_eq!(block.payload_bytes(), 1024);
        // Header, then the u32 count and each tx's client, seq and
        // length-prefixed payload.
        assert_eq!(
            block.encoded_len(),
            block.header.encoded_len() + 4 + 2 * (8 + 8 + 4 + 512)
        );
    }

    #[test]
    fn empty_block() {
        let block = Block::new(header(0, 0), vec![]);
        assert!(block.is_empty());
        assert_eq!(block.payload_bytes(), 0);
    }

    #[test]
    fn signed_header_accessors() {
        let sh = SignedHeader::new(header(9, 2), Signature::from(vec![1, 2, 3]));
        assert_eq!(sh.round(), Round(9));
        assert_eq!(sh.proposer(), NodeId(2));
        // A signature costs its length prefix plus the bytes the signer made.
        assert_eq!(sh.encoded_len(), sh.header.encoded_len() + 4 + 3);
    }

    #[test]
    fn hash_display_and_debug() {
        let h = Hash([0xab; 32]);
        assert_eq!(h.short_hex(), "abababababab");
        assert!(h.to_string().starts_with("abab"));
        assert_eq!(format!("{h:?}"), "#abababababab");
    }

    #[test]
    fn signature_debug() {
        assert_eq!(format!("{:?}", Signature::empty()), "sig(∅)");
        assert_eq!(format!("{:?}", Signature::from(vec![0; 64])), "sig(64B)");
    }

    #[test]
    fn signature_clones_share_storage() {
        let a = Signature::from(vec![7u8; 64]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_bytes().as_ptr(), b.as_bytes().as_ptr()));
    }

    #[test]
    fn hash_memo_computes_once_and_is_invisible_to_value_semantics() {
        let memo = HashMemo::new();
        assert_eq!(memo.get(), None);
        let first = memo.get_or_init(|| Hash([1u8; 32]));
        // A second init closure is never invoked.
        let second = memo.get_or_init(|| unreachable!("memo must be cached"));
        assert_eq!(first, second);
        assert_eq!(memo.get(), Some(Hash([1u8; 32])));
        // Clones start empty (clone-then-mutate safety).
        assert_eq!(memo.clone().get(), None);
        // Equality and hashing ignore cache state.
        assert_eq!(memo, HashMemo::new());
        let mut memo = memo;
        memo.reset();
        assert_eq!(memo.get(), None);
    }

    #[test]
    fn sig_memo_computes_once_and_is_invisible_to_value_semantics() {
        let memo = SigMemo::new();
        assert_eq!(memo.get(), None);
        assert!(!memo.get_or_init(|| false));
        // A second init closure is never invoked.
        assert!(!memo.get_or_init(|| unreachable!("memo must be cached")));
        assert_eq!(memo.get(), Some(false));
        assert_eq!(memo.clone().get(), None, "clones must re-verify");
        assert_eq!(memo, SigMemo::new());
        let mut memo = memo;
        memo.reset();
        assert_eq!(memo.get(), None);
    }

    #[test]
    fn signed_header_sig_cache_does_not_leak_through_clone_or_eq() {
        let a = SignedHeader::new(header(1, 0), Signature::from(vec![1, 2, 3]));
        a.sig_cache().get_or_init(|| true);
        let b = a.clone();
        assert_eq!(a, b, "cache state must not affect equality");
        assert_eq!(b.sig_cache().get(), None, "clones must re-verify");
        assert_eq!(a.sig_cache().get(), Some(true));
    }

    #[test]
    fn header_hash_cache_does_not_leak_through_clone_or_eq() {
        let a = header(1, 0);
        a.hash_cache().get_or_init(|| Hash([9u8; 32]));
        let b = a.clone();
        assert_eq!(a, b, "cache state must not affect equality");
        assert_eq!(b.hash_cache().get(), None, "clones must recompute");
        let block = Block::new(a, vec![]);
        block.payload_root_cache().get_or_init(|| Hash([8u8; 32]));
        assert_eq!(block.clone().payload_root_cache().get(), None);
    }
}
