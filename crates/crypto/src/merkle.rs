//! Merkle trees over transaction batches.
//!
//! The paper hashes all of a block's transactions and signs the result
//! alongside the block header (§7.1). We use a binary merkle tree so the
//! payload digest also supports membership proofs — useful for light clients
//! and for the insurance-consortium example, and a common extension point for
//! permissioned ledgers.

use crate::hash::{hash_concat, hash_transaction};
use fireledger_types::{Block, Hash, Transaction};

/// Computes the merkle root of a transaction batch.
///
/// The root of an empty batch is the all-zero hash, which matches the
/// `payload_hash` of an intentionally empty block.
///
/// This is the root-only fast path: unlike [`MerkleTree::build`] it keeps no
/// levels — the leaf digests are computed in one batched pass and folded to
/// the root in place, so the whole computation costs a single `Vec`
/// allocation (none at all via [`merkle_root_into`]). Both paths implement
/// the same promote-odd-leaf rule and produce identical roots (see the
/// `fast_root_matches_tree_root` test).
pub fn merkle_root(txs: &[Transaction]) -> Hash {
    let mut scratch = Vec::new();
    merkle_root_into(txs, &mut scratch)
}

/// [`merkle_root`] with a caller-owned scratch buffer for the leaf digests.
///
/// Proposers and validators hash one batch per block; feeding the same
/// scratch vector back every block makes steady-state payload hashing
/// allocation-free once the buffer reaches β entries.
pub fn merkle_root_into(txs: &[Transaction], scratch: &mut Vec<Hash>) -> Hash {
    if txs.is_empty() {
        return Hash::default();
    }
    // Batched leaf digests: one pass over the transactions.
    scratch.clear();
    scratch.extend(txs.iter().map(hash_transaction));
    // Fold to the root in place, halving the live prefix per level
    // (promote-odd-leaf rule).
    while scratch.len() > 1 {
        let mut write = 0;
        let mut read = 0;
        while read < scratch.len() {
            scratch[write] = if read + 1 < scratch.len() {
                hash_concat(&scratch[read], &scratch[read + 1])
            } else {
                // Promote the odd node unchanged.
                scratch[read]
            };
            write += 1;
            read += 2;
        }
        scratch.truncate(write);
    }
    scratch[0]
}

/// The merkle root of a block's body, computed once per [`Block`] value.
///
/// Memoized through [`Block::payload_root_cache`]: validating the same block
/// value repeatedly (FLO's per-node verify path checks the payload
/// commitment on every vote re-evaluation) hashes its β transactions once.
/// Callers that already know the root — e.g. a worker that stores verified
/// bodies by payload hash — can pre-seed the cache instead.
pub fn block_payload_root(block: &Block) -> Hash {
    block
        .payload_root_cache()
        .get_or_init(|| merkle_root(&block.txs))
}

/// A binary merkle tree with membership proofs.
///
/// Leaves are transaction hashes; odd leaves are promoted (not duplicated) so
/// the tree never commits to a transaction twice.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// levels[0] = leaf hashes, levels.last() = [root]
    levels: Vec<Vec<Hash>>,
}

/// A merkle membership proof for a single leaf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: usize,
    /// Sibling hashes from leaf level to the root, together with a flag that
    /// is true when the sibling is on the right.
    pub path: Vec<(Hash, bool)>,
}

impl MerkleTree {
    /// Builds a tree over the given transactions.
    pub fn build(txs: &[Transaction]) -> Self {
        if txs.is_empty() {
            return MerkleTree {
                levels: vec![vec![Hash::default()]],
            };
        }
        let mut levels = Vec::new();
        let leaves: Vec<Hash> = txs.iter().map(hash_transaction).collect();
        levels.push(leaves);
        while levels.last().unwrap().len() > 1 {
            let prev = levels.last().unwrap();
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                if pair.len() == 2 {
                    next.push(hash_concat(&pair[0], &pair[1]));
                } else {
                    // Promote the odd node unchanged.
                    next.push(pair[0]);
                }
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The merkle root.
    pub fn root(&self) -> Hash {
        *self.levels.last().unwrap().first().unwrap()
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        if self.levels[0].len() == 1 && self.levels[0][0] == Hash::default() {
            0
        } else {
            self.levels[0].len()
        }
    }

    /// True when the tree was built over an empty batch.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produces a membership proof for the leaf at `index`, or `None` if out
    /// of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len() {
            return None;
        }
        let mut path = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = if idx.is_multiple_of(2) {
                idx + 1
            } else {
                idx - 1
            };
            if sibling < level.len() {
                path.push((level[sibling], idx.is_multiple_of(2)));
            }
            idx /= 2;
        }
        Some(MerkleProof { index, path })
    }

    /// Verifies that `tx` is committed at `proof.index` under `root`.
    pub fn verify(root: &Hash, tx: &Transaction, proof: &MerkleProof) -> bool {
        let mut acc = hash_transaction(tx);
        for (sibling, sibling_is_right) in &proof.path {
            acc = if *sibling_is_right {
                hash_concat(&acc, sibling)
            } else {
                hash_concat(sibling, &acc)
            };
        }
        acc == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txs(n: usize) -> Vec<Transaction> {
        (0..n)
            .map(|i| Transaction::new(1, i as u64, vec![i as u8; 32]))
            .collect()
    }

    #[test]
    fn fast_root_matches_tree_root() {
        // The in-place fold and the full tree implement the same
        // promote-odd-leaf rule; their roots must agree for every shape.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, 100] {
            let batch = txs(n);
            assert_eq!(
                merkle_root(&batch),
                MerkleTree::build(&batch).root(),
                "divergence at {n} leaves"
            );
        }
    }

    #[test]
    fn scratch_buffer_is_reusable_across_batches() {
        let mut scratch = Vec::new();
        let a = merkle_root_into(&txs(7), &mut scratch);
        assert_eq!(a, merkle_root(&txs(7)));
        // A second, smaller batch through the same scratch.
        let b = merkle_root_into(&txs(3), &mut scratch);
        assert_eq!(b, merkle_root(&txs(3)));
        assert_ne!(a, b);
    }

    #[test]
    fn block_payload_root_memoizes_per_value() {
        use fireledger_types::{BlockHeader, NodeId, Round, WorkerId, GENESIS_HASH};
        let batch = txs(5);
        let header = BlockHeader::new(
            Round(0),
            WorkerId(0),
            NodeId(0),
            GENESIS_HASH,
            merkle_root(&batch),
            batch.len() as u32,
            0,
        );
        let block = Block::new(header, batch.clone());
        assert_eq!(block_payload_root(&block), merkle_root(&batch));
        assert_eq!(
            block.payload_root_cache().get(),
            Some(merkle_root(&batch)),
            "root must be cached after first computation"
        );
        // Pre-seeding wins over computation.
        let seeded = block.clone();
        seeded.payload_root_cache().get_or_init(|| Hash([7u8; 32]));
        assert_eq!(block_payload_root(&seeded), Hash([7u8; 32]));
    }

    #[test]
    fn empty_batch_has_zero_root() {
        assert_eq!(merkle_root(&[]), Hash::default());
        let t = MerkleTree::build(&[]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.prove(0).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let batch = txs(1);
        assert_eq!(merkle_root(&batch), hash_transaction(&batch[0]));
    }

    #[test]
    fn root_is_order_sensitive() {
        let a = txs(4);
        let mut b = a.clone();
        b.swap(0, 3);
        assert_ne!(merkle_root(&a), merkle_root(&b));
    }

    #[test]
    fn root_changes_with_any_tx() {
        let a = txs(8);
        let mut b = a.clone();
        b[5] = Transaction::new(99, 99, vec![0xff]);
        assert_ne!(merkle_root(&a), merkle_root(&b));
    }

    #[test]
    fn proofs_verify_for_all_leaves() {
        for n in [1usize, 2, 3, 5, 8, 13, 16, 33] {
            let batch = txs(n);
            let tree = MerkleTree::build(&batch);
            let root = tree.root();
            for (i, tx) in batch.iter().enumerate() {
                let proof = tree.prove(i).expect("proof exists");
                assert!(
                    MerkleTree::verify(&root, tx, &proof),
                    "proof failed for leaf {i} of {n}"
                );
            }
        }
    }

    #[test]
    fn proof_fails_for_wrong_tx() {
        let batch = txs(7);
        let tree = MerkleTree::build(&batch);
        let proof = tree.prove(3).unwrap();
        let wrong = Transaction::new(42, 42, vec![1]);
        assert!(!MerkleTree::verify(&tree.root(), &wrong, &proof));
    }

    #[test]
    fn proof_fails_under_wrong_root() {
        let batch = txs(6);
        let tree = MerkleTree::build(&batch);
        let proof = tree.prove(2).unwrap();
        let other_root = merkle_root(&txs(5));
        assert!(!MerkleTree::verify(&other_root, &batch[2], &proof));
    }
}
