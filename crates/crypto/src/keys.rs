//! Keys, signing and the cluster key directory.
//!
//! Permissioned blockchains assume an a-priori PKI (§2 of the paper): every
//! node knows every other node's public key. [`CryptoProvider`] captures the
//! operations the protocols need — sign as a node, verify a signature claimed
//! to be from a node — behind a trait so implementations can be swapped:
//!
//! * [`LamportKeyStore`] — a real public-key signature scheme (Lamport
//!   one-time signatures over SHA-256), implementable from the standard
//!   library alone. Verification genuinely needs only the signer's public
//!   key. It stands in for the paper's ECDSA/secp256k1 where the build must
//!   stay dependency-free; note that reusing a Lamport key across messages
//!   leaks secret material, so this store is for benchmarking and
//!   demonstration, not production deployments.
//! * [`SimKeyStore`] — a hash-based MAC stand-in whose signatures are
//!   deterministic digests. It is orders of magnitude cheaper, which keeps
//!   large discrete-event simulations fast; the *modelled* CPU cost of real
//!   ECDSA signatures is still charged through [`crate::CostModel`], so the
//!   substitution does not change modelled performance.
//!
//! Both stores hold keys for the whole cluster because the workspace runs all
//! nodes in one process. A production deployment would hold only the local
//! secret key plus the directory of public keys; the trait is deliberately
//! compatible with that split.

use crate::cost::CostModel;
use crate::hash::hash_bytes;
use crate::sha256::Sha256;
use fireledger_types::{NodeId, Signature, SignedHeader};
use std::sync::Arc;

/// Shared handle to a cluster crypto provider.
pub type SharedCrypto = Arc<dyn CryptoProvider>;

/// Verifies a signed header's proposer signature, memoized per value
/// through [`SignedHeader::sig_cache`].
///
/// The first call on a given header value pays `crypto.verify`; every later
/// call on the *same value* reads the cached verdict. A worker verifies a
/// header where it arrives and stores the value, so chain validation and
/// the fallback and recovery checks of that stored value are cache reads.
/// Because moves keep the cache and clones reset it, code that re-derives a
/// header (decodes or clones it) re-verifies — the memo can never launder
/// an unverified value.
pub fn verify_header_cached(crypto: &dyn CryptoProvider, signed: &SignedHeader) -> bool {
    signed.sig_cache().get_or_init(|| {
        crypto.verify(
            signed.proposer(),
            &signed.header.canonical_bytes(),
            &signed.signature,
        )
    })
}

/// Signing and verification for a permissioned cluster.
pub trait CryptoProvider: Send + Sync {
    /// Signs `msg` with `node`'s secret key.
    fn sign(&self, node: NodeId, msg: &[u8]) -> Signature;

    /// Verifies that `sig` is `node`'s signature over `msg`.
    fn verify(&self, node: NodeId, msg: &[u8], sig: &Signature) -> bool;

    /// Number of nodes with registered keys.
    fn cluster_size(&self) -> usize;

    /// The CPU cost model associated with this provider (used by the
    /// simulator to charge virtual signing/verification time).
    fn cost_model(&self) -> CostModel;

    /// Human-readable scheme name for logs and reports.
    fn scheme(&self) -> &'static str;
}

/// Number of 32-byte secret values per Lamport key: one pair per digest bit.
const LAMPORT_VALUES: usize = 512;
/// Size of a Lamport signature: one revealed 32-byte value per digest bit.
pub const LAMPORT_SIG_BYTES: usize = 256 * 32;

/// A node's Lamport public key: the hash of every secret value.
#[derive(Clone)]
pub struct LamportPublicKey {
    hashes: Box<[[u8; 32]]>,
}

struct LamportKeyPair {
    secrets: Box<[[u8; 32]]>,
    public: LamportPublicKey,
}

/// Lamport one-time signatures over SHA-256 for every node of a cluster.
///
/// `sign` hashes the message and reveals, for each digest bit `i` with value
/// `v`, the secret value `sk[2 i + v]`; `verify` re-hashes the revealed
/// values and compares them against the signer's public key. Keys are derived
/// deterministically from the cluster seed so test clusters are reproducible.
pub struct LamportKeyStore {
    keys: Vec<LamportKeyPair>,
    cost: CostModel,
}

impl LamportKeyStore {
    /// Generates keys for `n` nodes from a deterministic seed.
    pub fn generate(n: usize, seed: u64) -> Self {
        let keys = (0..n)
            .map(|node| {
                let mut secrets = Vec::with_capacity(LAMPORT_VALUES);
                let mut hashes = Vec::with_capacity(LAMPORT_VALUES);
                for j in 0..LAMPORT_VALUES {
                    let mut pre = [0u8; 24];
                    pre[..8].copy_from_slice(&seed.to_be_bytes());
                    pre[8..16].copy_from_slice(&(node as u64).to_be_bytes());
                    pre[16..].copy_from_slice(&(j as u64).to_be_bytes());
                    let sk = *hash_bytes(&pre).as_bytes();
                    hashes.push(Sha256::digest(sk));
                    secrets.push(sk);
                }
                LamportKeyPair {
                    secrets: secrets.into_boxed_slice(),
                    public: LamportPublicKey {
                        hashes: hashes.into_boxed_slice(),
                    },
                }
            })
            .collect();
        LamportKeyStore {
            keys,
            cost: CostModel::m5_xlarge(),
        }
    }

    /// Overrides the cost model reported by this store.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Wraps the store into a [`SharedCrypto`] handle.
    pub fn shared(self) -> SharedCrypto {
        Arc::new(self)
    }
}

impl CryptoProvider for LamportKeyStore {
    fn sign(&self, node: NodeId, msg: &[u8]) -> Signature {
        let key = self
            .keys
            .get(node.as_usize())
            .unwrap_or_else(|| panic!("no signing key for {node}"));
        let digest = Sha256::digest(msg);
        let mut out = Vec::with_capacity(LAMPORT_SIG_BYTES);
        for bit in 0..256 {
            let v = (digest[bit / 8] >> (7 - bit % 8)) & 1;
            out.extend_from_slice(&key.secrets[2 * bit + v as usize]);
        }
        Signature(out.into())
    }

    fn verify(&self, node: NodeId, msg: &[u8], sig: &Signature) -> bool {
        let Some(key) = self.keys.get(node.as_usize()) else {
            return false;
        };
        if sig.0.len() != LAMPORT_SIG_BYTES {
            return false;
        }
        let digest = Sha256::digest(msg);
        for bit in 0..256 {
            let v = (digest[bit / 8] >> (7 - bit % 8)) & 1;
            let revealed = &sig.0[bit * 32..(bit + 1) * 32];
            if Sha256::digest(revealed) != key.public.hashes[2 * bit + v as usize] {
                return false;
            }
        }
        true
    }

    fn cluster_size(&self) -> usize {
        self.keys.len()
    }

    fn cost_model(&self) -> CostModel {
        self.cost
    }

    fn scheme(&self) -> &'static str {
        "lamport-ots-sha256"
    }
}

/// A cheap, deterministic, hash-based signature stand-in for simulations.
///
/// `sign(node, msg) = SHA-256(secret_node || msg)` where `secret_node` is a
/// per-node secret derived from the cluster seed. Verification recomputes the
/// digest, which requires knowing the secret — acceptable inside a single
/// simulation process where the "adversary" is scripted rather than
/// cryptographic. The simulator still charges the real ECDSA cost through the
/// cost model, so performance results are unaffected by the substitution.
pub struct SimKeyStore {
    secrets: Vec<[u8; 32]>,
    cost: CostModel,
}

impl SimKeyStore {
    /// Creates a store for `n` nodes derived from `seed`.
    pub fn generate(n: usize, seed: u64) -> Self {
        let secrets = (0..n)
            .map(|i| {
                let mut pre = Vec::with_capacity(16);
                pre.extend_from_slice(&seed.to_be_bytes());
                pre.extend_from_slice(&(i as u64).to_be_bytes());
                *hash_bytes(&pre).as_bytes()
            })
            .collect();
        SimKeyStore {
            secrets,
            cost: CostModel::m5_xlarge(),
        }
    }

    /// Overrides the cost model reported by this store.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Wraps the store into a [`SharedCrypto`] handle.
    pub fn shared(self) -> SharedCrypto {
        Arc::new(self)
    }
}

impl CryptoProvider for SimKeyStore {
    fn sign(&self, node: NodeId, msg: &[u8]) -> Signature {
        let secret = self
            .secrets
            .get(node.as_usize())
            .unwrap_or_else(|| panic!("no secret for {node}"));
        let mut pre = Vec::with_capacity(32 + msg.len());
        pre.extend_from_slice(secret);
        pre.extend_from_slice(msg);
        let digest = hash_bytes(&pre);
        Signature::from(digest.as_bytes().as_slice())
    }

    fn verify(&self, node: NodeId, msg: &[u8], sig: &Signature) -> bool {
        if node.as_usize() >= self.secrets.len() {
            return false;
        }
        self.sign(node, msg) == *sig
    }

    fn cluster_size(&self) -> usize {
        self.secrets.len()
    }

    fn cost_model(&self) -> CostModel {
        self.cost
    }

    fn scheme(&self) -> &'static str {
        "sim-hmac"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_provider(provider: &dyn CryptoProvider) {
        let msg = b"block header bytes";
        let sig = provider.sign(NodeId(0), msg);
        assert!(provider.verify(NodeId(0), msg, &sig));
        // Wrong node.
        assert!(!provider.verify(NodeId(1), msg, &sig));
        // Wrong message.
        assert!(!provider.verify(NodeId(0), b"tampered", &sig));
        // Corrupted signature (Bytes storage is immutable: rebuild the
        // buffer with its first byte flipped).
        let mut bad_bytes = sig.as_bytes().to_vec();
        if let Some(b) = bad_bytes.first_mut() {
            *b ^= 0xff;
        }
        let bad = Signature::from(bad_bytes);
        assert!(!provider.verify(NodeId(0), msg, &bad));
        // Unknown node.
        assert!(!provider.verify(NodeId(99), msg, &sig));
    }

    #[test]
    fn lamport_sign_verify_roundtrip() {
        let store = LamportKeyStore::generate(4, 7);
        check_provider(&store);
        assert_eq!(store.cluster_size(), 4);
        assert_eq!(store.scheme(), "lamport-ots-sha256");
    }

    #[test]
    fn lamport_verification_uses_only_public_material() {
        // A verifier holding only the public key accepts exactly the signer's
        // signature: re-derive an independent store with the same seed and
        // check cross-verification, then check that a different seed fails.
        let signer = LamportKeyStore::generate(2, 42);
        let verifier = LamportKeyStore::generate(2, 42);
        let other = LamportKeyStore::generate(2, 43);
        let msg = b"determinism";
        let sig = signer.sign(NodeId(0), msg);
        assert!(verifier.verify(NodeId(0), msg, &sig));
        assert!(!other.verify(NodeId(0), msg, &sig));
    }

    #[test]
    fn sim_sign_verify_roundtrip() {
        let store = SimKeyStore::generate(4, 7);
        check_provider(&store);
        assert_eq!(store.cluster_size(), 4);
        assert_eq!(store.scheme(), "sim-hmac");
    }

    #[test]
    fn sim_signatures_differ_across_nodes_and_seeds() {
        let a = SimKeyStore::generate(3, 1);
        let b = SimKeyStore::generate(3, 2);
        let msg = b"x";
        assert_ne!(a.sign(NodeId(0), msg), a.sign(NodeId(1), msg));
        assert_ne!(a.sign(NodeId(0), msg), b.sign(NodeId(0), msg));
    }

    #[test]
    fn malformed_signature_rejected() {
        let store = LamportKeyStore::generate(1, 1);
        assert!(!store.verify(NodeId(0), b"m", &Signature::from(vec![1, 2, 3])));
        assert!(!store.verify(NodeId(0), b"m", &Signature::empty()));
    }

    #[test]
    fn shared_handles_are_usable_as_trait_objects() {
        let shared: SharedCrypto = SimKeyStore::generate(4, 9).shared();
        let sig = shared.sign(NodeId(2), b"hello");
        assert!(shared.verify(NodeId(2), b"hello", &sig));
    }
}
