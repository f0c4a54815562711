//! # fireledger-crypto
//!
//! Hashing, merkle trees, signatures, a key directory, and a calibrated CPU
//! cost model for the FireLedger workspace.
//!
//! The paper signs block headers with ECDSA over the secp256k1 curve and
//! hashes every transaction of a block before signing (§7.1). This workspace
//! builds offline from the standard library alone, so the pipeline is
//! reproduced with a self-contained SHA-256 ([`sha256::Sha256`]) and a real
//! public-key hash-based signature scheme ([`LamportKeyStore`]); a cheap
//! *simulated* MAC scheme ([`SimKeyStore`]) keeps large discrete-event
//! simulations fast. The cost of the paper's ECDSA operations is captured by
//! [`CostModel`], which the simulator uses to charge virtual CPU time, so the
//! scheme substitution does not change the *modelled* performance.

// `deny` rather than the workspace's usual `forbid`: the SHA-256 hardware
// back-end ([`sha256`]'s `ni` module) is the one place this crate needs
// `unsafe` — runtime-detected x86-64 SHA-extension intrinsics, scoped to a
// single module with its safety argument and differential tests alongside.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod cost;
pub mod hash;
pub mod keys;
pub mod merkle;
pub mod pool;
pub mod sha256;

pub use cost::CostModel;
pub use hash::{hash_bytes, hash_concat, hash_header, hash_transaction};
pub use keys::{verify_header_cached, CryptoProvider, LamportKeyStore, SharedCrypto, SimKeyStore};
pub use merkle::{block_payload_root, merkle_root, merkle_root_into, MerkleTree};
pub use pool::CryptoPool;
