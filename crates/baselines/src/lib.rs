//! # fireledger-baselines
//!
//! The two state-of-the-art BFT systems FireLedger is compared against in
//! §7.6 of the paper, implemented from scratch over the same [`Protocol`]
//! abstraction and the same network/CPU simulator so the comparison isolates
//! the protocols themselves:
//!
//! * [`hotstuff`] — chained HotStuff with a rotating leader, quorum
//!   certificates and the three-chain commit rule (Figure 16's comparator).
//!   Every replica signs every block, which is the CPU asymmetry the paper
//!   exploits (FireLedger only requires the proposer's signature in the
//!   optimistic case).
//! * [`bftsmart`] — a BFT-SMaRt-style ordering service: a PBFT atomic
//!   broadcast (from `fireledger-bft`) driven by a pipelining batching leader
//!   (Figure 17's comparator).
//!
//! [`Protocol`]: fireledger_types::Protocol

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bftsmart;
pub mod hotstuff;

pub use bftsmart::{BftSmartNode, OrderedBatch};
pub use hotstuff::{HotStuffMsg, HotStuffNode};
