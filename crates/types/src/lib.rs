//! # fireledger-types
//!
//! Foundational data types shared by every crate in the FireLedger workspace:
//! node / worker / round identifiers, transactions, blocks and block headers,
//! cluster configuration, the binary wire [`codec`] (spec:
//! `docs/WIRE_FORMAT.md`) whose framed sizes the TCP runtime sends and the
//! simulator charges, and the runtime-agnostic [`runtime::Protocol`] state-machine
//! abstraction that lets the same protocol code run under the discrete-event
//! simulator (`fireledger-sim`) and the real-time runtimes
//! (`fireledger-net`).
//!
//! The types in this crate are intentionally free of cryptographic and I/O
//! dependencies; hashing and signing live in `fireledger-crypto`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod block;
pub mod bytes;
pub mod codec;
pub mod config;
pub mod error;
pub mod faults;
pub mod ids;
pub mod ops;
pub mod persist;
pub mod rng;
pub mod rpc;
pub mod runtime;
pub mod sync;
pub mod transaction;

pub use block::{
    Block, BlockHeader, CanonicalBytes, Hash, HashMemo, SigMemo, Signature, SignedHeader,
    GENESIS_HASH,
};
pub use bytes::Bytes;
pub use codec::{
    framed_len, CodecError, FrameHeader, Reader, WireCodec, MAX_FRAME_LEN, WIRE_VERSION,
};
pub use config::{ClusterConfig, FillOps, ProtocolParams};
pub use error::{Error, Result};
pub use faults::{
    DiskFault, FaultPlan, FaultWindow, KillFault, LinkDecision, LinkFault, LinkFaultEngine,
    LinkFaultKind, LinkSelector, NodeFault, Partition,
};
pub use ids::{NodeId, Round, WorkerId};
pub use ops::{DecodedOp, Receipt, TxOp, MAX_KV_VALUE, OP_MAGIC};
pub use persist::{StoredBlock, WalRecord, WAL_LOCKED, WAL_ROUND, WAL_VOTE};
pub use rng::DetRng;
pub use rpc::{Lane, RejectReason, RpcMsg, SubmitStatus, MAX_RPC_PAYLOAD};
pub use runtime::{Action, Delivery, Observation, Outbox, Protocol, TimerId};
pub use sync::{SyncMsg, MAX_SYNC_BODIES, MAX_SYNC_HEADERS};
pub use transaction::Transaction;

/// Exact widths of the codec's primitive and composite encodings: the bytes
/// the simulator charges and the socket sends for each building block.
#[cfg(test)]
mod wire {
    mod tests {
        use crate::codec::WireCodec;

        #[test]
        fn primitive_sizes() {
            assert_eq!(true.encoded_len(), 1);
            assert_eq!(7u8.encoded_len(), 1);
            assert_eq!(7u16.encoded_len(), 2);
            assert_eq!(7u32.encoded_len(), 4);
            assert_eq!(7u64.encoded_len(), 8);
        }

        #[test]
        fn option_adds_tag_byte() {
            assert_eq!(None::<u64>.encoded_len(), 1);
            assert_eq!(Some(1u64).encoded_len(), 9);
        }

        #[test]
        fn vec_adds_length_prefix() {
            assert_eq!(vec![1u32, 2, 3].encoded_len(), 4 + 12);
            assert_eq!(Vec::<u32>::new().encoded_len(), 4);
        }

        #[test]
        fn composite_sizes() {
            assert_eq!((1u32, 2u64).encoded_len(), 12);
            assert_eq!(Box::new(5u64).encoded_len(), 8);
        }
    }
}
