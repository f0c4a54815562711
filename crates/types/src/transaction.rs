//! Client transactions.
//!
//! In a blockchain, clients submit transactions to the nodes and decided
//! values are blocks of transactions (§3.3). The paper's evaluation uses
//! randomly generated transactions of σ ∈ {512, 1K, 4K} bytes (Table 2); the
//! workload generator in `fireledger-sim` produces exactly that shape, but any
//! application payload (e.g. the insurance-consortium example) fits in the
//! same type.

use crate::bytes::Bytes;
use std::fmt;

/// A client transaction: an opaque payload plus bookkeeping identifiers.
///
/// The protocol itself never interprets the payload; interpretation is the job
/// of the external validity predicate (`fireledger::validity`) and of the
/// application layered on top.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Transaction {
    /// Client that submitted the transaction (an arbitrary application-level
    /// identifier, not necessarily a replica).
    pub client: u64,
    /// Client-local sequence number; `(client, seq)` uniquely identifies a
    /// transaction.
    pub seq: u64,
    /// Opaque payload bytes.
    pub payload: Bytes,
}

impl Transaction {
    /// Creates a new transaction.
    pub fn new(client: u64, seq: u64, payload: impl Into<Bytes>) -> Self {
        Transaction {
            client,
            seq,
            payload: payload.into(),
        }
    }

    /// Creates a transaction whose payload is `size` zero bytes — handy in
    /// tests that only care about sizes.
    pub fn zeroed(client: u64, seq: u64, size: usize) -> Self {
        Transaction::new(client, seq, vec![0u8; size])
    }

    /// A globally unique identifier for the transaction.
    #[inline]
    pub fn id(&self) -> (u64, u64) {
        (self.client, self.seq)
    }

    /// Payload length in bytes (σ in the paper's notation).
    #[inline]
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tx(client={}, seq={}, {}B)",
            self.client,
            self.seq,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::WireCodec;

    #[test]
    fn id_is_client_and_seq() {
        let tx = Transaction::new(7, 42, vec![1, 2, 3]);
        assert_eq!(tx.id(), (7, 42));
        assert_eq!(tx.payload_len(), 3);
    }

    #[test]
    fn zeroed_has_requested_size() {
        let tx = Transaction::zeroed(1, 1, 512);
        assert_eq!(tx.payload_len(), 512);
        assert!(tx.payload.iter().all(|b| *b == 0));
    }

    #[test]
    fn wire_size_includes_overhead() {
        let tx = Transaction::zeroed(1, 1, 512);
        // client + seq + length prefix + payload
        assert_eq!(tx.encoded_len(), 512 + 20);
    }

    #[test]
    fn equality_and_hash_by_value() {
        let a = Transaction::new(1, 2, vec![9]);
        let b = Transaction::new(1, 2, vec![9]);
        let c = Transaction::new(1, 3, vec![9]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn debug_is_compact() {
        let tx = Transaction::zeroed(3, 4, 10);
        assert_eq!(format!("{tx:?}"), "Tx(client=3, seq=4, 10B)");
    }
}
