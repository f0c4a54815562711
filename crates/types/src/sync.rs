//! State-sync messages: the late-join / catch-up block-fetch sub-protocol.
//!
//! A node that is behind the cluster — freshly late-joined, restarted from
//! disk with a stale WAL tip, or back from the wrong side of a partition —
//! closes the gap by *fetching* the definite ledger prefix from its peers
//! instead of waiting for normal protocol traffic to replay it. The
//! exchange is a classic range protocol over `[from, to)` rounds:
//!
//! 1. [`SyncMsg::TipProbe`] / [`SyncMsg::TipReply`] discover how far each
//!    peer's **definite** prefix reaches;
//! 2. [`SyncMsg::GetHeaders`] / [`SyncMsg::HeadersReply`] fetch the signed
//!    header chain for a round range, which the requester verifies against
//!    its own tip (hash chain + signatures + the f+1-distinct-proposers
//!    rule) **before** downloading a single body byte;
//! 3. [`SyncMsg::GetBlocks`] / [`SyncMsg::BlocksReply`] fetch the block
//!    bodies, each checked against its verified header's payload (merkle)
//!    hash.
//!
//! Every message carries the requester's `req` nonce; replies that do not
//! match the in-flight nonce (duplicates, reordered stragglers, unsolicited
//! pushes) are discarded, so at-least-once networks cannot confuse the
//! state machine. Responses are **batched with a hard cap**
//! ([`MAX_SYNC_HEADERS`], [`MAX_SYNC_BODIES`]) so a serving node never
//! assembles an unbounded reply; the requester simply issues the next range.
//!
//! The driving state machine lives in `fireledger-core`'s `sync` module;
//! this module only defines the wire vocabulary (WIRE_FORMAT.md §10) so the
//! TCP runtime and the store-recovery path share one set of codecs.

use crate::block::SignedHeader;
use crate::codec::{CodecError, Reader, WireCodec};
use crate::ids::Round;
use crate::transaction::Transaction;

/// Hard cap on the number of headers one [`SyncMsg::HeadersReply`] may
/// carry. A server clamps every requested range to this many rounds; a
/// requester never asks for more.
pub const MAX_SYNC_HEADERS: usize = 512;

/// Hard cap on the number of block bodies one [`SyncMsg::BlocksReply`] may
/// carry. Bodies dominate bandwidth, so the cap is far smaller than the
/// header cap.
pub const MAX_SYNC_BODIES: usize = 64;

/// A state-sync message (WIRE_FORMAT.md §10). All ranges are `[from, to)`
/// over rounds of one worker's ledger; the `req` nonce binds replies to the
/// request they answer.
#[derive(Clone, Debug, PartialEq)]
pub enum SyncMsg {
    /// "How far does your definite prefix reach?" — broadcast by a node
    /// entering sync to find the cluster's tip and candidate servers.
    TipProbe {
        /// Requester's nonce, echoed by [`SyncMsg::TipReply`].
        req: u64,
    },
    /// Reply to [`SyncMsg::TipProbe`]: the responder's definite-prefix
    /// length (equivalently: the first non-definite round).
    TipReply {
        /// The probe's nonce.
        req: u64,
        /// Number of definite blocks the responder holds.
        definite: Round,
    },
    /// Request the signed headers of rounds `[from, to)`.
    GetHeaders {
        /// Requester's nonce, echoed by [`SyncMsg::HeadersReply`].
        req: u64,
        /// First round requested.
        from: Round,
        /// One past the last round requested.
        to: Round,
    },
    /// Reply to [`SyncMsg::GetHeaders`]: consecutive headers starting at
    /// `from`, at most [`MAX_SYNC_HEADERS`] of them (the server clamps; a
    /// shorter-than-requested reply means the server's definite prefix ends
    /// there).
    HeadersReply {
        /// The request's nonce.
        req: u64,
        /// Round of the first header.
        from: Round,
        /// The headers, in round order.
        headers: Vec<SignedHeader>,
    },
    /// Request the block bodies of rounds `[from, to)` — issued only after
    /// the headers of the same range passed chain verification.
    GetBlocks {
        /// Requester's nonce, echoed by [`SyncMsg::BlocksReply`].
        req: u64,
        /// First round requested.
        from: Round,
        /// One past the last round requested.
        to: Round,
    },
    /// Reply to [`SyncMsg::GetBlocks`]: the transaction lists of consecutive
    /// rounds starting at `from`, at most [`MAX_SYNC_BODIES`] of them.
    BlocksReply {
        /// The request's nonce.
        req: u64,
        /// Round of the first body.
        from: Round,
        /// One transaction list per round, in round order.
        bodies: Vec<Vec<Transaction>>,
    },
}

impl SyncMsg {
    /// The nonce carried by any sync message.
    pub fn req(&self) -> u64 {
        match self {
            SyncMsg::TipProbe { req }
            | SyncMsg::TipReply { req, .. }
            | SyncMsg::GetHeaders { req, .. }
            | SyncMsg::HeadersReply { req, .. }
            | SyncMsg::GetBlocks { req, .. }
            | SyncMsg::BlocksReply { req, .. } => *req,
        }
    }
}

/// Layout per WIRE_FORMAT.md §10: a discriminant byte (`0x01` TipProbe
/// through `0x06` BlocksReply) followed by the variant's fields in
/// declaration order.
impl WireCodec for SyncMsg {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            SyncMsg::TipProbe { req } => {
                out.push(1);
                req.encode_to(out);
            }
            SyncMsg::TipReply { req, definite } => {
                out.push(2);
                req.encode_to(out);
                definite.encode_to(out);
            }
            SyncMsg::GetHeaders { req, from, to } => {
                out.push(3);
                req.encode_to(out);
                from.encode_to(out);
                to.encode_to(out);
            }
            SyncMsg::HeadersReply { req, from, headers } => {
                out.push(4);
                req.encode_to(out);
                from.encode_to(out);
                headers.encode_to(out);
            }
            SyncMsg::GetBlocks { req, from, to } => {
                out.push(5);
                req.encode_to(out);
                from.encode_to(out);
                to.encode_to(out);
            }
            SyncMsg::BlocksReply { req, from, bodies } => {
                out.push(6);
                req.encode_to(out);
                from.encode_to(out);
                bodies.encode_to(out);
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            1 => Ok(SyncMsg::TipProbe {
                req: u64::decode_from(r)?,
            }),
            2 => Ok(SyncMsg::TipReply {
                req: u64::decode_from(r)?,
                definite: Round::decode_from(r)?,
            }),
            3 => Ok(SyncMsg::GetHeaders {
                req: u64::decode_from(r)?,
                from: Round::decode_from(r)?,
                to: Round::decode_from(r)?,
            }),
            4 => Ok(SyncMsg::HeadersReply {
                req: u64::decode_from(r)?,
                from: Round::decode_from(r)?,
                headers: Vec::<SignedHeader>::decode_from(r)?,
            }),
            5 => Ok(SyncMsg::GetBlocks {
                req: u64::decode_from(r)?,
                from: Round::decode_from(r)?,
                to: Round::decode_from(r)?,
            }),
            6 => Ok(SyncMsg::BlocksReply {
                req: u64::decode_from(r)?,
                from: Round::decode_from(r)?,
                bodies: Vec::<Vec<Transaction>>::decode_from(r)?,
            }),
            tag => Err(CodecError::BadTag {
                what: "SyncMsg",
                tag,
            }),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            SyncMsg::TipProbe { .. } => 8,
            SyncMsg::TipReply { .. } => 8 + 8,
            SyncMsg::GetHeaders { .. } | SyncMsg::GetBlocks { .. } => 8 + 8 + 8,
            SyncMsg::HeadersReply { headers, .. } => 8 + 8 + headers.encoded_len(),
            SyncMsg::BlocksReply { bodies, .. } => 8 + 8 + bodies.encoded_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockHeader, Signature};
    use crate::ids::{NodeId, WorkerId};
    use crate::GENESIS_HASH;

    fn signed_header() -> SignedHeader {
        SignedHeader::new(
            BlockHeader::new(
                Round(3),
                WorkerId(0),
                NodeId(1),
                GENESIS_HASH,
                GENESIS_HASH,
                10,
                5120,
            ),
            Signature::from(vec![0u8; 64]),
        )
    }

    fn every_sync_msg() -> Vec<SyncMsg> {
        vec![
            SyncMsg::TipProbe { req: 7 },
            SyncMsg::TipReply {
                req: 7,
                definite: Round(4000),
            },
            SyncMsg::GetHeaders {
                req: 8,
                from: Round(10),
                to: Round(20),
            },
            SyncMsg::HeadersReply {
                req: 8,
                from: Round(10),
                headers: vec![signed_header(); 2],
            },
            SyncMsg::GetBlocks {
                req: 9,
                from: Round(10),
                to: Round(12),
            },
            SyncMsg::BlocksReply {
                req: 9,
                from: Round(10),
                bodies: vec![
                    vec![Transaction::zeroed(1, 0, 64)],
                    vec![Transaction::new(2, 1, vec![7, 8])],
                ],
            },
        ]
    }

    #[test]
    fn codec_roundtrips_every_sync_msg_variant() {
        for msg in every_sync_msg() {
            let bytes = msg.encode();
            assert_eq!(bytes.len(), msg.encoded_len(), "{msg:?}");
            assert_eq!(SyncMsg::decode(&bytes).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn codec_rejects_unknown_sync_discriminants() {
        assert!(matches!(
            SyncMsg::decode(&[0xEE]),
            Err(CodecError::BadTag {
                what: "SyncMsg",
                ..
            })
        ));
    }

    #[test]
    fn truncating_any_prefix_never_panics() {
        for msg in every_sync_msg() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                let _ = SyncMsg::decode(&bytes[..cut]);
            }
        }
    }

    #[test]
    fn requests_are_tiny_and_replies_scale_with_content() {
        let get = SyncMsg::GetHeaders {
            req: 1,
            from: Round(0),
            to: Round(512),
        };
        assert!(
            get.encoded_len() < 32,
            "range requests must stay constant-size"
        );
        let reply = SyncMsg::HeadersReply {
            req: 1,
            from: Round(0),
            headers: vec![signed_header(); 8],
        };
        assert!(reply.encoded_len() > 8 * signed_header().encoded_len());
    }
}
