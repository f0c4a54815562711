//! Client RPC messages: the ingress sub-protocol spoken between external
//! clients and a node's client listener.
//!
//! This is the only way *into* the ledger from outside the replica set. A
//! client opens a connection to any node's client port (a real TCP socket
//! under the TCP runtime, an in-process call under the simulator) and
//! exchanges [`RpcMsg`] frames through the same
//! 9-byte §3 frame header the inter-node links use:
//!
//! * [`RpcMsg::Submit`] / [`RpcMsg::SubmitAck`] — submit one transaction on
//!   a priority [`Lane`]; the ack carries a typed [`SubmitStatus`]. **Every**
//!   outcome is client-visible: admission never sheds silently, it answers
//!   [`SubmitStatus::Busy`], [`SubmitStatus::Duplicate`],
//!   [`SubmitStatus::RateLimited`] or [`SubmitStatus::Syncing`] so the
//!   client can back off, skip, or fail over to another node.
//! * [`RpcMsg::Query`] / [`RpcMsg::QueryReply`] — read the node's definite
//!   (committed) tip.
//! * [`RpcMsg::Subscribe`] / [`RpcMsg::Event`] — commit notifications: after
//!   a subscribe, the server pushes one event per newly definite round.
//! * [`RpcMsg::Reject`] — the server's last word on a protocol violation
//!   (bad magic, oversized frame, undecodable payload) before it closes the
//!   connection, so a buggy client sees *why* instead of a silent hangup.
//!
//! The admission pipeline behind these verbs lives in `fireledger-core`'s
//! `admission` module; this module only defines the wire vocabulary
//! (WIRE_FORMAT.md §11) so every runtime shares one set of codecs.

use crate::codec::{CodecError, Reader, WireCodec};
use crate::ids::Round;

/// Hard cap on one [`RpcMsg::Submit`] payload. Far below the §3 frame cap:
/// a single client must not be able to park a 32 MiB allocation on a node
/// by opening a socket.
pub const MAX_RPC_PAYLOAD: usize = 1 << 20;

/// Priority lane a submission rides on. Under overload the admission
/// pipeline sheds lanes asymmetrically: bulk first, normal next, probe
/// last — so liveness probes still land while bulk traffic is pushed back.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Latency probes and health checks: tiny, rare, shed last.
    Probe,
    /// Interactive traffic: the default lane.
    Normal,
    /// Batch/backfill traffic: shed first under pressure.
    Bulk,
}

impl Lane {
    /// All lanes, in shed order (shed-last first).
    pub const ALL: [Lane; 3] = [Lane::Probe, Lane::Normal, Lane::Bulk];

    /// Stable index (0 = probe, 1 = normal, 2 = bulk) for per-lane tables.
    pub fn index(self) -> usize {
        match self {
            Lane::Probe => 0,
            Lane::Normal => 1,
            Lane::Bulk => 2,
        }
    }

    /// Lane name as it appears in reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Probe => "probe",
            Lane::Normal => "normal",
            Lane::Bulk => "bulk",
        }
    }
}

/// Outcome of one submission, carried by [`RpcMsg::SubmitAck`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitStatus {
    /// Admitted into the pool; `ticket` is the node-local admission ticket
    /// (monotonic per node, for debugging — commitment is observed through
    /// [`RpcMsg::Event`] / [`RpcMsg::Query`], not the ticket).
    Accepted {
        /// Node-local admission ticket.
        ticket: u64,
    },
    /// The node's admission queue is full (or the node is past its fault
    /// budget): retry after the hinted delay, with jitter.
    Busy {
        /// Server back-off hint in milliseconds.
        retry_after_ms: u32,
    },
    /// This `(client, seq)` was recently admitted or committed — the
    /// submission is a duplicate and needs no retry.
    Duplicate,
    /// The client exceeded its token-bucket rate: retry after the hinted
    /// delay.
    RateLimited {
        /// Server back-off hint in milliseconds.
        retry_after_ms: u32,
    },
    /// The node is catching up (state sync in progress) and will not accept
    /// work it could lose; submit to another node or retry later.
    Syncing,
}

impl SubmitStatus {
    /// True when the submission was admitted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, SubmitStatus::Accepted { .. })
    }

    /// The server's back-off hint, when the status carries one.
    pub fn retry_after_ms(&self) -> Option<u32> {
        match self {
            SubmitStatus::Busy { retry_after_ms }
            | SubmitStatus::RateLimited { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

/// Why a connection is being rejected (the payload of [`RpcMsg::Reject`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The frame header was malformed: wrong magic or wrong wire version.
    BadFrame,
    /// The frame length exceeded the cap ([`crate::MAX_FRAME_LEN`] on the
    /// link, [`MAX_RPC_PAYLOAD`] for a submit payload).
    Oversized,
    /// The frame payload failed to decode as an [`RpcMsg`].
    BadMessage,
    /// The listener's connection pool is full: the connection was refused
    /// at accept, before any request was read. Unlike the other reasons
    /// this one is not the client's fault — reconnecting after a back-off
    /// is the right response.
    Busy,
}

impl RejectReason {
    fn tag(self) -> u8 {
        match self {
            RejectReason::BadFrame => 1,
            RejectReason::Oversized => 2,
            RejectReason::BadMessage => 3,
            RejectReason::Busy => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        match tag {
            1 => Ok(RejectReason::BadFrame),
            2 => Ok(RejectReason::Oversized),
            3 => Ok(RejectReason::BadMessage),
            4 => Ok(RejectReason::Busy),
            tag => Err(CodecError::BadTag {
                what: "RejectReason",
                tag,
            }),
        }
    }
}

/// A client RPC message (WIRE_FORMAT.md §11).
#[derive(Clone, Debug, PartialEq)]
pub enum RpcMsg {
    /// Submit one transaction. `(client, seq)` is the client-assigned
    /// identity ([`crate::Transaction::id`]); resubmitting the same pair is
    /// idempotent (the dedup window answers [`SubmitStatus::Duplicate`]).
    Submit {
        /// Client identifier.
        client: u64,
        /// Client-local sequence number.
        seq: u64,
        /// Priority lane.
        lane: Lane,
        /// Opaque transaction payload (at most [`MAX_RPC_PAYLOAD`] bytes).
        payload: Vec<u8>,
    },
    /// The admission verdict for the `(client, seq)` submission.
    SubmitAck {
        /// Echo of the submission's client identifier.
        client: u64,
        /// Echo of the submission's sequence number.
        seq: u64,
        /// Typed admission outcome.
        status: SubmitStatus,
    },
    /// "How far does your definite prefix reach?"
    Query {
        /// Request nonce, echoed by [`RpcMsg::QueryReply`].
        req: u64,
    },
    /// Reply to [`RpcMsg::Query`].
    QueryReply {
        /// The query's nonce.
        req: u64,
        /// Number of definite (committed) rounds at this node.
        definite: Round,
    },
    /// Ask for commit notifications for rounds `>= from`.
    Subscribe {
        /// First round of interest.
        from: Round,
    },
    /// One commit notification: round `round` became definite carrying
    /// `tx_count` transactions.
    Event {
        /// The newly definite round.
        round: Round,
        /// Number of transactions in that round's block.
        tx_count: u32,
    },
    /// Typed protocol-violation notice, sent before the server closes the
    /// connection (never in reply to a well-formed message).
    Reject {
        /// Why the connection is being closed.
        reason: RejectReason,
    },
}

fn encode_status(status: &SubmitStatus, out: &mut Vec<u8>) {
    match status {
        SubmitStatus::Accepted { ticket } => {
            out.push(1);
            ticket.encode_to(out);
        }
        SubmitStatus::Busy { retry_after_ms } => {
            out.push(2);
            retry_after_ms.encode_to(out);
        }
        SubmitStatus::Duplicate => out.push(3),
        SubmitStatus::RateLimited { retry_after_ms } => {
            out.push(4);
            retry_after_ms.encode_to(out);
        }
        SubmitStatus::Syncing => out.push(5),
    }
}

fn decode_status(r: &mut Reader<'_>) -> Result<SubmitStatus, CodecError> {
    match r.u8()? {
        1 => Ok(SubmitStatus::Accepted { ticket: r.u64()? }),
        2 => Ok(SubmitStatus::Busy {
            retry_after_ms: r.u32()?,
        }),
        3 => Ok(SubmitStatus::Duplicate),
        4 => Ok(SubmitStatus::RateLimited {
            retry_after_ms: r.u32()?,
        }),
        5 => Ok(SubmitStatus::Syncing),
        tag => Err(CodecError::BadTag {
            what: "SubmitStatus",
            tag,
        }),
    }
}

fn status_len(status: &SubmitStatus) -> usize {
    1 + match status {
        SubmitStatus::Accepted { .. } => 8,
        SubmitStatus::Busy { .. } | SubmitStatus::RateLimited { .. } => 4,
        SubmitStatus::Duplicate | SubmitStatus::Syncing => 0,
    }
}

/// Layout per WIRE_FORMAT.md §11: a discriminant byte (`0x01` Submit through
/// `0x07` Reject) followed by the variant's fields in declaration order.
/// Lanes, statuses and reject reasons are one-byte sub-discriminants starting
/// at `0x01` (`0x00` stays reserved, like every enum in the format).
impl WireCodec for RpcMsg {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            RpcMsg::Submit {
                client,
                seq,
                lane,
                payload,
            } => {
                out.push(1);
                client.encode_to(out);
                seq.encode_to(out);
                out.push(lane.index() as u8 + 1);
                (payload.len() as u32).encode_to(out);
                out.extend_from_slice(payload);
            }
            RpcMsg::SubmitAck {
                client,
                seq,
                status,
            } => {
                out.push(2);
                client.encode_to(out);
                seq.encode_to(out);
                encode_status(status, out);
            }
            RpcMsg::Query { req } => {
                out.push(3);
                req.encode_to(out);
            }
            RpcMsg::QueryReply { req, definite } => {
                out.push(4);
                req.encode_to(out);
                definite.encode_to(out);
            }
            RpcMsg::Subscribe { from } => {
                out.push(5);
                from.encode_to(out);
            }
            RpcMsg::Event { round, tx_count } => {
                out.push(6);
                round.encode_to(out);
                tx_count.encode_to(out);
            }
            RpcMsg::Reject { reason } => {
                out.push(7);
                out.push(reason.tag());
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            1 => {
                let client = r.u64()?;
                let seq = r.u64()?;
                let lane = match r.u8()? {
                    1 => Lane::Probe,
                    2 => Lane::Normal,
                    3 => Lane::Bulk,
                    tag => return Err(CodecError::BadTag { what: "Lane", tag }),
                };
                let len = r.seq_len("RpcMsg::Submit payload")?;
                if len > MAX_RPC_PAYLOAD {
                    return Err(CodecError::BadLength {
                        what: "RpcMsg::Submit payload",
                        claimed: len as u64,
                        remaining: MAX_RPC_PAYLOAD,
                    });
                }
                let payload = r.take_bytes(len)?.as_slice().to_vec();
                Ok(RpcMsg::Submit {
                    client,
                    seq,
                    lane,
                    payload,
                })
            }
            2 => Ok(RpcMsg::SubmitAck {
                client: r.u64()?,
                seq: r.u64()?,
                status: decode_status(r)?,
            }),
            3 => Ok(RpcMsg::Query { req: r.u64()? }),
            4 => Ok(RpcMsg::QueryReply {
                req: r.u64()?,
                definite: Round::decode_from(r)?,
            }),
            5 => Ok(RpcMsg::Subscribe {
                from: Round::decode_from(r)?,
            }),
            6 => Ok(RpcMsg::Event {
                round: Round::decode_from(r)?,
                tx_count: r.u32()?,
            }),
            7 => Ok(RpcMsg::Reject {
                reason: RejectReason::from_tag(r.u8()?)?,
            }),
            tag => Err(CodecError::BadTag {
                what: "RpcMsg",
                tag,
            }),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            RpcMsg::Submit { payload, .. } => 8 + 8 + 1 + 4 + payload.len(),
            RpcMsg::SubmitAck { status, .. } => 8 + 8 + status_len(status),
            RpcMsg::Query { .. } => 8,
            RpcMsg::QueryReply { .. } => 8 + 8,
            RpcMsg::Subscribe { .. } => 8,
            RpcMsg::Event { .. } => 8 + 4,
            RpcMsg::Reject { .. } => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_rpc_msg() -> Vec<RpcMsg> {
        vec![
            RpcMsg::Submit {
                client: 7,
                seq: 1,
                lane: Lane::Normal,
                payload: vec![0xAA, 0xBB],
            },
            RpcMsg::Submit {
                client: 7,
                seq: 2,
                lane: Lane::Probe,
                payload: vec![],
            },
            RpcMsg::Submit {
                client: 7,
                seq: 3,
                lane: Lane::Bulk,
                payload: vec![1; 64],
            },
            RpcMsg::SubmitAck {
                client: 7,
                seq: 1,
                status: SubmitStatus::Accepted { ticket: 99 },
            },
            RpcMsg::SubmitAck {
                client: 7,
                seq: 2,
                status: SubmitStatus::Busy { retry_after_ms: 25 },
            },
            RpcMsg::SubmitAck {
                client: 7,
                seq: 3,
                status: SubmitStatus::Duplicate,
            },
            RpcMsg::SubmitAck {
                client: 7,
                seq: 4,
                status: SubmitStatus::RateLimited { retry_after_ms: 50 },
            },
            RpcMsg::SubmitAck {
                client: 7,
                seq: 5,
                status: SubmitStatus::Syncing,
            },
            RpcMsg::Query { req: 11 },
            RpcMsg::QueryReply {
                req: 11,
                definite: Round(4096),
            },
            RpcMsg::Subscribe { from: Round(10) },
            RpcMsg::Event {
                round: Round(10),
                tx_count: 3,
            },
            RpcMsg::Reject {
                reason: RejectReason::BadFrame,
            },
            RpcMsg::Reject {
                reason: RejectReason::Oversized,
            },
            RpcMsg::Reject {
                reason: RejectReason::BadMessage,
            },
        ]
    }

    #[test]
    fn codec_roundtrips_every_rpc_msg_variant() {
        for msg in every_rpc_msg() {
            let bytes = msg.encode();
            assert_eq!(bytes.len(), msg.encoded_len(), "{msg:?}");
            assert_eq!(RpcMsg::decode(&bytes).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn codec_rejects_unknown_discriminants() {
        assert!(matches!(
            RpcMsg::decode(&[0xEE]),
            Err(CodecError::BadTag { what: "RpcMsg", .. })
        ));
        // Unknown lane inside an otherwise well-formed submit.
        let mut bytes = vec![1u8];
        bytes.extend_from_slice(&7u64.to_be_bytes());
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.push(9); // no such lane
        assert!(matches!(
            RpcMsg::decode(&bytes),
            Err(CodecError::BadTag { what: "Lane", .. })
        ));
        // Unknown status inside an ack.
        let mut bytes = vec![2u8];
        bytes.extend_from_slice(&7u64.to_be_bytes());
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.push(0);
        assert!(matches!(
            RpcMsg::decode(&bytes),
            Err(CodecError::BadTag {
                what: "SubmitStatus",
                ..
            })
        ));
    }

    #[test]
    fn truncating_any_prefix_never_panics() {
        for msg in every_rpc_msg() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    RpcMsg::decode(&bytes[..cut]).is_err(),
                    "a {cut}-byte prefix of {msg:?} decoded"
                );
            }
        }
    }

    #[test]
    fn oversized_submit_payload_is_rejected_before_allocation() {
        // Claim a payload one byte past the cap; the decoder must refuse on
        // the declared length, not trust it and allocate.
        let mut bytes = vec![1u8];
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.push(2);
        bytes.extend_from_slice(&((MAX_RPC_PAYLOAD as u32 + 1).to_be_bytes()));
        // Even with the bytes actually present, the cap must hold.
        bytes.resize(bytes.len() + MAX_RPC_PAYLOAD + 1, 0);
        assert!(matches!(
            RpcMsg::decode(&bytes),
            Err(CodecError::BadLength { .. })
        ));
    }

    #[test]
    fn status_helpers_classify_outcomes() {
        assert!(SubmitStatus::Accepted { ticket: 1 }.is_accepted());
        assert!(!SubmitStatus::Duplicate.is_accepted());
        assert_eq!(
            SubmitStatus::Busy { retry_after_ms: 5 }.retry_after_ms(),
            Some(5)
        );
        assert_eq!(SubmitStatus::Syncing.retry_after_ms(), None);
    }

    #[test]
    fn lane_indices_are_stable_and_distinct() {
        let idx: Vec<usize> = Lane::ALL.iter().map(|l| l.index()).collect();
        assert_eq!(idx, vec![0, 1, 2]);
        assert_eq!(Lane::Probe.name(), "probe");
        assert_eq!(Lane::Normal.name(), "normal");
        assert_eq!(Lane::Bulk.name(), "bulk");
    }
}
