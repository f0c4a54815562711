//! Wire messages of the FireLedger protocol.
//!
//! One FireLedger worker instance exchanges [`WorkerMsg`]s; a FLO node runs ω
//! workers and tags each message with the worker it belongs to
//! ([`FloMsg`]). The message set mirrors the paper's communication pattern:
//!
//! * the **data path** ships block bodies ([`WorkerMsg::BlockData`]) as soon
//!   as they are assembled (§6.1.1, block/header separation);
//! * the **consensus path** ships signed headers — either pushed explicitly
//!   ([`WorkerMsg::Header`], the `full_mode` WRB-broadcast of Algorithm 2
//!   lines 6–11) or piggybacked on the next proposer's OBBC vote
//!   ([`WorkerMsg::Vote`], Figure 1);
//! * the optimistic path is the single-bit [`WorkerMsg::Vote`];
//! * pull messages recover a missed header or body from peers that voted to
//!   deliver it (Algorithm 1 lines 22–27);
//! * [`WorkerMsg::Panic`] wraps the reliable broadcast of Byzantine proofs
//!   (Algorithm 2 lines b6–b7);
//! * [`WorkerMsg::Consensus`] wraps the PBFT consensus layer used for the
//!   OBBC fallback and the recovery versions (Figure 3's BFT-SMaRt box).

use fireledger_bft::{PbftMsg, RbMsg};
use fireledger_types::codec::{CodecError, Reader, WireCodec};
use fireledger_types::{Hash, NodeId, Round, SignedHeader, SyncMsg, Transaction, WorkerId};

/// A proof that some proposer behaved inconsistently: a signed header that
/// does not extend the prover's chain, together with the prover's signed
/// header for the parent round (Algorithm 2 line b6).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PanicProof {
    /// The round at which the inconsistency was detected.
    pub detected_round: Round,
    /// The header that failed chain validation.
    pub conflicting: SignedHeader,
    /// The prover's own header for the preceding round (None at round 0).
    pub local_parent: Option<SignedHeader>,
}

/// Layout per WIRE_FORMAT.md §6.3:
/// `detected_round u64 | conflicting SignedHeader | local_parent Option<SignedHeader>`.
impl WireCodec for PanicProof {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.detected_round.encode_to(out);
        self.conflicting.encode_to(out);
        self.local_parent.encode_to(out);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PanicProof {
            detected_round: Round::decode_from(r)?,
            conflicting: SignedHeader::decode_from(r)?,
            local_parent: Option::<SignedHeader>::decode_from(r)?,
        })
    }

    fn encoded_len(&self) -> usize {
        8 + self.conflicting.encoded_len() + self.local_parent.encoded_len()
    }
}

/// Values submitted to the worker's BFT consensus layer (the BFT-SMaRt
/// stand-in): OBBC fallback votes and recovery versions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ConsensusValue {
    /// A vote submitted to the fallback consensus after the optimistic path
    /// failed (Algorithm 4 line OB19, realized through the ordering layer).
    FallbackVote {
        /// Round the vote refers to.
        round: Round,
        /// Proposer of the attempt the vote refers to.
        proposer: NodeId,
        /// The voting node.
        voter: NodeId,
        /// The vote (deliver / do not deliver).
        vote: bool,
        /// `evidence(1)`: the proposer's signed header, when the voter has it.
        evidence: Option<SignedHeader>,
    },
    /// A node's chain version submitted during recovery (Algorithm 3 line 8).
    RecoveryVersion {
        /// The round the recovery was invoked for.
        recovery_round: Round,
        /// The node submitting this version.
        from: NodeId,
        /// The suffix of signed headers starting at `recovery_round − (f+1)`;
        /// empty for nodes that are too far behind.
        version: Vec<SignedHeader>,
    },
}

/// Layout per WIRE_FORMAT.md §6.4: a discriminant byte (`0x01` FallbackVote,
/// `0x02` RecoveryVersion) followed by the variant's fields in declaration
/// order.
impl WireCodec for ConsensusValue {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            ConsensusValue::FallbackVote {
                round,
                proposer,
                voter,
                vote,
                evidence,
            } => {
                out.push(1);
                round.encode_to(out);
                proposer.encode_to(out);
                voter.encode_to(out);
                vote.encode_to(out);
                evidence.encode_to(out);
            }
            ConsensusValue::RecoveryVersion {
                recovery_round,
                from,
                version,
            } => {
                out.push(2);
                recovery_round.encode_to(out);
                from.encode_to(out);
                version.encode_to(out);
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            1 => Ok(ConsensusValue::FallbackVote {
                round: Round::decode_from(r)?,
                proposer: NodeId::decode_from(r)?,
                voter: NodeId::decode_from(r)?,
                vote: bool::decode_from(r)?,
                evidence: Option::<SignedHeader>::decode_from(r)?,
            }),
            2 => Ok(ConsensusValue::RecoveryVersion {
                recovery_round: Round::decode_from(r)?,
                from: NodeId::decode_from(r)?,
                version: Vec::<SignedHeader>::decode_from(r)?,
            }),
            tag => Err(CodecError::BadTag {
                what: "ConsensusValue",
                tag,
            }),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            ConsensusValue::FallbackVote { evidence, .. } => 8 + 4 + 4 + 1 + evidence.encoded_len(),
            ConsensusValue::RecoveryVersion { version, .. } => 8 + 4 + version.encoded_len(),
        }
    }
}

/// Wire messages exchanged between the worker-`w` instances of the cluster.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerMsg {
    /// Data path: a block body, disseminated as soon as it is assembled and
    /// referenced from headers by its payload (merkle) hash.
    BlockData {
        /// Merkle root of the transactions.
        payload_hash: Hash,
        /// The transactions themselves.
        txs: Vec<Transaction>,
    },
    /// Consensus path: explicit dissemination of a signed header (`full_mode`
    /// push, used at start-up and after a failed attempt).
    Header {
        /// The proposer-signed header.
        header: SignedHeader,
    },
    /// The single-bit optimistic vote of WRB/OBBC, optionally carrying the
    /// next proposer's piggybacked header (Figure 1).
    Vote {
        /// Round being voted on.
        round: Round,
        /// Proposer of the attempt being voted on.
        proposer: NodeId,
        /// The vote: deliver (`true`) or skip (`false`).
        vote: bool,
        /// The next round's header, piggybacked by its proposer.
        piggyback: Option<SignedHeader>,
    },
    /// Pull request for a header this node missed although it was decided
    /// (WRB pull phase).
    PullHeader {
        /// Round of the missing header.
        round: Round,
        /// Proposer whose header is requested.
        proposer: NodeId,
    },
    /// Reply to [`WorkerMsg::PullHeader`].
    PullHeaderReply {
        /// The requested header.
        header: SignedHeader,
    },
    /// Pull request for a block body this node missed.
    PullBlock {
        /// Payload hash identifying the body.
        payload_hash: Hash,
    },
    /// Reply to [`WorkerMsg::PullBlock`].
    PullBlockReply {
        /// Payload hash identifying the body.
        payload_hash: Hash,
        /// The transactions of the body.
        txs: Vec<Transaction>,
    },
    /// Reliable broadcast of Byzantine-behaviour proofs.
    Panic(RbMsg<PanicProof>),
    /// The BFT consensus layer (OBBC fallback + recovery ordering).
    Consensus(PbftMsg<ConsensusValue>),
    /// The state-sync sub-protocol: late-join / catch-up range fetch of the
    /// definite ledger prefix (WIRE_FORMAT.md §10).
    Sync(SyncMsg),
}

/// A worker message tagged with its FLO worker instance.
#[derive(Clone, Debug, PartialEq)]
pub struct FloMsg {
    /// The worker instance this message belongs to.
    pub worker: WorkerId,
    /// The worker-level message.
    pub inner: WorkerMsg,
}

/// Layout per WIRE_FORMAT.md §6.1: a discriminant byte (`0x01` BlockData
/// through `0x0A` Sync) followed by the variant's fields in declaration
/// order. Embedded sub-protocol messages ([`RbMsg`], [`PbftMsg`],
/// [`SyncMsg`]) use their own layouts from §5 and §10.
impl WireCodec for WorkerMsg {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            WorkerMsg::BlockData { payload_hash, txs } => {
                out.push(1);
                payload_hash.encode_to(out);
                txs.encode_to(out);
            }
            WorkerMsg::Header { header } => {
                out.push(2);
                header.encode_to(out);
            }
            WorkerMsg::Vote {
                round,
                proposer,
                vote,
                piggyback,
            } => {
                out.push(3);
                round.encode_to(out);
                proposer.encode_to(out);
                vote.encode_to(out);
                piggyback.encode_to(out);
            }
            WorkerMsg::PullHeader { round, proposer } => {
                out.push(4);
                round.encode_to(out);
                proposer.encode_to(out);
            }
            WorkerMsg::PullHeaderReply { header } => {
                out.push(5);
                header.encode_to(out);
            }
            WorkerMsg::PullBlock { payload_hash } => {
                out.push(6);
                payload_hash.encode_to(out);
            }
            WorkerMsg::PullBlockReply { payload_hash, txs } => {
                out.push(7);
                payload_hash.encode_to(out);
                txs.encode_to(out);
            }
            WorkerMsg::Panic(m) => {
                out.push(8);
                m.encode_to(out);
            }
            WorkerMsg::Consensus(m) => {
                out.push(9);
                m.encode_to(out);
            }
            WorkerMsg::Sync(m) => {
                out.push(10);
                m.encode_to(out);
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            1 => Ok(WorkerMsg::BlockData {
                payload_hash: Hash::decode_from(r)?,
                txs: Vec::<Transaction>::decode_from(r)?,
            }),
            2 => Ok(WorkerMsg::Header {
                header: SignedHeader::decode_from(r)?,
            }),
            3 => Ok(WorkerMsg::Vote {
                round: Round::decode_from(r)?,
                proposer: NodeId::decode_from(r)?,
                vote: bool::decode_from(r)?,
                piggyback: Option::<SignedHeader>::decode_from(r)?,
            }),
            4 => Ok(WorkerMsg::PullHeader {
                round: Round::decode_from(r)?,
                proposer: NodeId::decode_from(r)?,
            }),
            5 => Ok(WorkerMsg::PullHeaderReply {
                header: SignedHeader::decode_from(r)?,
            }),
            6 => Ok(WorkerMsg::PullBlock {
                payload_hash: Hash::decode_from(r)?,
            }),
            7 => Ok(WorkerMsg::PullBlockReply {
                payload_hash: Hash::decode_from(r)?,
                txs: Vec::<Transaction>::decode_from(r)?,
            }),
            8 => Ok(WorkerMsg::Panic(RbMsg::<PanicProof>::decode_from(r)?)),
            9 => Ok(WorkerMsg::Consensus(
                PbftMsg::<ConsensusValue>::decode_from(r)?,
            )),
            10 => Ok(WorkerMsg::Sync(SyncMsg::decode_from(r)?)),
            tag => Err(CodecError::BadTag {
                what: "WorkerMsg",
                tag,
            }),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            WorkerMsg::BlockData { txs, .. } => 32 + txs.encoded_len(),
            WorkerMsg::Header { header } => header.encoded_len(),
            WorkerMsg::Vote { piggyback, .. } => 8 + 4 + 1 + piggyback.encoded_len(),
            WorkerMsg::PullHeader { .. } => 8 + 4,
            WorkerMsg::PullHeaderReply { header } => header.encoded_len(),
            WorkerMsg::PullBlock { .. } => 32,
            WorkerMsg::PullBlockReply { txs, .. } => 32 + txs.encoded_len(),
            WorkerMsg::Panic(m) => m.encoded_len(),
            WorkerMsg::Consensus(m) => m.encoded_len(),
            WorkerMsg::Sync(m) => m.encoded_len(),
        }
    }
}

/// Layout per WIRE_FORMAT.md §6.2: `worker u32 | inner WorkerMsg`.
impl WireCodec for FloMsg {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.worker.encode_to(out);
        self.inner.encode_to(out);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(FloMsg {
            worker: WorkerId::decode_from(r)?,
            inner: WorkerMsg::decode_from(r)?,
        })
    }

    fn encoded_len(&self) -> usize {
        4 + self.inner.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireledger_types::{BlockHeader, Round, Signature, WorkerId, GENESIS_HASH};

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

    #[test]
    fn vote_without_piggyback_is_tiny() {
        let vote = WorkerMsg::Vote {
            round: Round(1),
            proposer: NodeId(0),
            vote: true,
            piggyback: None,
        };
        assert!(
            vote.encoded_len() < 20,
            "optimistic votes must stay near a single bit of protocol data"
        );
    }

    #[test]
    fn piggybacked_vote_costs_one_header() {
        let plain = WorkerMsg::Vote {
            round: Round(1),
            proposer: NodeId(0),
            vote: true,
            piggyback: None,
        };
        let piggy = WorkerMsg::Vote {
            round: Round(1),
            proposer: NodeId(0),
            vote: true,
            piggyback: Some(signed_header()),
        };
        assert_eq!(
            piggy.encoded_len() - plain.encoded_len(),
            signed_header().encoded_len()
        );
    }

    #[test]
    fn block_data_dominates_wire_cost() {
        let txs: Vec<Transaction> = (0..100).map(|i| Transaction::zeroed(0, i, 512)).collect();
        let data = WorkerMsg::BlockData {
            payload_hash: GENESIS_HASH,
            txs,
        };
        assert!(data.encoded_len() > 100 * 512);
        let header = WorkerMsg::Header {
            header: signed_header(),
        };
        assert!(data.encoded_len() > 100 * header.encoded_len());
    }

    #[test]
    fn consensus_value_sizes() {
        let vote = ConsensusValue::FallbackVote {
            round: Round(1),
            proposer: NodeId(0),
            voter: NodeId(2),
            vote: true,
            evidence: Some(signed_header()),
        };
        let version = ConsensusValue::RecoveryVersion {
            recovery_round: Round(9),
            from: NodeId(1),
            version: vec![signed_header(); 3],
        };
        assert!(version.encoded_len() > vote.encoded_len());
        assert!(vote.encoded_len() > 100);
    }

    #[test]
    fn panic_proof_size_includes_both_headers() {
        let proof = PanicProof {
            detected_round: Round(4),
            conflicting: signed_header(),
            local_parent: Some(signed_header()),
        };
        assert!(proof.encoded_len() > 2 * signed_header().encoded_len());
        let msg = WorkerMsg::Panic(RbMsg::Init {
            origin: NodeId(0),
            tag: 0,
            value: proof,
        });
        assert!(msg.encoded_len() > 300);
    }

    #[test]
    fn flo_wrapping_adds_worker_tag() {
        let inner = WorkerMsg::PullBlock {
            payload_hash: GENESIS_HASH,
        };
        let inner_size = inner.encoded_len();
        let flo = FloMsg {
            worker: WorkerId(3),
            inner,
        };
        assert_eq!(flo.encoded_len(), inner_size + 4);
    }

    /// One value of every [`WorkerMsg`] variant, exercising every nested
    /// message layout (panic RB, fallback consensus, recovery versions).
    fn every_worker_msg() -> Vec<WorkerMsg> {
        vec![
            WorkerMsg::BlockData {
                payload_hash: GENESIS_HASH,
                txs: vec![
                    Transaction::zeroed(1, 0, 64),
                    Transaction::new(2, 1, vec![7]),
                ],
            },
            WorkerMsg::Header {
                header: signed_header(),
            },
            WorkerMsg::Vote {
                round: Round(4),
                proposer: NodeId(1),
                vote: true,
                piggyback: Some(signed_header()),
            },
            WorkerMsg::Vote {
                round: Round(4),
                proposer: NodeId(1),
                vote: false,
                piggyback: None,
            },
            WorkerMsg::PullHeader {
                round: Round(9),
                proposer: NodeId(2),
            },
            WorkerMsg::PullHeaderReply {
                header: signed_header(),
            },
            WorkerMsg::PullBlock {
                payload_hash: GENESIS_HASH,
            },
            WorkerMsg::PullBlockReply {
                payload_hash: GENESIS_HASH,
                txs: vec![Transaction::zeroed(3, 3, 16)],
            },
            WorkerMsg::Panic(RbMsg::Echo {
                origin: NodeId(0),
                tag: 5,
                value: PanicProof {
                    detected_round: Round(4),
                    conflicting: signed_header(),
                    local_parent: Some(signed_header()),
                },
            }),
            WorkerMsg::Consensus(PbftMsg::PrePrepare {
                view: 1,
                seq: 2,
                value: ConsensusValue::FallbackVote {
                    round: Round(7),
                    proposer: NodeId(0),
                    voter: NodeId(1),
                    vote: true,
                    evidence: Some(signed_header()),
                },
            }),
            WorkerMsg::Consensus(PbftMsg::Request {
                value: ConsensusValue::RecoveryVersion {
                    recovery_round: Round(11),
                    from: NodeId(3),
                    version: vec![signed_header(); 2],
                },
            }),
            WorkerMsg::Sync(fireledger_types::SyncMsg::GetHeaders {
                req: 5,
                from: Round(100),
                to: Round(228),
            }),
            WorkerMsg::Sync(fireledger_types::SyncMsg::HeadersReply {
                req: 5,
                from: Round(100),
                headers: vec![signed_header(); 2],
            }),
        ]
    }

    #[test]
    fn codec_roundtrips_every_worker_msg_variant() {
        for msg in every_worker_msg() {
            let bytes = msg.encode();
            assert_eq!(WorkerMsg::decode(&bytes).unwrap(), msg, "{msg:?}");
            // And wrapped in the FLO worker tag.
            let flo = FloMsg {
                worker: WorkerId(5),
                inner: msg,
            };
            assert_eq!(FloMsg::decode(&flo.encode()).unwrap(), flo);
        }
    }

    #[test]
    fn codec_roundtrips_panic_proof_without_parent() {
        let proof = PanicProof {
            detected_round: Round(0),
            conflicting: signed_header(),
            local_parent: None,
        };
        assert_eq!(PanicProof::decode(&proof.encode()).unwrap(), proof);
    }

    #[test]
    fn codec_rejects_unknown_worker_msg_discriminants() {
        assert!(matches!(
            WorkerMsg::decode(&[0xEE]),
            Err(fireledger_types::CodecError::BadTag {
                what: "WorkerMsg",
                ..
            })
        ));
    }

    /// The worked example of WIRE_FORMAT.md §8, byte for byte: a framed
    /// `FloMsg` carrying a one-transaction FLO block body. If this test
    /// fails, either the implementation or the spec changed — update the
    /// other side and bump `WIRE_VERSION` if the change is incompatible.
    #[test]
    fn golden_frame_matches_wire_format_spec_section_8() {
        use fireledger_types::codec::FrameHeader;
        let msg = FloMsg {
            worker: WorkerId(0),
            inner: WorkerMsg::BlockData {
                payload_hash: fireledger_types::Hash([0x22; 32]),
                txs: vec![Transaction::new(1, 2, b"FIRE".as_slice())],
            },
        };
        let payload = msg.encode();
        let mut frame = FrameHeader::new(payload.len()).encode().to_vec();
        frame.extend_from_slice(&payload);

        let expected_hex = concat!(
            // Frame header: magic "FLGR", version 2, payload length 65.
            // (Version 2 added the optional execution root to canonical
            // header bytes — WIRE_FORMAT.md §12; body messages like this
            // one are unchanged apart from the version byte.)
            "464c4752",
            "02",
            "00000041",
            // FloMsg: worker 0.
            "00000000",
            // WorkerMsg discriminant 0x01 (BlockData).
            "01",
            // payload_hash: 32 bytes of 0x22.
            "2222222222222222222222222222222222222222222222222222222222222222",
            // txs: 1 element.
            "00000001",
            // Transaction: client 1, seq 2, payload "FIRE".
            "0000000000000001",
            "0000000000000002",
            "00000004",
            "46495245",
        );
        let got_hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(got_hex, expected_hex);
        // And the spec'd bytes decode back to the message.
        assert_eq!(FloMsg::decode(&payload).unwrap(), msg);
    }

    #[test]
    fn truncating_any_prefix_never_panics() {
        // Defensive decoding: every truncation of a real message must fail
        // cleanly (no panic, no bogus success of the *same* byte meaning).
        for msg in every_worker_msg() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                let _ = WorkerMsg::decode(&bytes[..cut]);
            }
        }
    }
}
