//! Contract tests for the `WireCodec` size-hint / buffer-reuse API.
//!
//! Every protocol message of all four protocols must satisfy, for every
//! variant:
//!
//! * `encoded_len()` returns exactly the number of bytes `encode_to`
//!   appends (the hint the framing layer sizes buffers with);
//! * `encode_into` through a **reused, dirty** scratch buffer produces the
//!   same bytes as a fresh `encode()` — buffer reuse must never change the
//!   wire format;
//! * the bytes decode back to the original value.
//!
//! Plus the golden-hex anchor: the worked example of `docs/WIRE_FORMAT.md`
//! §8 must come out byte-for-byte unchanged through the *new* buffer-reuse
//! path, proving the optimisations did not move a single wire bit.
//!
//! And one size model: the simulator charges every copy of a message
//! `framed_len` bytes, which must be exactly the frame the socket runtime
//! writes for it.

use fireledger::{ConsensusValue, FloMsg, PanicProof, WorkerMsg};
use fireledger_baselines::hotstuff::QuorumCert;
use fireledger_baselines::{HotStuffMsg, OrderedBatch};
use fireledger_bft::{PbftMsg, RbMsg};
use fireledger_net::frame::write_frame;
use fireledger_sim::{SimConfig, Simulation};
use fireledger_store::{decode_footer, encode_footer, encode_record, scan_records, REC_BLOCK};
use fireledger_types::codec::{FrameHeader, FRAME_HEADER_LEN};
use fireledger_types::rpc::{Lane, RejectReason, RpcMsg, SubmitStatus};
use fireledger_types::{
    framed_len, BlockHeader, Bytes, CodecError, Hash, NodeId, Outbox, Protocol, Receipt, Round,
    Signature, SignedHeader, StoredBlock, SyncMsg, TimerId, Transaction, TxOp, WalRecord,
    WireCodec, WorkerId, GENESIS_HASH,
};
use std::fmt::Debug;
use std::time::Duration;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn signed_header() -> SignedHeader {
    SignedHeader::new(
        BlockHeader::new(
            Round(3),
            WorkerId(1),
            NodeId(2),
            Hash([0x11; 32]),
            Hash([0x22; 32]),
            10,
            5120,
        ),
        Signature::from(vec![0x55u8; 64]),
    )
}

fn txs() -> Vec<Transaction> {
    vec![
        Transaction::zeroed(1, 0, 64),
        Transaction::new(2, 1, vec![7, 8, 9]),
        Transaction::new(3, 2, Vec::new()),
    ]
}

/// The codec contract, checked through one shared dirty scratch buffer so
/// reuse across *different* message types and sizes is exercised too.
fn assert_codec_contract<T: WireCodec + PartialEq + Debug>(value: &T, scratch: &mut Vec<u8>) {
    let fresh = value.encode();
    assert_eq!(
        fresh.len(),
        value.encoded_len(),
        "encoded_len mismatch for {value:?}"
    );
    value.encode_into(scratch);
    assert_eq!(
        *scratch, fresh,
        "encode_into diverged from encode for {value:?}"
    );
    let back = T::decode(&fresh).expect("roundtrip decode");
    assert_eq!(back, *value, "roundtrip changed the value");
    // The zero-copy path (views into a shared backing buffer) must produce
    // a value equal to both the copying decode and the original.
    let backing = fireledger_types::Bytes::from(fresh);
    let shared = T::decode_shared(&backing).expect("shared decode");
    assert_eq!(shared, *value, "decode_shared changed the value");
}

fn every_worker_msg() -> Vec<WorkerMsg> {
    vec![
        WorkerMsg::BlockData {
            payload_hash: Hash([0xAB; 32]),
            txs: txs(),
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
            txs: txs(),
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
        WorkerMsg::Consensus(PbftMsg::ViewChange {
            new_view: 3,
            prepared: vec![(
                9,
                ConsensusValue::RecoveryVersion {
                    recovery_round: Round(11),
                    from: NodeId(3),
                    version: vec![signed_header(); 2],
                },
            )],
        }),
    ]
}

#[test]
fn flo_messages_satisfy_the_codec_contract() {
    let mut scratch = vec![0xFFu8; 7]; // deliberately dirty and missized
    for msg in every_worker_msg() {
        assert_codec_contract(&msg, &mut scratch);
        assert_codec_contract(
            &FloMsg {
                worker: WorkerId(5),
                inner: msg,
            },
            &mut scratch,
        );
    }
}

#[test]
fn bft_messages_satisfy_the_codec_contract() {
    let mut scratch = Vec::new();
    for msg in [
        RbMsg::Init {
            origin: NodeId(0),
            tag: 1,
            value: 42u64,
        },
        RbMsg::Echo {
            origin: NodeId(1),
            tag: 2,
            value: 43u64,
        },
        RbMsg::Ready {
            origin: NodeId(2),
            tag: 3,
            value: 44u64,
        },
    ] {
        assert_codec_contract(&msg, &mut scratch);
    }
    for msg in [
        PbftMsg::Request { value: 7u64 },
        PbftMsg::PrePrepare {
            view: 1,
            seq: 2,
            value: 7u64,
        },
        PbftMsg::Prepare {
            view: 1,
            seq: 2,
            digest: 3,
        },
        PbftMsg::Commit {
            view: 1,
            seq: 2,
            digest: 3,
        },
        PbftMsg::ViewChange {
            new_view: 2,
            prepared: vec![(1, 7u64), (2, 8u64)],
        },
        PbftMsg::NewView {
            view: 2,
            preprepares: vec![(3, 9u64)],
        },
    ] {
        assert_codec_contract(&msg, &mut scratch);
    }
}

fn quorum_cert() -> QuorumCert {
    QuorumCert {
        view: 4,
        block_hash: Hash([0x77; 32]),
    }
}

fn every_hotstuff_msg() -> Vec<HotStuffMsg> {
    vec![
        HotStuffMsg::Proposal {
            view: 5,
            header: signed_header(),
            txs: txs(),
            justify: quorum_cert(),
        },
        HotStuffMsg::Vote {
            view: 5,
            block_hash: Hash([0x66; 32]),
        },
        HotStuffMsg::NewView {
            view: 6,
            high_qc: quorum_cert(),
        },
    ]
}

fn ordered_batch() -> OrderedBatch {
    OrderedBatch {
        assembler: NodeId(2),
        seq: 17,
        txs: txs(),
    }
}

/// What a BFT-SMaRt node sends: PBFT messages whose value is a batch.
fn every_bftsmart_msg() -> Vec<PbftMsg<OrderedBatch>> {
    vec![
        PbftMsg::Request {
            value: ordered_batch(),
        },
        PbftMsg::PrePrepare {
            view: 1,
            seq: 2,
            value: ordered_batch(),
        },
        PbftMsg::Prepare {
            view: 1,
            seq: 2,
            digest: 3,
        },
        PbftMsg::Commit {
            view: 1,
            seq: 2,
            digest: 3,
        },
        PbftMsg::ViewChange {
            new_view: 2,
            prepared: vec![(1, ordered_batch())],
        },
        PbftMsg::NewView {
            view: 2,
            preprepares: vec![(3, ordered_batch())],
        },
    ]
}

#[test]
fn baseline_messages_satisfy_the_codec_contract() {
    let mut scratch = Vec::new();
    assert_codec_contract(&quorum_cert(), &mut scratch);
    for msg in every_hotstuff_msg() {
        assert_codec_contract(&msg, &mut scratch);
    }
    assert_codec_contract(&ordered_batch(), &mut scratch);
    for msg in every_bftsmart_msg() {
        assert_codec_contract(&msg, &mut scratch);
    }
}

fn every_sync_msg() -> Vec<SyncMsg> {
    vec![
        SyncMsg::TipProbe { req: 7 },
        SyncMsg::TipReply {
            req: 7,
            definite: Round(4096),
        },
        SyncMsg::GetHeaders {
            req: 8,
            from: Round(16),
            to: Round(32),
        },
        SyncMsg::HeadersReply {
            req: 8,
            from: Round(16),
            headers: vec![signed_header()],
        },
        SyncMsg::GetBlocks {
            req: 9,
            from: Round(16),
            to: Round(20),
        },
        SyncMsg::BlocksReply {
            req: 9,
            from: Round(16),
            bodies: vec![vec![Transaction::new(1, 2, b"FIRE".as_slice())]],
        },
    ]
}

#[test]
fn sync_messages_satisfy_the_codec_contract() {
    let mut scratch = vec![0xFFu8; 11]; // deliberately dirty and missized
    for msg in every_sync_msg() {
        assert_codec_contract(&msg, &mut scratch);
        // And wrapped the way they actually travel: WorkerMsg::Sync inside
        // FloMsg through the §3 framing.
        assert_codec_contract(&WorkerMsg::Sync(msg.clone()), &mut scratch);
        assert_codec_contract(
            &FloMsg {
                worker: WorkerId(3),
                inner: WorkerMsg::Sync(msg),
            },
            &mut scratch,
        );
    }
}

/// Truncation and bad-tag robustness: every strict prefix of every encoded
/// `SyncMsg` fails to decode (field counts are declared up front, so a cut
/// anywhere is detectable), and an unknown discriminant reports `BadTag`
/// rather than misparsing the bytes that follow.
#[test]
fn sync_message_decode_rejects_truncation_and_bad_tags() {
    for msg in every_sync_msg() {
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            assert!(
                SyncMsg::decode(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix of {msg:?} decoded"
            );
        }
    }
    for tag in [0u8, 7, 0x5C, 0xFF] {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&7u64.to_be_bytes());
        match SyncMsg::decode(&bytes) {
            Err(CodecError::BadTag { what, tag: got }) => {
                assert_eq!(what, "SyncMsg");
                assert_eq!(got, tag);
            }
            other => panic!("tag {tag} produced {other:?}"),
        }
    }
}

/// The golden encodings of WIRE_FORMAT.md §10.1 — one per `SyncMsg`
/// variant, plus the §6.1 `WorkerMsg::Sync` wrapping. If this test fails,
/// the sync wire format changed: that requires a `WIRE_VERSION` bump and a
/// spec update, never a silent change (a late joiner must be able to fetch
/// from peers running an older build).
#[test]
fn golden_sync_messages_of_wire_format_section_10_are_unchanged() {
    let expected = [
        "010000000000000007",
        "0200000000000000070000000000001000",
        "03000000000000000800000000000000100000000000000020",
        concat!(
            "040000000000000008000000000000001000000001",
            "00000000000000030000000100000002",
            "1111111111111111111111111111111111111111111111111111111111111111",
            "2222222222222222222222222222222222222222222222222222222222222222",
            "0000000a",
            "0000000000001400",
            "00", // exec_root absent (presence byte, wire version 2 — §12)
            "00000040",
            "5555555555555555555555555555555555555555555555555555555555555555",
            "5555555555555555555555555555555555555555555555555555555555555555",
        ),
        "05000000000000000900000000000000100000000000000014",
        concat!(
            "060000000000000009000000000000001000000001",
            "00000001",
            "0000000000000001",
            "0000000000000002",
            "00000004",
            "46495245",
        ),
    ];
    for (msg, want) in every_sync_msg().iter().zip(expected) {
        assert_eq!(hex(&msg.encode()), want, "golden moved for {msg:?}");
    }
    assert_eq!(
        hex(&WorkerMsg::Sync(SyncMsg::TipProbe { req: 7 }).encode()),
        "0a010000000000000007",
        "WorkerMsg::Sync discriminant moved"
    );
}

/// The worked example of WIRE_FORMAT.md §8 — through the buffer-reuse path.
/// These bytes are the normative anchor: if this test fails, the hot-path
/// optimisations changed the wire format, which is a bug (or requires a
/// `WIRE_VERSION` bump and a spec update).
#[test]
fn golden_frame_of_wire_format_section_8_is_unchanged() {
    let msg = FloMsg {
        worker: WorkerId(0),
        inner: WorkerMsg::BlockData {
            payload_hash: Hash([0x22; 32]),
            txs: vec![Transaction::new(1, 2, b"FIRE".as_slice())],
        },
    };
    // Encode through the reused-buffer path.
    let mut payload = vec![0xEEu8; 100];
    msg.encode_into(&mut payload);
    assert_eq!(payload.len(), msg.encoded_len());

    let mut frame = FrameHeader::new(payload.len()).encode().to_vec();
    frame.extend_from_slice(&payload);
    let got_hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
    let expected_hex = concat!(
        "464c4752",
        "02", // wire version 2: headers gained an optional exec_root (§12)
        "00000041",
        "00000000",
        "01",
        "2222222222222222222222222222222222222222222222222222222222222222",
        "00000001",
        "0000000000000001",
        "0000000000000002",
        "00000004",
        "46495245",
    );
    assert_eq!(got_hex, expected_hex);
    assert_eq!(FloMsg::decode(&payload).unwrap(), msg);
}

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
            payload: Vec::new(),
        },
        RpcMsg::Submit {
            client: 7,
            seq: 3,
            lane: Lane::Bulk,
            payload: vec![0x46, 0x49, 0x52, 0x45],
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
        RpcMsg::Reject {
            reason: RejectReason::Busy,
        },
    ]
}

#[test]
fn rpc_msgs_satisfy_the_codec_contract() {
    let mut scratch = vec![0xEEu8; 48];
    for msg in every_rpc_msg() {
        assert_codec_contract(&msg, &mut scratch);
    }
}

/// The golden encodings of WIRE_FORMAT.md §11 — one per `RpcMsg` variant
/// (every `SubmitStatus` and `RejectReason` included), plus the §3 framing
/// of the worked submit example. The client RPC port is the one place
/// where *software we do not ship* speaks our wire format, so these bytes
/// are load-bearing for third-party clients: a failure here means the
/// ingress format moved, which requires a `WIRE_VERSION` bump and a spec
/// update, never a silent change.
#[test]
fn golden_rpc_messages_of_wire_format_section_11_are_unchanged() {
    let expected = [
        concat!(
            "01",
            "0000000000000007",
            "0000000000000001",
            "02",
            "00000002",
            "aabb"
        ),
        concat!(
            "01",
            "0000000000000007",
            "0000000000000002",
            "01",
            "00000000"
        ),
        concat!(
            "01",
            "0000000000000007",
            "0000000000000003",
            "03",
            "00000004",
            "46495245"
        ),
        concat!(
            "02",
            "0000000000000007",
            "0000000000000001",
            "01",
            "0000000000000063"
        ),
        concat!(
            "02",
            "0000000000000007",
            "0000000000000002",
            "02",
            "00000019"
        ),
        concat!("02", "0000000000000007", "0000000000000003", "03"),
        concat!(
            "02",
            "0000000000000007",
            "0000000000000004",
            "04",
            "00000032"
        ),
        concat!("02", "0000000000000007", "0000000000000005", "05"),
        concat!("03", "000000000000000b"),
        concat!("04", "000000000000000b", "0000000000001000"),
        concat!("05", "000000000000000a"),
        concat!("06", "000000000000000a", "00000003"),
        "0701",
        "0702",
        "0703",
        "0704",
    ];
    for (msg, want) in every_rpc_msg().iter().zip(expected) {
        assert_eq!(hex(&msg.encode()), want, "golden moved for {msg:?}");
    }
    // The framed submit of §11.1: the same 9-byte §3 header the inter-node
    // links use, wrapping the worked `Submit` example.
    let submit = &every_rpc_msg()[0];
    let payload = submit.encode();
    let mut frame = FrameHeader::new(payload.len()).encode().to_vec();
    frame.extend_from_slice(&payload);
    assert_eq!(
        hex(&frame),
        concat!(
            "464c4752",
            "02", // wire version 2 (§12); RPC payload bytes are unchanged
            "00000018",
            "01",
            "0000000000000007",
            "0000000000000001",
            "02",
            "00000002",
            "aabb",
        )
    );
}

/// The worked examples of WIRE_FORMAT.md §9 — the durable store's on-disk
/// framing. Pins three goldens byte-for-byte: a framed consensus-WAL vote
/// record, a framed block-log record, and a sealed-segment footer. If this
/// test fails, the on-disk format changed and every ledger written by an
/// earlier build becomes unreadable — that requires a §9 spec update and a
/// migration story, never a silent change.
#[test]
fn golden_store_records_of_wire_format_section_9_are_unchanged() {
    // §9.3 — consensus-WAL vote entry, framed as a store record. The vote
    // is persisted before broadcast; this exact byte string is what lands
    // on disk for "worker 0 voted yes on node 2's round-3 block".
    let vote = WalRecord::Vote {
        worker: WorkerId(0),
        round: Round(3),
        proposer: NodeId(2),
        vote: true,
    };
    let wal_frame = encode_record(vote.kind(), &vote.encode_payload());
    let expected_wal_hex = concat!(
        "464c5352",         // record magic "FLSR"
        "11",               // kind WAL_VOTE
        "00000011",         // payload len = 17
        "14a25522",         // CRC-32 over kind ‖ len ‖ payload
        "00000000",         // worker 0
        "0000000000000003", // round 3
        "00000002",         // proposer node 2
        "01",               // vote = true
    );
    assert_eq!(hex(&wal_frame), expected_wal_hex);

    // §9.2 — block-log entry: one definite block of worker 0, carrying the
    // §8 fixture header and a single "FIRE" transaction.
    let block = StoredBlock {
        worker: WorkerId(0),
        signed_header: signed_header(),
        txs: vec![Transaction::new(1, 2, b"FIRE".as_slice())],
    };
    let block_frame = encode_record(REC_BLOCK, &block.encode());
    let expected_block_hex = concat!(
        "464c5352",                                                         // record magic "FLSR"
        "01",                                                               // kind REC_BLOCK
        "000000c1",                                                         // payload len = 193
        "e21ba261",         // CRC-32 over kind ‖ len ‖ payload
        "00000000",         // worker 0
        "0000000000000003", // header: round 3
        "00000001",         // header: worker 1
        "00000002",         // header: proposer 2
        "1111111111111111111111111111111111111111111111111111111111111111", // parent
        "2222222222222222222222222222222222222222222222222222222222222222", // payload hash
        "0000000a",         // header: tx_count 10
        "0000000000001400", // header: payload_bytes 5120
        "00",               // exec_root absent (presence byte, wire v2 — §12)
        "00000040",         // signature length 64
        "5555555555555555555555555555555555555555555555555555555555555555",
        "5555555555555555555555555555555555555555555555555555555555555555", // signature
        "00000001",                                                         // tx count 1
        "0000000000000001",                                                 // tx client 1
        "0000000000000002",                                                 // tx seq 2
        "00000004",                                                         // tx payload len
        "46495245",                                                         // "FIRE"
    );
    assert_eq!(hex(&block_frame), expected_block_hex);

    // §9.4 — sealed-segment footer indexing two records at offsets 0 and 30
    // (30 is exactly the framed WAL vote record's length: 13-byte header +
    // 17-byte payload).
    assert_eq!(wal_frame.len(), 30);
    let footer = encode_footer(&[0, 30]);
    let expected_footer_hex = concat!(
        "0000000000000000", // offset[0] = 0
        "000000000000001e", // offset[1] = 30
        "00000002",         // count = 2
        "3e0bd342",         // CRC-32 over offsets ‖ count
        "464c5346",         // footer magic "FLSF"
    );
    assert_eq!(hex(&footer), expected_footer_hex);

    // Every golden must also roundtrip through the recovery path: the two
    // records concatenated scan back losslessly, and the footer decodes to
    // the same offsets with the record region ending where it began.
    let mut segment = wal_frame.clone();
    segment.extend_from_slice(&block_frame);
    let (records, valid) = scan_records(&segment);
    assert_eq!(valid, segment.len());
    assert_eq!(records.len(), 2);
    assert_eq!(
        WalRecord::decode_record(records[0].0, &records[0].1).unwrap(),
        vote
    );
    assert_eq!(records[1].0, REC_BLOCK);
    assert_eq!(StoredBlock::decode(&records[1].1).unwrap(), block);

    let mut sealed = segment.clone();
    sealed.extend_from_slice(&footer);
    let (offsets, region) = decode_footer(&sealed).expect("footer decodes");
    assert_eq!(offsets, vec![0, 30]);
    assert_eq!(region, segment.len());
}

/// The golden encodings of WIRE_FORMAT.md §12.1 (executable transaction
/// payloads) and §12.2 (receipts). Executable payloads are interpreted by
/// every replica's execution stage, so a silent layout change would make
/// replicas disagree about what a committed ledger *means* — the worst kind
/// of fork. A failure here requires a §12 spec update and a `WIRE_VERSION`
/// bump, never a silent change.
#[test]
fn golden_exec_payloads_of_wire_format_section_12_are_unchanged() {
    let ops: Vec<(TxOp, &str)> = vec![
        (
            TxOp::CreateAccount {
                account: 7,
                balance: 1000,
            },
            "ec00000000000000000700000000000003e8",
        ),
        (
            TxOp::Transfer {
                from: 7,
                to: 9,
                amount: 50,
                nonce: 0,
            },
            concat!(
                "ec01",
                "0000000000000007",
                "0000000000000009",
                "0000000000000032",
                "0000000000000000",
            ),
        ),
        (
            TxOp::KvPut {
                key: 3,
                value: Bytes::from(vec![1, 2, 3]),
            },
            "ec02000000000000000300000003010203",
        ),
        (TxOp::KvDelete { key: 3 }, "ec030000000000000003"),
        (
            TxOp::Cas {
                key: 4,
                expect: None,
                swap: Bytes::from(vec![9]),
            },
            "ec040000000000000004000000000109",
        ),
        (
            TxOp::Cas {
                key: 4,
                expect: Some(Bytes::from(vec![9])),
                swap: Bytes::from(vec![8, 8]),
            },
            "ec040000000000000004010000000109000000020808",
        ),
    ];
    for (op, want) in &ops {
        assert_eq!(
            hex(&op.encode_payload()),
            *want,
            "§12.1 golden moved for {op:?}"
        );
        // And the payload classifies back to exactly this op.
        assert_eq!(
            fireledger_types::TxOp::classify_payload(&op.encode_payload()),
            fireledger_types::DecodedOp::Op(op.clone()),
        );
    }

    let receipts: Vec<(Receipt, &str)> = vec![
        (Receipt::Applied, "00"),
        (
            Receipt::InsufficientFunds {
                balance: 1,
                needed: 2,
            },
            "0100000000000000010000000000000002",
        ),
        (
            Receipt::BadNonce {
                expected: 3,
                got: 4,
            },
            "0200000000000000030000000000000004",
        ),
        (Receipt::UnknownAccount { account: 5 }, "030000000000000005"),
        (Receipt::AccountExists { account: 6 }, "040000000000000006"),
        (Receipt::CasMismatch, "05"),
        (Receipt::Opaque, "06"),
        (Receipt::Malformed, "07"),
    ];
    for (receipt, want) in &receipts {
        assert_eq!(
            hex(&receipt.encode()),
            *want,
            "§12.2 golden moved for {receipt:?}"
        );
    }

    // Both layouts also satisfy the reuse/roundtrip contract.
    let mut scratch = vec![0xEEu8; 5];
    for (op, _) in &ops {
        assert_codec_contract(op, &mut scratch);
    }
    for (receipt, _) in &receipts {
        assert_codec_contract(receipt, &mut scratch);
    }
}

/// §4.5 / §12.3: the canonical header bytes — the signing pre-image — with
/// the execution root absent (93 bytes) and present (125 bytes), pinned
/// byte for byte. The presence byte is always encoded, so a version-1
/// 92-byte header can never be confused with either form.
#[test]
fn canonical_bytes_with_exec_root_are_pinned() {
    let bare = signed_header().header;
    let with_root = bare.clone().with_exec_root(Hash([0x33; 32]));

    let fixed92 = concat!(
        "0000000000000003",
        "00000001",
        "00000002",
        "1111111111111111111111111111111111111111111111111111111111111111",
        "2222222222222222222222222222222222222222222222222222222222222222",
        "0000000a",
        "0000000000001400",
    );
    assert_eq!(bare.canonical_bytes().as_ref().len(), 93);
    assert_eq!(hex(bare.canonical_bytes().as_ref()), format!("{fixed92}00"));
    assert_eq!(with_root.canonical_bytes().as_ref().len(), 125);
    assert_eq!(
        hex(with_root.canonical_bytes().as_ref()),
        format!("{fixed92}01{}", "33".repeat(32)),
    );
    // The wire encoding IS the canonical form, for both shapes.
    assert_eq!(bare.encode(), bare.canonical_bytes().as_ref());
    assert_eq!(with_root.encode(), with_root.canonical_bytes().as_ref());
}

/// §12.3: the state-root definition itself, pinned as four roots. The
/// definition is not a byte layout (`exec_root` stays an `Option<Hash>`),
/// so nothing else in this file would notice it drift — but replicas that
/// disagree on it fork their `exec_root`s.
#[test]
fn state_roots_of_wire_format_section_12_3_are_pinned() {
    use fireledger_exec::StateMachine;
    use fireledger_types::TxOp;

    let root = |state: &StateMachine| {
        // The incremental and the from-scratch path are one definition.
        let pool = fireledger_crypto::CryptoPool::inline(
            fireledger_crypto::SimKeyStore::generate(4, 0).shared(),
        );
        let root = state.root_with_pool(&pool, &mut Vec::new(), &mut Vec::new());
        assert_eq!(root, state.root_serial());
        root.to_string()
    };

    let mut state = StateMachine::new();
    assert_eq!(root(&state), "00".repeat(32), "empty state");

    state = StateMachine::with_genesis(4, 100);
    let genesis = root(&state);
    assert_eq!(
        genesis, "898929a670e396b20cec6205be5dc15c11f77efd6bd938c4e665981c8e447248",
        "with_genesis(4, 100)"
    );

    // The same numeric key as account 4 would have, in the KV namespace.
    state.apply_op(&TxOp::KvPut {
        key: 4,
        value: Bytes::from(vec![0x09]),
    });
    assert_eq!(
        root(&state),
        "5d6291cb9b015a24b6c0fd0284f934cde117e1682ac637e370a70b9ac5bdc9bf",
        "genesis + KvPut(key 4, value 09)"
    );

    state.apply_op(&TxOp::KvDelete { key: 4 });
    assert_eq!(root(&state), genesis, "a deleted entry leaves no trace");
}

/// The simulator charges a copy `framed_len` bytes; the frame layer writes
/// the §3 header and then the encoded payload. The two counts must agree.
fn assert_charged_as_framed<T: WireCodec + Debug>(msg: &T) {
    let payload = msg.encode();
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).expect("write to a Vec");
    assert_eq!(frame.len(), FRAME_HEADER_LEN + payload.len());
    assert_eq!(
        framed_len(msg),
        frame.len(),
        "simulated charge differs from the frame bytes for {msg:?}"
    );
}

#[test]
fn the_simulator_charges_every_message_the_bytes_its_frame_takes() {
    for msg in every_worker_msg() {
        assert_charged_as_framed(&msg);
        assert_charged_as_framed(&FloMsg {
            worker: WorkerId(1),
            inner: msg,
        });
    }
    for msg in every_hotstuff_msg() {
        assert_charged_as_framed(&msg);
    }
    for msg in every_bftsmart_msg() {
        assert_charged_as_framed(&msg);
    }
    for msg in every_sync_msg() {
        assert_charged_as_framed(&msg);
        assert_charged_as_framed(&FloMsg {
            worker: WorkerId(0),
            inner: WorkerMsg::Sync(msg),
        });
    }
    for msg in every_rpc_msg() {
        assert_charged_as_framed(&msg);
    }
}

/// Node 0 broadcasts one FLO message on start; nobody else sends.
struct OneBroadcast {
    id: NodeId,
    msg: FloMsg,
}

impl Protocol for OneBroadcast {
    type Msg = FloMsg;
    fn node_id(&self) -> NodeId {
        self.id
    }
    fn on_start(&mut self, out: &mut Outbox<FloMsg>) {
        if self.id == NodeId(0) {
            out.broadcast(self.msg.clone());
        }
    }
    fn on_message(&mut self, _from: NodeId, _msg: FloMsg, _out: &mut Outbox<FloMsg>) {}
    fn on_timer(&mut self, _timer: TimerId, _out: &mut Outbox<FloMsg>) {}
}

#[test]
fn a_simulated_broadcast_costs_one_frame_per_peer() {
    let msg = FloMsg {
        worker: WorkerId(0),
        inner: WorkerMsg::Header {
            header: signed_header(),
        },
    };
    let nodes = (0..4)
        .map(|i| OneBroadcast {
            id: NodeId(i),
            msg: msg.clone(),
        })
        .collect();
    let mut sim = Simulation::new(SimConfig::single_dc(), nodes);
    sim.run_for(Duration::from_millis(50));
    let sent = &sim.metrics().node_counters()[0];
    assert_eq!(sent.msgs_sent, 3);
    assert_eq!(sent.bytes_sent, 3 * framed_len(&msg) as u64);
}
