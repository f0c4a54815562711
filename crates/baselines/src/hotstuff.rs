//! Chained HotStuff (Yin et al., 2019) — the baseline of Figure 16.
//!
//! The implementation follows the chained ("pipelined") variant with a
//! rotating leader:
//!
//! * the leader of view `v` broadcasts a proposal extending the highest known
//!   quorum certificate (QC);
//! * every replica validates the proposal, **signs** a vote and sends it to
//!   the leader of view `v + 1`;
//! * that leader aggregates `n − f` votes into a QC and proposes the next
//!   block on top of it;
//! * a block becomes committed under the three-chain rule: when it is the
//!   start of three blocks in consecutive views each certified by a QC
//!   (transaction finality of three rounds, as the paper notes in §7.6);
//! * a pacemaker timeout sends a new-view message (carrying the highest QC)
//!   to the next leader so a crashed leader is skipped.
//!
//! The CPU accounting mirrors the paper's argument for FireLedger's
//! advantage: every replica signs every block here, whereas FireLedger's
//! optimistic path needs only the proposer's signature. Signature aggregation
//! keeps HotStuff's *communication* linear: a QC is constant-size on the
//! wire. It travels as its view and block hash only (WIRE_FORMAT.md §7.1);
//! the vote signatures behind it are charged as CPU, not as bytes.

use fireledger_crypto::{merkle_root, SharedCrypto};
use fireledger_types::codec::{CodecError, Reader, WireCodec};
use fireledger_types::runtime::CpuCharge;
use fireledger_types::{
    Block, BlockHeader, Delivery, Hash, NodeId, Observation, Outbox, Protocol, ProtocolParams,
    Round, SignedHeader, TimerId, Transaction, WorkerId,
};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

use crate::bftsmart::batch_from_pool;

/// A quorum certificate over the block proposed in `view`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuorumCert {
    /// The certified view (0 = genesis certificate).
    pub view: u64,
    /// Hash of the certified block header.
    pub block_hash: Hash,
}

/// Layout per WIRE_FORMAT.md §7.1: `view u64 | block_hash [32]B`.
impl WireCodec for QuorumCert {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.view.encode_to(out);
        self.block_hash.encode_to(out);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(QuorumCert {
            view: r.u64()?,
            block_hash: Hash::decode_from(r)?,
        })
    }

    fn encoded_len(&self) -> usize {
        8 + 32
    }
}

/// HotStuff wire messages.
//
// `Proposal` dwarfs the vote/pacemaker variants (its header now carries the
// lagged execution state root), but it is also the broadcast-once message —
// boxing it would buy nothing on the wire and cost an allocation per view.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum HotStuffMsg {
    /// Leader proposal for a view: a block extending `justify`.
    Proposal {
        /// The proposal's view.
        view: u64,
        /// The proposed block (header + body).
        header: SignedHeader,
        /// The block body.
        txs: Vec<Transaction>,
        /// QC for the parent.
        justify: QuorumCert,
    },
    /// A replica's signed vote, sent to the next leader.
    Vote {
        /// The voted view.
        view: u64,
        /// Hash of the voted block header.
        block_hash: Hash,
    },
    /// Pacemaker message to the next leader carrying the highest known QC.
    NewView {
        /// The view being entered.
        view: u64,
        /// The sender's highest QC.
        high_qc: QuorumCert,
    },
}

/// Layout per WIRE_FORMAT.md §7.2: a discriminant byte (`0x01` Proposal,
/// `0x02` Vote, `0x03` NewView) followed by the variant's fields in
/// declaration order.
impl WireCodec for HotStuffMsg {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            HotStuffMsg::Proposal {
                view,
                header,
                txs,
                justify,
            } => {
                out.push(1);
                view.encode_to(out);
                header.encode_to(out);
                txs.encode_to(out);
                justify.encode_to(out);
            }
            HotStuffMsg::Vote { view, block_hash } => {
                out.push(2);
                view.encode_to(out);
                block_hash.encode_to(out);
            }
            HotStuffMsg::NewView { view, high_qc } => {
                out.push(3);
                view.encode_to(out);
                high_qc.encode_to(out);
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            1 => Ok(HotStuffMsg::Proposal {
                view: r.u64()?,
                header: SignedHeader::decode_from(r)?,
                txs: Vec::<Transaction>::decode_from(r)?,
                justify: QuorumCert::decode_from(r)?,
            }),
            2 => Ok(HotStuffMsg::Vote {
                view: r.u64()?,
                block_hash: Hash::decode_from(r)?,
            }),
            3 => Ok(HotStuffMsg::NewView {
                view: r.u64()?,
                high_qc: QuorumCert::decode_from(r)?,
            }),
            tag => Err(CodecError::BadTag {
                what: "HotStuffMsg",
                tag,
            }),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            HotStuffMsg::Proposal {
                header,
                txs,
                justify,
                ..
            } => 8 + header.encoded_len() + txs.encoded_len() + justify.encoded_len(),
            HotStuffMsg::Vote { .. } => 8 + 32,
            HotStuffMsg::NewView { high_qc, .. } => 8 + high_qc.encoded_len(),
        }
    }
}

#[derive(Clone, Debug)]
struct PendingBlock {
    header: SignedHeader,
    txs: Vec<Transaction>,
    parent_view: u64,
}

/// One HotStuff replica.
pub struct HotStuffNode {
    me: NodeId,
    params: ProtocolParams,
    crypto: SharedCrypto,
    view: u64,
    high_qc: QuorumCert,
    /// Blocks by view.
    blocks: HashMap<u64, PendingBlock>,
    /// Vote collection at the (next) leader, per view.
    votes: HashMap<u64, HashSet<NodeId>>,
    /// Views whose block is final (on the committed chain). A view can be
    /// final while its block is still in flight — see `mark_committed_chain`.
    committed: HashSet<u64>,
    /// Parent → child edges of the committed chain, the order blocks are
    /// delivered in.
    chain_child: HashMap<u64, u64>,
    /// Highest view this replica has voted in (vote-once-per-view rule).
    voted_view: u64,
    /// Views this replica has already proposed for (at most one proposal per
    /// view per leader).
    proposed_views: HashSet<u64>,
    /// Highest contiguous committed view delivered to the application.
    last_delivered_view: u64,
    new_views: HashMap<u64, HashSet<NodeId>>,
    pool: Vec<Transaction>,
    committed_blocks: u64,
}

impl HotStuffNode {
    /// Creates a replica.
    pub fn new(me: NodeId, params: ProtocolParams, crypto: SharedCrypto) -> Self {
        HotStuffNode {
            me,
            params,
            crypto,
            view: 1,
            high_qc: QuorumCert {
                view: 0,
                block_hash: Hash::default(),
            },
            blocks: HashMap::new(),
            votes: HashMap::new(),
            committed: HashSet::new(),
            chain_child: HashMap::new(),
            voted_view: 0,
            proposed_views: HashSet::new(),
            last_delivered_view: 0,
            new_views: HashMap::new(),
            pool: Vec::new(),
            committed_blocks: 0,
        }
    }

    /// The leader of `view`.
    pub fn leader_of(&self, view: u64) -> NodeId {
        NodeId((view % self.params.n() as u64) as u32)
    }

    /// Total blocks committed by this replica.
    pub fn committed_blocks(&self) -> u64 {
        self.committed_blocks
    }

    /// The current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    fn timer_id(&self) -> TimerId {
        TimerId::compose(2, self.view)
    }

    fn quorum(&self) -> usize {
        self.params.quorum()
    }

    fn propose_at(&mut self, view: u64, out: &mut Outbox<HotStuffMsg>) {
        if !self.proposed_views.insert(view) {
            return;
        }
        self.view = self.view.max(view);
        let txs = batch_from_pool(
            &mut self.pool,
            self.params.batch_size,
            self.params.tx_size,
            self.params.fill_blocks,
            self.me.0 as u64,
            view,
        );
        let payload_hash = merkle_root(&txs);
        let payload_bytes: u64 = txs.iter().map(|t| t.payload.len() as u64).sum();
        let header = BlockHeader::new(
            Round(view),
            WorkerId(0),
            self.me,
            self.high_qc.block_hash,
            payload_hash,
            txs.len() as u32,
            payload_bytes,
        );
        let signature = self.crypto.sign(self.me, &header.canonical_bytes());
        out.cpu(CpuCharge::sign(payload_bytes));
        out.observe(Observation::BlockProposed {
            worker: WorkerId(0),
            round: Round(view),
            tx_count: txs.len() as u32,
            payload_bytes,
        });
        let signed = SignedHeader::new(header, signature);
        let proposal = HotStuffMsg::Proposal {
            view,
            header: signed.clone(),
            txs: txs.clone(),
            justify: self.high_qc.clone(),
        };
        out.broadcast(proposal);
        // Process our own proposal like any replica would.
        self.handle_proposal(self.me, view, signed, txs, self.high_qc.clone(), out);
    }

    fn handle_proposal(
        &mut self,
        from: NodeId,
        view: u64,
        header: SignedHeader,
        txs: Vec<Transaction>,
        justify: QuorumCert,
        out: &mut Outbox<HotStuffMsg>,
    ) {
        if from != self.leader_of(view) || self.blocks.contains_key(&view) {
            return;
        }
        // Verify the leader's signature and the payload commitment; the vote
        // signature is charged further down, only when a vote is produced.
        if !self.crypto.verify(
            header.proposer(),
            &header.header.canonical_bytes(),
            &header.signature,
        ) {
            return;
        }
        out.cpu(CpuCharge::verify(header.header.payload_bytes));
        if justify.view > self.high_qc.view {
            self.high_qc = justify.clone();
        }
        self.blocks.insert(
            view,
            PendingBlock {
                header: header.clone(),
                txs,
                parent_view: justify.view,
            },
        );
        if view <= self.voted_view {
            // A proposal that arrived *after* a newer one (two leaders'
            // broadcasts travel on different links, so a replica can observe
            // them out of causal order). Too late to vote — the vote-once
            // rule stands — but the block itself still belongs to the chain:
            // store it, and if its view was already committed via a
            // descendant, resume the interrupted commit walk so the chain
            // delivers without a hole.
            if self.committed.contains(&view) {
                self.mark_committed_chain(view);
                self.deliver_chain(out);
            }
            return;
        }
        // Catch up to the proposal's view and record the vote-once rule.
        if view > self.view {
            self.view = view;
        }
        self.voted_view = view;
        // Every replica signs every block it votes for in HotStuff.
        out.cpu(CpuCharge::sign(0));
        let block_hash = fireledger_crypto::hash_header(&header.header);
        let next_leader = self.leader_of(view + 1);
        let vote = HotStuffMsg::Vote { view, block_hash };
        if next_leader == self.me {
            self.handle_vote(self.me, view, block_hash, out);
        } else {
            out.send(next_leader, vote);
        }
        // Commit rule: with a chain of consecutive QCs, the block two views
        // behind the newest certified one is committed.
        self.try_commit(out);
        // Pacemaker for the next view.
        out.set_timer(TimerId::compose(2, view + 1), self.pacemaker_timeout());
    }

    fn pacemaker_timeout(&self) -> Duration {
        (self.params.base_timeout * 10).max(Duration::from_millis(100))
    }

    fn handle_vote(
        &mut self,
        from: NodeId,
        view: u64,
        _block_hash: Hash,
        out: &mut Outbox<HotStuffMsg>,
    ) {
        // Only the leader of view+1 collects these votes.
        if self.leader_of(view + 1) != self.me {
            return;
        }
        let votes = self.votes.entry(view).or_default();
        votes.insert(from);
        if votes.len() >= self.quorum() && !self.proposed_views.contains(&(view + 1)) {
            // Votes travel point-to-point while the proposal is broadcast on
            // other links, so a quorum can arrive *before* the block it
            // certifies. Proposing then would extend a stale high_qc and
            // orphan the gap. Defer instead: when the proposal lands,
            // handle_proposal re-invokes us (with our own vote) and this
            // quorum check passes with the block known.
            let Some(block) = self.blocks.get(&view) else {
                return;
            };
            // Verify the aggregate once (signature aggregation).
            out.cpu(CpuCharge::verify(0));
            let qc = QuorumCert {
                view,
                block_hash: fireledger_crypto::hash_header(&block.header.header),
            };
            if qc.view > self.high_qc.view {
                self.high_qc = qc;
            }
            self.propose_at(view + 1, out);
            self.try_commit(out);
        }
    }

    fn try_commit(&mut self, out: &mut Outbox<HotStuffMsg>) {
        // Three-chain commit rule over parent links: the newest QC certifies
        // b''; if b'' → b' → b is a chain of parent links, b (and all of its
        // still-uncommitted ancestors) commit. Requiring parent *links* rather
        // than consecutive view numbers keeps commits flowing when the
        // pacemaker skips a crashed leader's views.
        let v = self.high_qc.view;
        let Some(b2) = self.blocks.get(&v) else {
            return;
        };
        if b2.parent_view == 0 {
            return;
        }
        let Some(b1) = self.blocks.get(&b2.parent_view) else {
            return;
        };
        if b1.parent_view == 0 {
            return;
        }
        let commit_view = b1.parent_view;
        self.mark_committed_chain(commit_view);
        self.deliver_chain(out);
    }

    /// Marks `from_view` and its ancestors final, recording the parent →
    /// child edges [`Self::deliver_chain`] follows. The walk pauses at a
    /// view whose block has not arrived yet (a proposal overtaken on another
    /// link): the view is still marked final, and when the block lands,
    /// `handle_proposal` resumes the walk from it.
    fn mark_committed_chain(&mut self, from_view: u64) {
        let mut cursor = from_view;
        while cursor != 0 {
            let Some(block) = self.blocks.get(&cursor) else {
                self.committed.insert(cursor);
                return;
            };
            let parent = block.parent_view;
            self.chain_child.insert(parent, cursor);
            self.committed.insert(cursor);
            if parent == 0 || self.committed.contains(&parent) {
                return;
            }
            cursor = parent;
        }
    }

    /// Delivers committed blocks strictly in chain order: follow the
    /// committed parent → child edges from the last delivered view, stopping
    /// at the chain's tip or at a block still in flight. Every replica walks
    /// the same edges, so delivered sequences are identical regardless of
    /// the order the underlying messages arrived in.
    fn deliver_chain(&mut self, out: &mut Outbox<HotStuffMsg>) {
        while let Some(&next) = self.chain_child.get(&self.last_delivered_view) {
            let Some(block) = self.blocks.get(&next).cloned() else {
                return;
            };
            self.committed_blocks += 1;
            self.last_delivered_view = next;
            out.observe(Observation::DefiniteDecision {
                worker: WorkerId(0),
                round: Round(next),
                tx_count: block.header.header.tx_count,
                payload_bytes: block.header.header.payload_bytes,
            });
            out.observe(Observation::FloDelivery {
                worker: WorkerId(0),
                round: Round(next),
            });
            out.deliver(Delivery {
                worker: WorkerId(0),
                round: Round(next),
                proposer: block.header.proposer(),
                block: Block::new(block.header.header.clone(), block.txs.clone()),
            });
        }
    }

    fn handle_new_view(
        &mut self,
        from: NodeId,
        view: u64,
        high_qc: QuorumCert,
        out: &mut Outbox<HotStuffMsg>,
    ) {
        if high_qc.view > self.high_qc.view {
            self.high_qc = high_qc;
        }
        // Adopt (and echo) higher views so the cluster converges on one view
        // even when timeouts fire at slightly different times.
        if view > self.view && from != self.me {
            self.view = view;
            out.broadcast(HotStuffMsg::NewView {
                view,
                high_qc: self.high_qc.clone(),
            });
            out.set_timer(TimerId::compose(2, view), self.pacemaker_timeout());
        }
        if self.leader_of(view) != self.me || self.proposed_views.contains(&view) {
            return;
        }
        let votes = self.new_views.entry(view).or_default();
        votes.insert(from);
        if votes.len() >= self.quorum().saturating_sub(1) {
            self.propose_at(view, out);
        }
    }
}

impl Protocol for HotStuffNode {
    type Msg = HotStuffMsg;

    fn node_id(&self) -> NodeId {
        self.me
    }

    fn on_start(&mut self, out: &mut Outbox<HotStuffMsg>) {
        if self.leader_of(self.view) == self.me {
            let view = self.view;
            self.propose_at(view, out);
        }
        out.set_timer(self.timer_id(), self.pacemaker_timeout());
    }

    fn on_message(&mut self, from: NodeId, msg: HotStuffMsg, out: &mut Outbox<HotStuffMsg>) {
        match msg {
            HotStuffMsg::Proposal {
                view,
                header,
                txs,
                justify,
            } => self.handle_proposal(from, view, header, txs, justify, out),
            HotStuffMsg::Vote { view, block_hash } => self.handle_vote(from, view, block_hash, out),
            HotStuffMsg::NewView { view, high_qc } => {
                self.handle_new_view(from, view, high_qc, out)
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<HotStuffMsg>) {
        let (kind, view) = timer.decompose();
        if kind != 2 || view <= self.high_qc.view {
            return;
        }
        // Pacemaker: the expected proposal never arrived; move to the next
        // view and announce it (the announcement is echoed by the others, so
        // the new leader collects a quorum even if timeouts were staggered).
        let next_view = self.view.max(view).max(self.high_qc.view + 1) + 1;
        self.view = next_view;
        out.broadcast(HotStuffMsg::NewView {
            view: next_view,
            high_qc: self.high_qc.clone(),
        });
        if self.leader_of(next_view) == self.me {
            let qc = self.high_qc.clone();
            self.handle_new_view(self.me, next_view, qc, out);
        }
        out.set_timer(TimerId::compose(2, next_view), self.pacemaker_timeout());
    }

    fn on_transaction(&mut self, tx: Transaction, _out: &mut Outbox<HotStuffMsg>) {
        self.pool.push(tx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireledger_crypto::SimKeyStore;
    use fireledger_sim::{SimConfig, Simulation};

    fn cluster(n: usize, batch: usize) -> Vec<HotStuffNode> {
        let params = ProtocolParams::new(n)
            .with_batch_size(batch)
            .with_tx_size(64)
            .with_base_timeout(Duration::from_millis(20));
        let crypto = SimKeyStore::generate(n, 5).shared();
        (0..n)
            .map(|i| HotStuffNode::new(NodeId(i as u32), params.clone(), crypto.clone()))
            .collect()
    }

    #[test]
    fn fault_free_hotstuff_commits_blocks_everywhere() {
        let mut sim = Simulation::new(SimConfig::ideal(), cluster(4, 10));
        sim.run_for(Duration::from_millis(500));
        for i in 0..4u32 {
            assert!(
                sim.node(NodeId(i)).committed_blocks() > 10,
                "node {i} committed only {}",
                sim.node(NodeId(i)).committed_blocks()
            );
        }
    }

    #[test]
    fn committed_sequences_agree_across_replicas() {
        let mut sim = Simulation::new(SimConfig::ideal(), cluster(4, 5));
        sim.run_for(Duration::from_millis(400));
        let seq = |n: u32| {
            sim.deliveries(NodeId(n))
                .iter()
                .map(|d| (d.round, d.block.header.payload_hash))
                .collect::<Vec<_>>()
        };
        let reference = seq(0);
        assert!(reference.len() > 5);
        for i in 1..4 {
            let other = seq(i);
            let common = reference.len().min(other.len());
            assert_eq!(other[..common], reference[..common], "replica {i} diverged");
        }
        // Views are delivered in increasing order.
        assert!(reference.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn leaders_rotate_every_view() {
        let mut sim = Simulation::new(SimConfig::ideal(), cluster(4, 5));
        sim.run_for(Duration::from_millis(300));
        let proposers: Vec<NodeId> = sim
            .deliveries(NodeId(2))
            .iter()
            .map(|d| d.proposer)
            .collect();
        assert!(proposers.len() > 4);
        for pair in proposers.windows(2) {
            assert_ne!(
                pair[0], pair[1],
                "consecutive blocks must have different leaders"
            );
        }
    }

    #[test]
    fn every_replica_signs_every_block() {
        let mut sim = Simulation::new(
            SimConfig::ideal().with_cost(fireledger_crypto::CostModel::m5_xlarge()),
            cluster(4, 5),
        );
        sim.run_for(Duration::from_millis(300));
        let s = sim.summary();
        let committed = sim.node(NodeId(0)).committed_blocks();
        // At least ~n signatures per committed block (votes + proposal).
        assert!(
            s.signatures >= committed * 3,
            "expected ≥ {} signatures, got {}",
            committed * 3,
            s.signatures
        );
    }

    #[test]
    fn pacemaker_skips_a_crashed_leader() {
        use fireledger_sim::adversary::CrashSchedule;
        use fireledger_sim::SimTime;
        // Node 1 (leader of view 1... node 2 leads view 2, etc.) crashes from
        // the start; progress must continue past its views.
        let adv = CrashSchedule::new().crash(NodeId(2), SimTime::ZERO);
        let mut sim = Simulation::with_adversary(SimConfig::ideal(), cluster(4, 5), Box::new(adv));
        sim.run_for(Duration::from_secs(3));
        assert!(
            sim.node(NodeId(0)).committed_blocks() > 3,
            "HotStuff must make progress despite a crashed replica, got {}",
            sim.node(NodeId(0)).committed_blocks()
        );
    }

    #[test]
    fn wire_sizes_scale_with_batch() {
        let small = HotStuffMsg::Vote {
            view: 1,
            block_hash: Hash::default(),
        };
        assert!(small.encoded_len() < 200);
        let txs: Vec<Transaction> = (0..10).map(|i| Transaction::zeroed(0, i, 512)).collect();
        let header = BlockHeader::new(
            Round(1),
            WorkerId(0),
            NodeId(0),
            Hash::default(),
            Hash::default(),
            10,
            5120,
        );
        let prop = HotStuffMsg::Proposal {
            view: 1,
            header: SignedHeader::new(header, fireledger_types::Signature::from(vec![0; 64])),
            txs,
            justify: QuorumCert {
                view: 0,
                block_hash: Hash::default(),
            },
        };
        assert!(prop.encoded_len() > 5120);
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;
    use fireledger_crypto::SimKeyStore;
    use fireledger_sim::adversary::CrashSchedule;
    use fireledger_sim::SimTime;
    use fireledger_sim::{SimConfig, Simulation};

    #[test]
    #[ignore]
    fn debug_pacemaker() {
        let params = ProtocolParams::new(4)
            .with_batch_size(5)
            .with_tx_size(64)
            .with_base_timeout(Duration::from_millis(20));
        let crypto = SimKeyStore::generate(4, 5).shared();
        let nodes: Vec<HotStuffNode> = (0..4)
            .map(|i| HotStuffNode::new(NodeId(i as u32), params.clone(), crypto.clone()))
            .collect();
        let adv = CrashSchedule::new().crash(NodeId(2), SimTime::ZERO);
        let mut sim = Simulation::with_adversary(SimConfig::ideal(), nodes, Box::new(adv));
        sim.run_for(Duration::from_secs(1));
        for i in [0u32, 1, 3] {
            let n = sim.node(NodeId(i));
            println!(
                "node {i}: view={} high_qc={} committed={} blocks={} events={}",
                n.view(),
                n.high_qc.view,
                n.committed_blocks(),
                n.blocks.len(),
                sim.events_processed()
            );
        }
    }

    #[test]
    fn codec_roundtrips_every_variant() {
        let header = SignedHeader::new(
            BlockHeader::new(
                Round(3),
                WorkerId(0),
                NodeId(1),
                fireledger_types::GENESIS_HASH,
                Hash([9u8; 32]),
                2,
                128,
            ),
            fireledger_types::Signature::from(vec![0x33; 64]),
        );
        let qc = QuorumCert {
            view: 5,
            block_hash: Hash([4u8; 32]),
        };
        assert_eq!(QuorumCert::decode(&qc.encode()).unwrap(), qc);
        let variants = vec![
            HotStuffMsg::Proposal {
                view: 6,
                header,
                txs: vec![Transaction::zeroed(1, 0, 32)],
                justify: qc.clone(),
            },
            HotStuffMsg::Vote {
                view: 6,
                block_hash: Hash([8u8; 32]),
            },
            HotStuffMsg::NewView {
                view: 7,
                high_qc: qc,
            },
        ];
        for m in variants {
            assert_eq!(HotStuffMsg::decode(&m.encode()).unwrap(), m, "{m:?}");
        }
        assert!(matches!(
            HotStuffMsg::decode(&[0x55]),
            Err(fireledger_types::CodecError::BadTag {
                what: "HotStuffMsg",
                ..
            })
        ));
    }
}
