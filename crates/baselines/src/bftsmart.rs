//! A BFT-SMaRt-style ordering service — the baseline of Figure 17 and the
//! previous state of the art the paper cites (§2, §7.6).
//!
//! BFT-SMaRt is a PBFT-lineage state-machine-replication library: a stable
//! leader batches client requests and runs the classical three-phase
//! (pre-prepare / prepare / commit) agreement with O(n²) messages per batch;
//! a timeout-triggered leader change provides liveness. We reuse the PBFT
//! atomic broadcast from `fireledger-bft` (the same component FireLedger uses
//! as its fallback/recovery consensus layer) and drive it with a batching
//! leader, so the comparison against FLO isolates exactly the difference the
//! paper highlights: every block pays the full three-phase quadratic exchange
//! here, versus a single all-to-all bit exchange on FireLedger's optimistic
//! path.

use fireledger_bft::{Pbft, PbftConfig, PbftMsg};
use fireledger_crypto::{merkle_root, SharedCrypto};
use fireledger_types::codec::{CodecError, Reader, WireCodec};
use fireledger_types::runtime::CpuCharge;
use fireledger_types::{
    Block, BlockHeader, Delivery, NodeId, Observation, Outbox, Protocol, ProtocolParams, Round,
    TimerId, Transaction, WorkerId,
};
use std::time::Duration;

/// A batch of transactions submitted to the ordering service.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct OrderedBatch {
    /// The node that assembled the batch.
    pub assembler: NodeId,
    /// Assembler-local sequence number (keeps equal batches distinct).
    pub seq: u64,
    /// The transactions.
    pub txs: Vec<Transaction>,
}

/// Layout per WIRE_FORMAT.md §7.3:
/// `assembler u32 | seq u64 | txs Vec<Transaction>`. The BFT-SMaRt-style
/// service exchanges these inside [`PbftMsg`] (§5.2).
impl WireCodec for OrderedBatch {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.assembler.encode_to(out);
        self.seq.encode_to(out);
        self.txs.encode_to(out);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(OrderedBatch {
            assembler: NodeId::decode_from(r)?,
            seq: r.u64()?,
            txs: Vec::<Transaction>::decode_from(r)?,
        })
    }

    fn encoded_len(&self) -> usize {
        4 + 8 + self.txs.encoded_len()
    }
}

/// Timer kind for the batch pump.
const TIMER_PUMP: u8 = 3;
/// Timer kind handed to the embedded PBFT instance.
const TIMER_PBFT: u8 = 0xAB;
/// Number of batches the leader keeps in flight (pipelining).
const PIPELINE: usize = 4;

/// Takes up to `batch_size` transactions from `pool`, padding with synthetic
/// `tx_size`-byte transactions when `fill` is set (the paper's saturated-load
/// mode). Shared with the HotStuff baseline.
pub fn batch_from_pool(
    pool: &mut Vec<Transaction>,
    batch_size: usize,
    tx_size: usize,
    fill: bool,
    assembler: u64,
    seq: u64,
) -> Vec<Transaction> {
    let take = pool.len().min(batch_size);
    let mut txs: Vec<Transaction> = pool.drain(..take).collect();
    if fill && txs.len() < batch_size {
        // All fillers of one batch are byte-identical zeroes: allocate the
        // payload once and share it (reference bumps per transaction).
        let payload = fireledger_types::Bytes::from(vec![0u8; tx_size]);
        let mut filler = txs.len() as u64;
        while txs.len() < batch_size {
            txs.push(Transaction::new(
                2_000_000 + assembler,
                seq * batch_size as u64 + filler,
                payload.clone(),
            ));
            filler += 1;
        }
    }
    txs
}

/// One replica of the BFT-SMaRt-style ordering service.
pub struct BftSmartNode {
    me: NodeId,
    params: ProtocolParams,
    crypto: SharedCrypto,
    pbft: Pbft<OrderedBatch>,
    pool: Vec<Transaction>,
    next_batch_seq: u64,
    inflight: usize,
    delivered_batches: u64,
}

impl BftSmartNode {
    /// Creates a replica.
    pub fn new(me: NodeId, params: ProtocolParams, crypto: SharedCrypto) -> Self {
        let pbft_cfg = PbftConfig::new(params.cluster)
            .with_timeout((params.base_timeout * 20).max(Duration::from_millis(500)))
            .with_timer_kind(TIMER_PBFT);
        BftSmartNode {
            me,
            pbft: Pbft::new(me, pbft_cfg),
            pool: Vec::new(),
            next_batch_seq: 0,
            inflight: 0,
            delivered_batches: 0,
            params,
            crypto,
        }
    }

    /// Total batches (blocks) this replica has delivered.
    pub fn delivered_batches(&self) -> u64 {
        self.delivered_batches
    }

    fn pump_timer(&self) -> TimerId {
        TimerId::compose(TIMER_PUMP, 0)
    }

    fn pump_interval(&self) -> Duration {
        self.params.base_timeout.max(Duration::from_millis(5))
    }

    /// The (stable) leader assembles and submits new batches while it has
    /// pipeline budget.
    fn pump(&mut self, out: &mut Outbox<PbftMsg<OrderedBatch>>) {
        if !self.pbft.is_leader() {
            return;
        }
        while self.inflight < PIPELINE {
            let seq = self.next_batch_seq;
            let txs = batch_from_pool(
                &mut self.pool,
                self.params.batch_size,
                self.params.tx_size,
                self.params.fill_blocks,
                self.me.0 as u64,
                seq,
            );
            if txs.is_empty() {
                break;
            }
            self.next_batch_seq += 1;
            self.inflight += 1;
            let payload_bytes: u64 = txs.iter().map(|t| t.payload.len() as u64).sum();
            // The leader hashes and signs the batch it proposes.
            out.cpu(CpuCharge::sign(payload_bytes));
            out.observe(Observation::BlockProposed {
                worker: WorkerId(0),
                round: Round(seq),
                tx_count: txs.len() as u32,
                payload_bytes,
            });
            let batch = OrderedBatch {
                assembler: self.me,
                seq,
                txs,
            };
            let delivered = self.pbft.submit(batch, out);
            self.handle_delivered(delivered, out);
        }
    }

    fn handle_delivered(
        &mut self,
        delivered: Vec<(u64, OrderedBatch)>,
        out: &mut Outbox<PbftMsg<OrderedBatch>>,
    ) {
        for (seq, batch) in delivered {
            if batch.assembler == self.me {
                self.inflight = self.inflight.saturating_sub(1);
            }
            self.delivered_batches += 1;
            let payload_bytes: u64 = batch.txs.iter().map(|t| t.payload.len() as u64).sum();
            // Replicas hash the batch to validate the payload commitment.
            out.cpu(CpuCharge::hash(payload_bytes));
            let payload_hash = merkle_root(&batch.txs);
            let header = BlockHeader::new(
                Round(seq),
                WorkerId(0),
                batch.assembler,
                fireledger_types::GENESIS_HASH,
                payload_hash,
                batch.txs.len() as u32,
                payload_bytes,
            );
            out.observe(Observation::DefiniteDecision {
                worker: WorkerId(0),
                round: Round(seq),
                tx_count: batch.txs.len() as u32,
                payload_bytes,
            });
            out.observe(Observation::FloDelivery {
                worker: WorkerId(0),
                round: Round(seq),
            });
            out.deliver(Delivery {
                worker: WorkerId(0),
                round: Round(seq),
                proposer: batch.assembler,
                block: Block::new(header, batch.txs),
            });
        }
    }
}

impl Protocol for BftSmartNode {
    type Msg = PbftMsg<OrderedBatch>;

    fn node_id(&self) -> NodeId {
        self.me
    }

    fn on_start(&mut self, out: &mut Outbox<Self::Msg>) {
        let _ = &self.crypto; // the crypto provider anchors the cost model
        self.pump(out);
        out.set_timer(self.pump_timer(), self.pump_interval());
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, out: &mut Outbox<Self::Msg>) {
        let delivered = self.pbft.on_message(from, msg, out);
        self.handle_delivered(delivered, out);
        self.pump(out);
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<Self::Msg>) {
        let (kind, _) = timer.decompose();
        match kind {
            TIMER_PUMP => {
                self.pump(out);
                out.set_timer(self.pump_timer(), self.pump_interval());
            }
            TIMER_PBFT => {
                self.pbft.on_timer(timer, out);
            }
            _ => {}
        }
    }

    fn on_transaction(&mut self, tx: Transaction, out: &mut Outbox<Self::Msg>) {
        self.pool.push(tx);
        self.pump(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireledger_crypto::SimKeyStore;
    use fireledger_sim::{SimConfig, Simulation};

    fn cluster(n: usize, batch: usize) -> Vec<BftSmartNode> {
        let params = ProtocolParams::new(n)
            .with_batch_size(batch)
            .with_tx_size(64)
            .with_base_timeout(Duration::from_millis(10));
        let crypto = SimKeyStore::generate(n, 9).shared();
        (0..n)
            .map(|i| BftSmartNode::new(NodeId(i as u32), params.clone(), crypto.clone()))
            .collect()
    }

    #[test]
    fn ordering_service_delivers_batches_to_all_replicas() {
        let mut sim = Simulation::new(SimConfig::ideal(), cluster(4, 10));
        sim.run_for(Duration::from_millis(500));
        for i in 0..4u32 {
            assert!(
                sim.node(NodeId(i)).delivered_batches() > 5,
                "replica {i} delivered {}",
                sim.node(NodeId(i)).delivered_batches()
            );
        }
    }

    #[test]
    fn delivered_order_is_identical_across_replicas() {
        let mut sim = Simulation::new(SimConfig::ideal(), cluster(4, 5));
        sim.run_for(Duration::from_millis(400));
        let seq = |n: u32| {
            sim.deliveries(NodeId(n))
                .iter()
                .map(|d| (d.round, d.block.header.payload_hash))
                .collect::<Vec<_>>()
        };
        let reference = seq(0);
        assert!(reference.len() > 3);
        for i in 1..4 {
            let other = seq(i);
            let common = reference.len().min(other.len());
            assert_eq!(other[..common], reference[..common], "replica {i} diverged");
        }
    }

    #[test]
    fn real_client_transactions_are_ordered() {
        let mut nodes = cluster(4, 4);
        for n in &mut nodes {
            n.params.fill_blocks = false;
        }
        let mut sim = Simulation::new(SimConfig::ideal(), nodes);
        let tx = Transaction::new(5, 1, vec![7u8; 64]);
        // Submit to the leader (node 0 in view 0).
        sim.inject_transaction(NodeId(0), tx.clone(), Duration::from_millis(1));
        sim.run_for(Duration::from_millis(300));
        let delivered: Vec<Transaction> = sim
            .deliveries(NodeId(3))
            .iter()
            .flat_map(|d| d.block.txs.clone())
            .collect();
        assert!(delivered.contains(&tx));
    }

    #[test]
    fn batch_from_pool_drains_and_fills() {
        let mut pool = vec![Transaction::zeroed(1, 0, 8), Transaction::zeroed(1, 1, 8)];
        let batch = batch_from_pool(&mut pool, 4, 8, true, 0, 0);
        assert_eq!(batch.len(), 4);
        assert!(pool.is_empty());
        let batch2 = batch_from_pool(&mut pool, 4, 8, false, 0, 1);
        assert!(batch2.is_empty());
        // Filler ids never collide across batches/assemblers.
        let b1 = batch_from_pool(&mut pool, 3, 8, true, 1, 7);
        let b2 = batch_from_pool(&mut pool, 3, 8, true, 2, 7);
        let ids: std::collections::HashSet<_> =
            b1.iter().chain(b2.iter()).map(|t| t.id()).collect();
        assert_eq!(ids.len(), 6);
    }

    #[test]
    fn quadratic_message_pattern_is_visible() {
        // Per delivered batch the cluster exchanges O(n²) prepare/commit
        // messages, far more than FireLedger's n votes.
        let mut sim = Simulation::new(SimConfig::ideal(), cluster(4, 10));
        sim.run_for(Duration::from_millis(300));
        let s = sim.summary();
        let batches: u64 = sim.node(NodeId(0)).delivered_batches();
        assert!(batches > 0);
        assert!(
            s.msgs_sent as f64 / batches as f64 > 12.0,
            "expected ≥ n² messages per batch"
        );
    }

    #[test]
    fn codec_roundtrips_ordered_batches_inside_pbft_messages() {
        let batch = OrderedBatch {
            assembler: NodeId(2),
            seq: 9,
            txs: vec![
                Transaction::zeroed(1, 0, 32),
                Transaction::new(3, 4, vec![5]),
            ],
        };
        assert_eq!(OrderedBatch::decode(&batch.encode()).unwrap(), batch);
        // The batch as it actually travels: wrapped in the PBFT layout.
        let msg = PbftMsg::PrePrepare {
            view: 0,
            seq: 1,
            value: batch,
        };
        assert_eq!(PbftMsg::<OrderedBatch>::decode(&msg.encode()).unwrap(), msg);
    }
}
