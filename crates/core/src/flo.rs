//! FLO — the FireLedger Orchestrator (§6.2).
//!
//! FireLedger's rotating-proposer pattern makes a single instance's
//! throughput latency-bound: a node may only propose on its turn. FLO
//! compensates by running ω independent FireLedger instances ("workers") per
//! node and using them as a blockchain-based ordering service:
//!
//! * the **client manager** routes each incoming write to the least-loaded
//!   worker;
//! * workers run completely independently (their messages are tagged with the
//!   worker id and never interact);
//! * to preserve a single total order, FLO releases decided blocks to the
//!   application by collecting the workers' definite deliveries **in
//!   round-robin order** — worker 0's block for round r, then worker 1's,
//!   and so on. A single slow worker therefore delays the merged delivery of
//!   all others, which is exactly the latency effect studied in Figures 8–9.

use crate::messages::{FloMsg, WorkerMsg};
use crate::validity::SharedValidity;
use crate::worker::Worker;
use fireledger_crypto::SharedCrypto;
use fireledger_store::{NodeStore, RecoveredState, REC_BLOCK};
use fireledger_types::{
    Action, Block, Delivery, NodeId, Observation, Outbox, Protocol, ProtocolParams, StoredBlock,
    TimerId, Transaction, WalRecord, WireCodec, WorkerId,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// A FLO node: ω FireLedger workers plus the client manager and the
/// round-robin delivery merge.
pub struct FloNode {
    me: NodeId,
    params: ProtocolParams,
    workers: Vec<Worker>,
    /// Definite deliveries produced by each worker, awaiting their round-robin
    /// release slot.
    pending: Vec<VecDeque<Delivery>>,
    /// The worker whose delivery is released next.
    next_worker: usize,
    /// Total blocks released by the round-robin merge.
    released: u64,
    /// Durable store: every released block is appended to the block log at
    /// the moment of release, so the persisted ledger *is* the merged
    /// delivery stream in order.
    store: Option<Arc<fireledger_store::NodeStore>>,
    /// Deliveries reconstructed from the block log by
    /// [`FloNode::recover_from_disk`], re-emitted on start so the restarted
    /// node's delivery stream begins with its recovered prefix.
    replay: Vec<Delivery>,
}

impl FloNode {
    /// Creates a FLO node with `params.workers` FireLedger workers.
    pub fn new(
        me: NodeId,
        params: ProtocolParams,
        crypto: SharedCrypto,
        validity: SharedValidity,
    ) -> Self {
        let workers = (0..params.workers)
            .map(|w| {
                Worker::new(
                    me,
                    WorkerId(w as u32),
                    params.clone(),
                    crypto.clone(),
                    validity.clone(),
                )
            })
            .collect::<Vec<_>>();
        FloNode {
            me,
            pending: vec![VecDeque::new(); params.workers],
            next_worker: 0,
            released: 0,
            store: None,
            replay: Vec::new(),
            params,
            workers,
        }
    }

    /// Attaches the node's durable store: every worker gains a consensus
    /// WAL (votes persisted before broadcast) and every block the
    /// round-robin merge releases from now on is appended to the block log.
    pub fn set_store(&mut self, store: Arc<NodeStore>) {
        for w in &mut self.workers {
            w.set_store(store.clone());
        }
        self.store = Some(store);
    }

    /// Rebuilds a node **solely from its durable store** after a kill: the
    /// replayed block log restores every worker's definite chain prefix and
    /// the round-robin merge position, and the replayed WAL restores each
    /// worker's vote ledger so the restarted node can never contradict a
    /// vote its pre-kill self broadcast.
    ///
    /// Replay is forgiving the same way the store's tail scan is: the first
    /// record that fails to decode, names a worker the configuration does
    /// not have, or is not its worker's next round (a gap) ends the usable
    /// prefix rather than failing recovery.
    ///
    /// The recovered prefix is re-emitted as deliveries on the node's first
    /// [`Protocol::on_start`], so its post-restart delivery stream is the
    /// full ledger from round 0 — what the ledger-identity checks compare.
    /// Every worker then starts in state-sync mode (see
    /// [`FloNode::begin_sync`]): it probes the cluster's definite tips and
    /// range-fetches the gap between its WAL tip and the cluster's definite
    /// round before rejoining consensus, so a node that fell far behind
    /// while dead catches up by block fetch instead of stalling.
    pub fn recover_from_disk(
        me: NodeId,
        params: ProtocolParams,
        crypto: SharedCrypto,
        validity: SharedValidity,
        store: Arc<NodeStore>,
        recovered: &RecoveredState,
    ) -> Self {
        let mut node = FloNode::new(me, params, crypto, validity);
        for (kind, payload) in &recovered.blocks {
            if *kind != REC_BLOCK {
                break;
            }
            let Ok(stored) = StoredBlock::decode(payload) else {
                break;
            };
            let w = stored.worker.as_usize();
            if w >= node.workers.len()
                || stored.signed_header.round() != node.workers[w].chain().next_round()
            {
                break;
            }
            let block = Block::new(stored.signed_header.header.clone(), stored.txs);
            node.workers[w].restore_definite_block(stored.signed_header.clone(), block.clone());
            node.replay.push(Delivery {
                worker: stored.worker,
                round: stored.signed_header.round(),
                proposer: stored.signed_header.proposer(),
                block,
            });
        }
        node.released = node.replay.len() as u64;
        node.next_worker = (node.released as usize) % node.workers.len();
        for (kind, payload) in &recovered.wal {
            let Ok(rec) = WalRecord::decode_record(*kind, payload) else {
                continue;
            };
            let w = match rec {
                WalRecord::Round { worker, .. }
                | WalRecord::Vote { worker, .. }
                | WalRecord::Locked { worker, .. } => worker.as_usize(),
            };
            if let Some(worker) = node.workers.get_mut(w) {
                worker.restore_wal(&rec);
            }
        }
        for w in &mut node.workers {
            w.finish_restore();
        }
        node.set_store(store);
        node.begin_sync();
        node
    }

    /// Puts every worker into state-sync mode for its next start: each
    /// probes the cluster's definite tips and range-fetches any gap before
    /// joining normal consensus (a worker that is not behind resumes
    /// immediately). Used after [`FloNode::recover_from_disk`] and by
    /// late-joining nodes.
    pub fn begin_sync(&mut self) {
        for w in &mut self.workers {
            w.begin_sync();
        }
    }

    /// Total rounds fetched through state sync across all workers.
    pub fn sync_rounds_fetched(&self) -> u64 {
        self.workers.iter().map(|w| w.sync_rounds_fetched()).sum()
    }

    /// True while any worker's state-sync fetch is in progress.
    pub fn is_syncing(&self) -> bool {
        self.workers.iter().any(|w| w.is_syncing())
    }

    /// Overrides every worker's synchronizer batch sizes (see
    /// [`Worker::set_sync_batches`]).
    pub fn set_sync_batches(&mut self, headers: usize, bodies: usize) {
        for w in &mut self.workers {
            w.set_sync_batches(headers, bodies);
        }
    }

    /// The node's identity.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// Number of workers (ω).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Access to an individual worker (for tests and the benchmark harness).
    pub fn worker(&self, w: usize) -> &Worker {
        &self.workers[w]
    }

    /// The protocol parameters this node runs with.
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }

    /// Attaches one execution shard per worker (see [`Worker::set_exec`]):
    /// each worker stream is executed by its own independent state machine,
    /// so FLO's sharded ordering carries straight through to sharded
    /// execution. Call order against [`FloNode::recover_from_disk`] does not
    /// matter — each worker re-feeds its restored prefix on attach.
    ///
    /// # Panics
    /// Panics when fewer shards than workers are supplied.
    pub fn set_exec(&mut self, shards: &[fireledger_exec::ExecShared]) {
        assert!(
            shards.len() >= self.workers.len(),
            "need one execution shard per worker: got {}, have ω = {}",
            shards.len(),
            self.workers.len()
        );
        for (w, shard) in self.workers.iter_mut().zip(shards) {
            w.set_exec(shard.clone());
        }
    }

    /// Tags a worker's timer with its instance index. The worker occupies a
    /// dedicated 8-bit field of [`TimerId`], disjoint from both the kind tag
    /// and the 48-bit sequence, so remapping can never alias another worker's
    /// (or kind's) timer; `ProtocolParams::with_workers` caps ω accordingly.
    fn wrap_timer(worker: usize, id: TimerId) -> TimerId {
        id.with_worker(WorkerId(worker as u32))
    }

    fn unwrap_timer(id: TimerId) -> (usize, TimerId) {
        (id.worker().as_usize(), id.without_worker())
    }

    /// Lifts a worker's outbox into FLO-level actions: messages are tagged
    /// with the worker id, timers are remapped, deliveries are buffered for
    /// the round-robin merge, everything else passes through.
    fn absorb(&mut self, worker: usize, sub: Outbox<WorkerMsg>, out: &mut Outbox<FloMsg>) {
        let tag = WorkerId(worker as u32);
        for action in sub.into_actions() {
            match action {
                Action::Send { to, msg } => out.send(
                    to,
                    FloMsg {
                        worker: tag,
                        inner: msg,
                    },
                ),
                Action::Broadcast { msg } => out.broadcast(FloMsg {
                    worker: tag,
                    inner: msg,
                }),
                Action::SetTimer { id, delay } => {
                    out.set_timer(Self::wrap_timer(worker, id), delay)
                }
                Action::CancelTimer { id } => out.cancel_timer(Self::wrap_timer(worker, id)),
                Action::Cpu(c) => out.cpu(c),
                Action::Observe(o) => out.observe(o),
                Action::Deliver(d) => {
                    self.pending[worker].push_back(d);
                }
            }
        }
        self.release_round_robin(out);
    }

    /// Releases buffered deliveries in strict round-robin order across
    /// workers: the merge stalls as soon as the worker whose turn it is has
    /// nothing ready (§6.2).
    fn release_round_robin(&mut self, out: &mut Outbox<FloMsg>) {
        loop {
            let Some(delivery) = self.pending[self.next_worker].pop_front() else {
                return;
            };
            out.observe(Observation::FloDelivery {
                worker: delivery.worker,
                round: delivery.round,
            });
            self.persist_released(&delivery);
            out.deliver(delivery);
            self.released += 1;
            self.next_worker = (self.next_worker + 1) % self.workers.len();
        }
    }

    /// Appends a released block to the durable block log, before the
    /// delivery leaves the outbox. Under the buffered fsync policies the
    /// write itself happens on the store's writer thread — this call only
    /// encodes and enqueues — so persistence stays off the consensus hot
    /// path; under `FsyncPolicy::Always` the append and `fdatasync` are
    /// paid right here, which is exactly the durability/latency trade the
    /// fsync benchmark rows quantify.
    fn persist_released(&mut self, delivery: &Delivery) {
        let Some(store) = &self.store else {
            return;
        };
        let w = delivery.worker.as_usize();
        let Some(entry) = self.workers[w].chain().get(delivery.round) else {
            return;
        };
        let stored = StoredBlock {
            worker: delivery.worker,
            signed_header: entry.signed_header.clone(),
            txs: delivery.block.txs.clone(),
        };
        let _ = store.append_block(stored.encode());
    }

    /// The least-loaded worker (by pending transaction count) — the client
    /// manager's routing rule.
    fn least_loaded_worker(&self) -> usize {
        self.workers
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.pool_len())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

impl Protocol for FloNode {
    type Msg = FloMsg;

    fn node_id(&self) -> NodeId {
        self.me
    }

    fn is_syncing(&self) -> bool {
        FloNode::is_syncing(self)
    }

    fn on_start(&mut self, out: &mut Outbox<FloMsg>) {
        // A node restored from disk first re-emits its recovered prefix, so
        // the delivery stream observed after a restart is the complete
        // ledger from round 0. These blocks are already in the block log —
        // they are deliberately not re-persisted.
        for delivery in std::mem::take(&mut self.replay) {
            out.observe(Observation::FloDelivery {
                worker: delivery.worker,
                round: delivery.round,
            });
            out.deliver(delivery);
        }
        for w in 0..self.workers.len() {
            let mut sub = Outbox::new();
            self.workers[w].on_start(&mut sub);
            self.absorb(w, sub, out);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: FloMsg, out: &mut Outbox<FloMsg>) {
        let w = msg.worker.as_usize();
        if w >= self.workers.len() {
            return;
        }
        let mut sub = Outbox::new();
        self.workers[w].on_message(from, msg.inner, &mut sub);
        self.absorb(w, sub, out);
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<FloMsg>) {
        let (w, inner) = Self::unwrap_timer(timer);
        if w >= self.workers.len() {
            return;
        }
        let mut sub = Outbox::new();
        self.workers[w].on_timer(inner, &mut sub);
        self.absorb(w, sub, out);
    }

    fn on_transaction(&mut self, tx: Transaction, out: &mut Outbox<FloMsg>) {
        let w = self.least_loaded_worker();
        let mut sub = Outbox::new();
        self.workers[w].on_transaction(tx, &mut sub);
        self.absorb(w, sub, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validity::AcceptAll;
    use fireledger_crypto::SimKeyStore;
    use fireledger_sim::{SimConfig, Simulation};
    use fireledger_types::Round;
    use std::sync::Arc;
    use std::time::Duration;

    impl FloNode {
        /// Total blocks released to the application so far.
        fn released_blocks(&self) -> u64 {
            self.released
        }
    }

    fn flo_cluster(n: usize, workers: usize, batch: usize) -> Vec<FloNode> {
        let params = ProtocolParams::new(n)
            .with_workers(workers)
            .with_batch_size(batch)
            .with_tx_size(64)
            .with_base_timeout(Duration::from_millis(20));
        let crypto: SharedCrypto = SimKeyStore::generate(n, 11).shared();
        (0..n)
            .map(|i| {
                FloNode::new(
                    NodeId(i as u32),
                    params.clone(),
                    crypto.clone(),
                    Arc::new(AcceptAll),
                )
            })
            .collect()
    }

    #[test]
    fn timer_wrapping_roundtrips() {
        let id = TimerId::compose(1, 12345);
        let wrapped = FloNode::wrap_timer(7, id);
        let (w, inner) = FloNode::unwrap_timer(wrapped);
        assert_eq!(w, 7);
        assert_eq!(inner, id);
    }

    #[test]
    fn multi_worker_flo_makes_progress_on_all_workers() {
        let mut sim = Simulation::new(SimConfig::ideal(), flo_cluster(4, 3, 5));
        sim.run_for(Duration::from_millis(500));
        let node = sim.node(NodeId(0));
        for w in 0..3 {
            assert!(
                node.worker(w).chain().len() > 5,
                "worker {w} should have decided blocks, got {}",
                node.worker(w).chain().len()
            );
        }
        assert!(node.released_blocks() > 0);
    }

    #[test]
    fn deliveries_are_round_robin_across_workers() {
        let mut sim = Simulation::new(SimConfig::ideal(), flo_cluster(4, 3, 5));
        sim.run_for(Duration::from_millis(500));
        let deliveries = sim.deliveries(NodeId(1));
        assert!(deliveries.len() >= 6);
        for (i, d) in deliveries.iter().enumerate() {
            assert_eq!(
                d.worker,
                WorkerId((i % 3) as u32),
                "delivery {i} out of worker order"
            );
            assert_eq!(
                d.round,
                Round((i / 3) as u64),
                "delivery {i} out of round order"
            );
        }
    }

    #[test]
    fn all_nodes_release_the_same_merged_sequence() {
        let mut sim = Simulation::new(SimConfig::ideal(), flo_cluster(4, 2, 4));
        sim.run_for(Duration::from_millis(400));
        let seq = |n: u32| {
            sim.deliveries(NodeId(n))
                .iter()
                .map(|d| (d.worker, d.round, d.block.header.payload_hash))
                .collect::<Vec<_>>()
        };
        let reference = seq(0);
        assert!(!reference.is_empty());
        for i in 1..4 {
            let other = seq(i);
            let common = reference.len().min(other.len());
            assert_eq!(other[..common], reference[..common], "node {i} diverged");
        }
    }

    #[test]
    fn client_manager_routes_to_least_loaded_worker() {
        let params = ProtocolParams::new(4)
            .with_workers(3)
            .with_fill_blocks(false);
        let crypto: SharedCrypto = SimKeyStore::generate(4, 1).shared();
        let mut node = FloNode::new(NodeId(0), params, crypto, Arc::new(AcceptAll));
        let mut out = Outbox::new();
        for i in 0..9 {
            node.on_transaction(Transaction::zeroed(1, i, 8), &mut out);
        }
        // 9 transactions spread evenly across 3 workers.
        for w in 0..3 {
            assert_eq!(node.worker(w).pool_len(), 3, "worker {w} unbalanced");
        }
    }

    #[test]
    fn recovery_stops_at_a_gap_in_a_workers_rounds() {
        use fireledger_store::FsyncPolicy;
        use fireledger_types::{BlockHeader, Bytes, Signature, SignedHeader, GENESIS_HASH};
        let stored = |round: u64| {
            let header = BlockHeader::new(
                Round(round),
                WorkerId(0),
                NodeId((round % 4) as u32),
                GENESIS_HASH,
                GENESIS_HASH,
                0,
                0,
            );
            let signed_header = SignedHeader::new(header, Signature(Bytes::copy_from_slice(b"s")));
            let block = StoredBlock {
                worker: WorkerId(0),
                signed_header,
                txs: vec![],
            };
            (REC_BLOCK, block.encode())
        };
        // Rounds 0, 1, then 3: round 2 is missing from the log.
        let recovered = RecoveredState {
            blocks: [0, 1, 3].into_iter().map(stored).collect(),
            wal: Vec::new(),
        };
        let dir = std::env::temp_dir().join(format!("fireledger-flo-gap-{}", std::process::id()));
        let (store, _) = NodeStore::open(&dir, FsyncPolicy::OsDefault).unwrap();
        let params = ProtocolParams::new(4).with_workers(1);
        let crypto: SharedCrypto = SimKeyStore::generate(4, 1).shared();
        let node = FloNode::recover_from_disk(
            NodeId(0),
            params,
            crypto,
            Arc::new(AcceptAll),
            Arc::new(store),
            &recovered,
        );
        assert_eq!(node.worker(0).chain().len(), 2, "the gap ends the prefix");
        assert_eq!(node.released_blocks(), 2);
        drop(node);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_worker_flo_matches_plain_worker_behaviour() {
        let mut sim = Simulation::new(SimConfig::ideal(), flo_cluster(4, 1, 5));
        sim.run_for(Duration::from_millis(300));
        let node = sim.node(NodeId(0));
        assert_eq!(node.worker_count(), 1);
        assert_eq!(
            node.released_blocks() as usize,
            sim.deliveries(NodeId(0)).len()
        );
        assert!(node.released_blocks() > 3);
    }
}
