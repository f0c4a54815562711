//! One FireLedger worker: the round-based optimistic blockchain protocol of
//! Algorithm 2, with the recovery procedure of Algorithm 3.
//!
//! A worker is a full [`Protocol`] state machine, so it can be simulated or
//! run on threads on its own; a FLO node (see [`crate::flo`]) simply runs ω of
//! them side by side.
//!
//! ## How a round works (optimistic case, Figure 1)
//!
//! * The round's proposer assembles a block from its transaction pool,
//!   disseminates the **body** on the data path, and its **signed header** on
//!   the consensus path. In steady state the header rides piggybacked on the
//!   proposer's single-bit vote for the previous round, so no extra message is
//!   needed; after a failed attempt (`full_mode`) it is pushed explicitly.
//! * Every node validates the header (signature, parent hash, body present,
//!   external validity) and broadcasts a single-bit vote. Seeing `n − f`
//!   votes that are all "deliver" is a **fast decision**: the block is
//!   appended tentatively, and the block `f + 1` rounds back becomes
//!   definite.
//! * If votes are mixed or the proposer timed out, the worker falls back to
//!   its BFT consensus layer (a PBFT instance standing in for BFT-SMaRt,
//!   exactly as in Figure 3): every node submits its vote plus evidence, and
//!   the first `n − f` ordered fallback votes determine the outcome (deliver
//!   iff any of them carries the proposer's signed header). A negative outcome
//!   rotates the proposer and retries the round. Both paths are the OBBC of
//!   Algorithm 4, whose per-attempt vote state lives in the `obbc` module.
//! * If a decided header does **not** extend the local chain — the signature
//!   is fine but the parent hash disagrees, the signature of an equivocating
//!   proposer — the worker reliably-broadcasts a [`PanicProof`] and runs the
//!   recovery procedure: every node submits its last `f + 1` blocks through
//!   the consensus layer, the first `n − f` valid versions are collected, the
//!   longest (first-received among the longest) is adopted, and normal
//!   operation resumes. Definite blocks are never rewritten.

use crate::chain::{Chain, Version};
use crate::fd::FailureDetector;
use crate::messages::{ConsensusValue, PanicProof, WorkerMsg};
use crate::obbc::{Attempt, Step};
use crate::proposer::ProposerRotation;
use crate::sync::{ReplyGate, SyncStep, Synchronizer, TIMER_SYNC};
use crate::timer::EmaTimer;
use crate::txpool::TxPool;
use crate::validity::{structurally_consistent, SharedValidity};
use fireledger_bft::{Pbft, PbftConfig, ReliableBroadcast, PBFT_TIMER_KIND};
use fireledger_crypto::{hash_header, merkle_root_into, verify_header_cached, SharedCrypto};
use fireledger_exec::{prefix_for_header, root_lag, ClaimCheck, ExecShared};
use fireledger_types::runtime::CpuCharge;
use fireledger_types::{
    Block, BlockHeader, Delivery, Hash, NodeId, Observation, Outbox, Protocol, ProtocolParams,
    Round, SignedHeader, SyncMsg, TimerId, Transaction, WorkerId, MAX_SYNC_BODIES,
    MAX_SYNC_HEADERS,
};
use std::collections::{HashMap, HashSet};

/// Timer kind used for the per-round WRB delivery timeout.
const TIMER_ROUND: u8 = 1;

/// Votes arriving this many rounds ahead of the current attempt mean the
/// cluster has definitively moved on without us (a healed partition, a long
/// pause): trigger a state-sync fetch instead of waiting for normal traffic
/// to replay the gap.
const SYNC_LAG_THRESHOLD: u64 = 8;

/// State of an ongoing recovery procedure (Algorithm 3).
#[derive(Debug)]
struct RecoveryState {
    /// The round the recovery was invoked for.
    round: Round,
    /// First round covered by exchanged versions (`round − (f+1)`).
    base: Round,
    /// Valid versions in atomic-broadcast order: (submitter, version).
    versions: Vec<(NodeId, Version)>,
    contributors: HashSet<NodeId>,
}

/// One FireLedger worker instance.
pub struct Worker {
    me: NodeId,
    worker_id: WorkerId,
    params: ProtocolParams,
    crypto: SharedCrypto,
    validity: SharedValidity,

    chain: Chain,
    txpool: TxPool,
    rotation: ProposerRotation,
    timer: EmaTimer,
    fd: FailureDetector,

    // Current attempt.
    round: Round,
    proposer: NodeId,
    voted: bool,
    full_mode: bool,

    // Sub-protocols.
    pbft: Pbft<ConsensusValue>,
    rb: ReliableBroadcast<PanicProof>,

    // Knowledge gathered from the network.
    headers: HashMap<(Round, NodeId), SignedHeader>,
    /// Block bodies keyed by their merkle root: a body is stored only under
    /// the root it hashes to (see [`Worker::store_body`]).
    bodies: HashMap<Hash, Vec<Transaction>>,
    /// Payload hashes whose body has been structurally validated (and its
    /// hashing cost charged) already.
    validated_bodies: HashSet<Hash>,
    /// Scratch for merkle leaf digests, reused across blocks so steady-state
    /// payload hashing allocates nothing.
    leaf_scratch: Vec<Hash>,
    /// OBBC vote state per `(round, proposer)` attempt.
    attempts: HashMap<(Round, NodeId), Attempt>,
    /// Attempt decided "deliver" but still missing the header or the body.
    pending_finish: Option<(Round, NodeId)>,
    requested_headers: HashSet<(Round, NodeId)>,
    requested_bodies: HashSet<Hash>,

    /// Rounds of our own proposals whose header was already disseminated
    /// (either pushed or piggybacked).
    my_header_sent: HashSet<Round>,

    recovery: Option<RecoveryState>,
    recoveries_started: HashSet<Round>,

    /// The state-sync (catch-up) machine. While it is active the worker
    /// pauses normal attempt progress, exactly like during recovery.
    sync: Synchronizer,
    /// Set by [`Worker::begin_sync`] before the protocol starts; honored on
    /// the first [`Protocol::on_start`].
    sync_wanted: bool,

    /// Next definite chain index still to be handed to the application.
    next_to_deliver: usize,

    /// Durable store for the consensus WAL, when the node was built with
    /// one. Votes are written here *before* they are broadcast.
    store: Option<std::sync::Arc<fireledger_store::NodeStore>>,
    /// The pipelined execution engine for this worker's delivery stream,
    /// when the cluster runs with execution enabled (see
    /// [`Worker::set_exec`]). `None` — the default — keeps the worker a
    /// pure ordering machine and its headers free of execution roots.
    exec: Option<ExecShared>,
    /// Votes replayed from the WAL after a restart, keyed by attempt: a
    /// restarted worker re-casts exactly the vote its pre-kill self already
    /// sent for an attempt, so a kill-restart can never equivocate.
    persisted_votes: HashMap<(Round, NodeId), bool>,
    /// Header hashes locked by a persisted *true* vote: re-affirming such a
    /// vote additionally requires the header now in view to carry the same
    /// hash the pre-kill vote endorsed.
    locked: HashMap<Round, Hash>,
}

impl Worker {
    /// Creates worker `worker_id` of node `me`.
    pub fn new(
        me: NodeId,
        worker_id: WorkerId,
        params: ProtocolParams,
        crypto: SharedCrypto,
        validity: SharedValidity,
    ) -> Self {
        let cluster = params.cluster;
        let pbft_cfg = PbftConfig::new(cluster)
            .with_timeout((params.base_timeout * 10).max(std::time::Duration::from_millis(200)));
        let rotation = ProposerRotation::new(cluster);
        let proposer = rotation.initial();
        Worker {
            me,
            worker_id,
            timer: EmaTimer::new(params.base_timeout, params.max_timeout, params.ema_window),
            fd: FailureDetector::new(cluster.f, params.base_timeout * params.fd_suspect_threshold),
            chain: Chain::new(cluster),
            txpool: TxPool::new(1_000_000 + me.0 as u64 * 1_000 + worker_id.0 as u64)
                .with_fill_ops(params.fill_ops),
            rotation,
            round: Round(0),
            proposer,
            voted: false,
            full_mode: true,
            pbft: Pbft::new(me, pbft_cfg),
            rb: ReliableBroadcast::new(me, cluster),
            headers: HashMap::new(),
            bodies: HashMap::new(),
            validated_bodies: HashSet::new(),
            leaf_scratch: Vec::new(),
            attempts: HashMap::new(),
            pending_finish: None,
            requested_headers: HashSet::new(),
            requested_bodies: HashSet::new(),
            my_header_sent: HashSet::new(),
            recovery: None,
            recoveries_started: HashSet::new(),
            sync: Synchronizer::new(me, cluster.n, params.base_timeout * 2),
            sync_wanted: false,
            next_to_deliver: 0,
            store: None,
            exec: None,
            persisted_votes: HashMap::new(),
            locked: HashMap::new(),
            params,
            crypto,
            validity,
        }
    }

    // ------------------------------------------------------------------
    // Accessors (used by FLO, tests and the benchmark harness)
    // ------------------------------------------------------------------

    /// This worker's instance id.
    pub fn worker_id(&self) -> WorkerId {
        self.worker_id
    }

    /// The node this worker runs on.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// The local chain.
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// The current round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Whether a state-sync (catch-up) fetch is in progress.
    pub fn is_syncing(&self) -> bool {
        self.sync.is_active()
    }

    /// Total rounds this worker has caught up through state-sync fetches.
    pub fn sync_rounds_fetched(&self) -> u64 {
        self.sync.rounds_fetched()
    }

    /// Requests a state-sync cycle on the worker's next start: probe the
    /// cluster's definite tips and range-fetch any gap before joining normal
    /// consensus. Used by a node restored from disk (its WAL tip may be far
    /// behind) and by late-joining nodes. A worker that turns out *not* to be
    /// behind resumes immediately.
    pub fn begin_sync(&mut self) {
        self.sync_wanted = true;
    }

    /// Overrides the synchronizer's request batch sizes (clamped to the wire
    /// caps; tests use this to exercise arbitrary range-split schedules).
    pub fn set_sync_batches(&mut self, headers: usize, bodies: usize) {
        self.sync.set_batches(headers, bodies);
    }

    /// Number of pending transactions in the pool (FLO's least-loaded worker
    /// routing uses this).
    pub fn pool_len(&self) -> usize {
        self.txpool.len()
    }

    // ------------------------------------------------------------------
    // Durable store (consensus WAL + restart-from-disk recovery)
    // ------------------------------------------------------------------

    /// Attaches the node's durable store: from now on every round entry and
    /// every cast vote is appended to the consensus WAL (votes strictly
    /// before their broadcast leaves the outbox). A store append failure —
    /// disk full, dead volume — flags the store failed and the worker keeps
    /// running in memory; durability degrades, consensus does not.
    pub fn set_store(&mut self, store: std::sync::Arc<fireledger_store::NodeStore>) {
        self.store = Some(store);
    }

    /// Attaches the pipelined execution engine to this worker's delivery
    /// stream: every block delivered from now on is enqueued for execution
    /// behind the commit frontier, the worker's own headers carry the lagged
    /// execution root (see [`fireledger_exec::root_lag`]), and delivered
    /// headers' claimed roots are cross-checked against local execution
    /// (a mismatch surfaces as [`Observation::ExecRootMismatch`]).
    ///
    /// Any definite prefix already restored from disk is fed to the executor
    /// first, so call order against [`Worker::restore_definite_block`] does
    /// not matter — the executor ignores rounds it has already consumed.
    pub fn set_exec(&mut self, exec: ExecShared) {
        for idx in 0..self.next_to_deliver {
            if let Some(entry) = self.chain.get(Round(idx as u64)) {
                if let Some(body) = &entry.body {
                    exec.enqueue(idx as u64, body);
                }
            }
        }
        self.exec = Some(exec);
    }

    /// The attached execution engine, when [`Worker::set_exec`] installed
    /// one (tests and the report harness read stats through it).
    pub fn exec(&self) -> Option<&ExecShared> {
        self.exec.as_ref()
    }

    /// The execution-root lag of this cluster: header `k` carries the root
    /// of the executed prefix through round `k − (f+3)`.
    fn exec_lag(&self) -> u64 {
        root_lag(self.params.f() as u32)
    }

    /// Appends one WAL entry, swallowing (but not hiding — the store flags
    /// itself failed) storage errors.
    fn wal_append(&self, rec: &fireledger_types::WalRecord) {
        if let Some(store) = &self.store {
            let _ = store.append_wal(rec.kind(), rec.encode_payload());
        }
    }

    /// Replays one persisted block during restart-from-disk recovery:
    /// appends it to the chain definite (see [`Chain::restore_definite`])
    /// and refreshes the rotation bookkeeping, exactly as the original
    /// decision did.
    pub fn restore_definite_block(&mut self, signed: SignedHeader, block: Block) {
        if let Some(exec) = &self.exec {
            // Re-feed the recovered prefix to the executor in order; rounds
            // it already consumed are ignored.
            exec.enqueue(signed.round().0, &block);
        }
        self.rotation
            .record_decided(signed.proposer(), signed.round());
        self.chain.restore_definite(signed, Some(block));
    }

    /// Replays one consensus-WAL entry during restart-from-disk recovery.
    pub fn restore_wal(&mut self, rec: &fireledger_types::WalRecord) {
        match rec {
            // Round entries are a monotone progress marker (diagnostics and
            // future state transfer); replay does not jump rounds on their
            // word — only decided blocks advance the chain.
            fireledger_types::WalRecord::Round { .. } => {}
            fireledger_types::WalRecord::Vote {
                round,
                proposer,
                vote,
                ..
            } => {
                self.persisted_votes.insert((*round, *proposer), *vote);
            }
            fireledger_types::WalRecord::Locked {
                round, header_hash, ..
            } => {
                self.locked.insert(*round, *header_hash);
            }
        }
    }

    /// Finishes restart-from-disk recovery after every persisted block and
    /// WAL entry has been replayed: the worker resumes at the round after
    /// its definite prefix, in full (explicit-header) mode, with nothing
    /// left to re-deliver — the orchestrator replays the delivery stream
    /// itself.
    pub fn finish_restore(&mut self) {
        self.round = self.chain.next_round();
        self.full_mode = true;
        self.next_to_deliver = self.chain.definite_len();
    }

    // ------------------------------------------------------------------
    // Round machinery
    // ------------------------------------------------------------------

    fn round_timer_id(&self) -> TimerId {
        TimerId::compose(TIMER_ROUND, self.round.0)
    }

    /// The attempt record for `key`, created empty on first use.
    fn attempt(&mut self, key: (Round, NodeId)) -> &mut Attempt {
        let n = self.params.n();
        self.attempts.entry(key).or_insert_with(|| Attempt::new(n))
    }

    fn begin_attempt(&mut self, candidate: NodeId, out: &mut Outbox<WorkerMsg>) {
        let choice = self.rotation.select(candidate, self.round);
        if self
            .rotation
            .skip_touches_recent_proposers(&choice.skipped, self.round)
        {
            // §6.1.1: invalidate the suspected list whenever the skip rule
            // bypasses one of the last f proposers.
            self.fd.invalidate();
        }
        self.proposer = choice.proposer;
        self.voted = false;
        if self.store.is_some() {
            self.wal_append(&fireledger_types::WalRecord::Round {
                worker: self.worker_id,
                round: self.round,
                proposer: self.proposer,
            });
        }

        // If we are this round's proposer and our header is not out yet
        // (no piggyback opportunity existed), push it now.
        if self.proposer == self.me && !self.my_header_sent.contains(&self.round) {
            self.propose_own_block(out);
        }

        // The proposer's header may already be known (piggybacked earlier).
        self.maybe_vote(out);

        if !self.voted {
            if self.fd.is_suspected(self.proposer) {
                // Benign FD: do not wait for a suspected node.
                self.cast_vote(false, out);
            } else {
                out.set_timer(self.round_timer_id(), self.timer.current());
            }
        }
        self.check_current_attempt(out);
    }

    /// Assembles, signs and disseminates this node's block for the current
    /// round (the `full_mode` / explicit path).
    fn propose_own_block(&mut self, out: &mut Outbox<WorkerMsg>) {
        let Some(signed) = self.build_own_header(self.round, self.chain.tip_hash(), out) else {
            // Execution root not available yet (transient, e.g. mid
            // state-sync): skip this proposal rather than sign a header we
            // cannot stamp. The round resolves by timeout and the rotation
            // preserves liveness.
            return;
        };
        out.broadcast(WorkerMsg::Header {
            header: signed.clone(),
        });
        out.observe(Observation::HeaderProposed {
            worker: self.worker_id,
            round: self.round,
        });
        self.my_header_sent.insert(self.round);
        self.headers.insert((self.round, self.me), signed);
    }

    /// Builds (and signs) our header for `round` on top of `parent`, also
    /// broadcasting the block body on the data path. Reuses nothing: each call
    /// produces a fresh batch from the pool.
    ///
    /// Returns `None` — without consuming any transactions — when execution
    /// is enabled but the lagged root for `round` is not locally available
    /// yet, so the caller skips the proposal instead of signing an
    /// unstampable header.
    fn build_own_header(
        &mut self,
        round: Round,
        parent: Hash,
        out: &mut Outbox<WorkerMsg>,
    ) -> Option<SignedHeader> {
        // Execution root for the header (WIRE_FORMAT.md §12): the canonical
        // state root of the executed prefix through round `k − (f+3)`, the
        // newest round guaranteed definite when a header for round `k` is
        // built. Resolved before the batch is taken so a skipped proposal
        // loses nothing.
        let exec_root = match &self.exec {
            None => None,
            Some(exec) => Some(exec.prefix_root(prefix_for_header(round.0, self.exec_lag()))?),
        };
        let txs = self.txpool.take_batch(
            self.params.batch_size,
            self.params.tx_size,
            self.params.fill_blocks,
        );
        let payload_hash = merkle_root_into(&txs, &mut self.leaf_scratch);
        let payload_bytes: u64 = txs.iter().map(|t| t.payload.len() as u64).sum();
        let mut header = BlockHeader::new(
            round,
            self.worker_id,
            self.me,
            parent,
            payload_hash,
            txs.len() as u32,
            payload_bytes,
        );
        if let Some(root) = exec_root {
            // Stamped strictly before signing: the root is part of the
            // canonical (signed) header bytes.
            header = header.with_exec_root(root);
        }
        let signature = self.crypto.sign(self.me, &header.canonical_bytes());
        // Signing a block = hashing its payload + one ECDSA signature (§7.1).
        out.cpu(CpuCharge::sign(payload_bytes));
        out.observe(Observation::BlockProposed {
            worker: self.worker_id,
            round,
            tx_count: txs.len() as u32,
            payload_bytes,
        });
        // Data path: ship the body immediately.
        out.broadcast(WorkerMsg::BlockData {
            payload_hash,
            txs: txs.clone(),
        });
        self.bodies.insert(payload_hash, txs);
        self.validated_bodies.insert(payload_hash);
        Some(SignedHeader::new(header, signature))
    }

    /// Returns the header of the current attempt if we have it and it is
    /// acceptable to vote for: correct proposer and round, valid signature
    /// (checked at reception), body present, chains from our tip, and passes
    /// the external validity predicate.
    fn votable_header(&mut self, out: &mut Outbox<WorkerMsg>) -> Option<SignedHeader> {
        let signed = self.headers.get(&(self.round, self.proposer))?.clone();
        let header = &signed.header;
        if header.parent != self.chain.tip_hash() {
            return None;
        }
        let txs = self.bodies.get(&header.payload_hash)?;
        let body = Block::new(header.clone(), txs.clone());
        // A stored body hashes to the key it is stored under, so the block's
        // compute-once root cache is seeded with that key: the structural
        // check (and any hashing application predicate) never re-hashes β
        // transactions.
        body.payload_root_cache()
            .get_or_init(|| header.payload_hash);
        if !self.validated_bodies.contains(&header.payload_hash) {
            // Hashing the payload to check the merkle commitment (done when
            // the body arrived; charged here, once per body).
            out.cpu(CpuCharge::hash(header.payload_bytes));
            self.validated_bodies.insert(header.payload_hash);
        }
        if !structurally_consistent(header, &body) {
            return None;
        }
        if !self.validity.is_valid(header, &body) {
            return None;
        }
        Some(signed)
    }

    fn maybe_vote(&mut self, out: &mut Outbox<WorkerMsg>) {
        if self.voted || self.recovery.is_some() || self.sync.is_active() {
            return;
        }
        if self.votable_header(out).is_some() {
            self.cast_vote(true, out);
        }
    }

    fn cast_vote(&mut self, vote: bool, out: &mut Outbox<WorkerMsg>) {
        if self.voted {
            return;
        }
        // A vote already persisted for this attempt (by our pre-kill self,
        // replayed from the WAL) binds us: re-cast the same value, and
        // re-affirm *true* only when the header now in view is the one the
        // persisted vote locked — anything else would be equivocation
        // against our own signed past.
        let vote = match self.persisted_votes.get(&(self.round, self.proposer)) {
            Some(&true) => match (
                self.locked.get(&self.round),
                self.headers.get(&(self.round, self.proposer)),
            ) {
                (Some(locked), Some(signed)) => hash_header(&signed.header) == *locked,
                (None, _) => true,
                _ => false,
            },
            Some(&false) => false,
            None => vote,
        };
        self.voted = true;
        out.cancel_timer(self.round_timer_id());

        // Piggyback our next block's header when we are the next proposer in
        // the rotation and the current attempt looks deliverable (Figure 1).
        let mut piggyback = None;
        if vote && self.rotation.successor(self.proposer) == self.me {
            let next_round = self.round.next();
            if !self.my_header_sent.contains(&next_round) {
                // Hash through the *stored* header so the memoized digest is
                // computed on (and cached by) the long-lived value.
                let parent = hash_header(
                    &self
                        .headers
                        .get(&(self.round, self.proposer))
                        .expect("voting 1 implies the header is known")
                        .header,
                );
                // A `None` here (execution root transiently unavailable)
                // simply forgoes the piggyback; the next round's explicit
                // propose path retries.
                if let Some(signed) = self.build_own_header(next_round, parent, out) {
                    out.observe(Observation::HeaderProposed {
                        worker: self.worker_id,
                        round: next_round,
                    });
                    self.my_header_sent.insert(next_round);
                    self.headers.insert((next_round, self.me), signed.clone());
                    piggyback = Some(signed);
                }
            }
        }

        // Persist before broadcast: once the vote is on the wire it must
        // survive a kill, or the restarted node could vote differently.
        if self.store.is_some() {
            self.wal_append(&fireledger_types::WalRecord::Vote {
                worker: self.worker_id,
                round: self.round,
                proposer: self.proposer,
                vote,
            });
            if vote {
                if let Some(signed) = self.headers.get(&(self.round, self.proposer)) {
                    let header_hash = hash_header(&signed.header);
                    self.wal_append(&fireledger_types::WalRecord::Locked {
                        worker: self.worker_id,
                        round: self.round,
                        header_hash,
                    });
                }
            }
        }
        out.broadcast(WorkerMsg::Vote {
            round: self.round,
            proposer: self.proposer,
            vote,
            piggyback,
        });
        let me = self.me;
        self.attempt((self.round, self.proposer))
            .record_own_vote(me, vote);
        self.check_current_attempt(out);
    }

    // ------------------------------------------------------------------
    // Attempt resolution (OBBC fast path + fallback)
    // ------------------------------------------------------------------

    fn check_current_attempt(&mut self, out: &mut Outbox<WorkerMsg>) {
        if self.recovery.is_some() || self.sync.is_active() {
            return;
        }
        let key = (self.round, self.proposer);
        let quorum = self.params.quorum();
        // Loop: submitting our fallback vote may order enough votes to
        // decide at once.
        loop {
            let Some(attempt) = self.attempts.get_mut(&key) else {
                return;
            };
            match attempt.step(quorum, self.voted) {
                Step::Wait => return,
                Step::Fallback => self.submit_fallback_vote(key, out),
                Step::Decide(true) => return self.finish_delivery(key, out),
                Step::Decide(false) => return self.nil_attempt(out),
            }
        }
    }

    fn submit_fallback_vote(&mut self, key: (Round, NodeId), out: &mut Outbox<WorkerMsg>) {
        let me = self.me;
        let attempt = self.attempt(key);
        if !attempt.mark_submitted() {
            return;
        }
        let my_vote = attempt.vote_of(me).unwrap_or(false);
        out.observe(Observation::FallbackInvoked {
            worker: self.worker_id,
            round: key.0,
        });
        let evidence = if my_vote {
            self.headers.get(&key).cloned()
        } else {
            None
        };
        let value = ConsensusValue::FallbackVote {
            round: key.0,
            proposer: key.1,
            voter: self.me,
            vote: my_vote,
            evidence,
        };
        let mut sub = Outbox::new();
        let delivered = self.pbft.submit(value, &mut sub);
        out.extend(sub.map_msgs(WorkerMsg::Consensus));
        for (_, v) in delivered {
            self.handle_consensus_value(v, out);
        }
    }

    /// The current attempt decided "deliver": append the block if we have all
    /// its pieces (pulling whatever is missing), validate it against the
    /// chain, and either advance to the next round or start recovery.
    fn finish_delivery(&mut self, key: (Round, NodeId), out: &mut Outbox<WorkerMsg>) {
        let (round, proposer) = key;
        let Some(stored) = self.headers.get(&key) else {
            // Decided to deliver but we never saw the header: pull it
            // (Algorithm 1, lines 22–24).
            self.pending_finish = Some(key);
            if self.requested_headers.insert(key) {
                out.broadcast(WorkerMsg::PullHeader { round, proposer });
            }
            return;
        };
        let payload_hash = stored.header.payload_hash;
        if !self.bodies.contains_key(&payload_hash) {
            self.pending_finish = Some(key);
            if self.requested_bodies.insert(payload_hash) {
                out.broadcast(WorkerMsg::PullBlock { payload_hash });
            }
            return;
        }
        self.pending_finish = None;

        // Chain validation (Algorithm 2, line b4) through the *stored*
        // header value, so the signature verdict memoized at reception is a
        // cache read; what can still fail is the hash link. Clone only after
        // validating — clones reset the memo.
        let valid = self
            .chain
            .validate_extension(stored, self.crypto.as_ref())
            .is_ok();
        let signed = stored.clone();
        if !valid {
            self.panic_and_recover(signed, out);
            return;
        }

        let txs = self.bodies[&signed.header.payload_hash].clone();
        let block = Block::new(signed.header.clone(), txs);
        self.txpool.remove_included(block.txs.iter());
        self.chain.append(signed.clone(), Some(block));
        self.rotation.record_decided(proposer, round);
        self.fd.record_alive(proposer);
        self.timer.record_delivery(self.params.base_timeout / 4);
        out.observe(Observation::TentativeDecision {
            worker: self.worker_id,
            round,
        });

        self.finalize_and_deliver(out);

        // Advance to the next round.
        self.full_mode = false;
        self.round = self.round.next();
        let candidate = self.rotation.successor(proposer);
        self.begin_attempt(candidate, out);
    }

    /// The attempt decided "skip": rotate the proposer and retry the round.
    fn nil_attempt(&mut self, out: &mut Outbox<WorkerMsg>) {
        out.observe(Observation::NilDelivery {
            worker: self.worker_id,
            round: self.round,
        });
        self.timer.record_miss();
        self.fd.record_wait(self.proposer, self.timer.current());
        self.full_mode = true;
        let candidate = self.rotation.successor(self.proposer);
        self.begin_attempt(candidate, out);
    }

    /// Marks deep blocks definite and delivers them (in order) to the
    /// application, provided their bodies are known.
    fn finalize_and_deliver(&mut self, out: &mut Outbox<WorkerMsg>) {
        for round in self.chain.finalize_deep_blocks() {
            if let Some(entry) = self.chain.get(round) {
                out.observe(Observation::DefiniteDecision {
                    worker: self.worker_id,
                    round,
                    tx_count: entry.signed_header.header.tx_count,
                    payload_bytes: entry.signed_header.header.payload_bytes,
                });
            }
        }
        self.try_deliver_definite(out);
    }

    fn try_deliver_definite(&mut self, out: &mut Outbox<WorkerMsg>) {
        while self.next_to_deliver < self.chain.definite_len() {
            let round = Round(self.next_to_deliver as u64);
            let entry = self
                .chain
                .get(round)
                .expect("definite entries exist")
                .clone();
            let Some(body) = entry.body else {
                // Body still missing: pull it and stop (deliveries are in
                // order).
                let payload_hash = entry.signed_header.header.payload_hash;
                if self.requested_bodies.insert(payload_hash) {
                    out.broadcast(WorkerMsg::PullBlock { payload_hash });
                }
                return;
            };
            if let Some(exec) = &self.exec {
                // Committed, immutable block → execution pipeline, at the
                // deterministic delivery point (inline under the simulator,
                // stage-thread hand-off under the real-time runtimes).
                exec.enqueue(round.0, &body);
                if let Some(claimed) = entry.signed_header.header.exec_root {
                    let prefix = prefix_for_header(round.0, self.exec_lag());
                    if let ClaimCheck::Mismatch(_) = exec.expect_prefix(prefix, round.0, claimed) {
                        out.observe(Observation::ExecRootMismatch {
                            worker: self.worker_id,
                            round,
                        });
                    }
                }
            }
            out.deliver(Delivery {
                worker: self.worker_id,
                round,
                proposer: entry.signed_header.proposer(),
                block: body,
            });
            self.next_to_deliver += 1;
        }
    }

    // ------------------------------------------------------------------
    // Recovery (Algorithm 3)
    // ------------------------------------------------------------------

    fn panic_and_recover(&mut self, conflicting: SignedHeader, out: &mut Outbox<WorkerMsg>) {
        let detected_round = conflicting.round();
        out.observe(Observation::ByzantineDetected {
            culprit: conflicting.proposer(),
        });
        let local_parent = detected_round
            .0
            .checked_sub(1)
            .and_then(|r| self.chain.get(Round(r)))
            .map(|e| e.signed_header.clone());
        let proof = PanicProof {
            detected_round,
            conflicting,
            local_parent,
        };
        let mut sub = Outbox::new();
        self.rb.broadcast(proof, &mut sub);
        out.extend(sub.map_msgs(WorkerMsg::Panic));
        self.start_recovery(detected_round, out);
    }

    fn start_recovery(&mut self, round: Round, out: &mut Outbox<WorkerMsg>) {
        if self.recovery.is_some() || self.recoveries_started.contains(&round) {
            return;
        }
        self.recoveries_started.insert(round);
        out.observe(Observation::RecoveryStarted {
            worker: self.worker_id,
            round,
        });
        out.cancel_timer(self.round_timer_id());
        let f = self.params.f() as u64;
        let base = round.minus(f + 1);
        let version = if self.chain.next_round() < base {
            // We are too far behind: submit the empty version (Algorithm 3,
            // lines 3–4).
            Vec::new()
        } else {
            self.chain.version_from(base)
        };
        self.recovery = Some(RecoveryState {
            round,
            base,
            versions: Vec::new(),
            contributors: HashSet::new(),
        });
        let value = ConsensusValue::RecoveryVersion {
            recovery_round: round,
            from: self.me,
            version,
        };
        let mut sub = Outbox::new();
        let delivered = self.pbft.submit(value, &mut sub);
        out.extend(sub.map_msgs(WorkerMsg::Consensus));
        for (_, v) in delivered {
            self.handle_consensus_value(v, out);
        }
    }

    fn handle_recovery_version(
        &mut self,
        recovery_round: Round,
        from: NodeId,
        version: Version,
        out: &mut Outbox<WorkerMsg>,
    ) {
        // A version for a recovery we have not joined yet doubles as the
        // trigger to join it (the RB proof may still be in flight).
        if self.recovery.is_none() && !self.recoveries_started.contains(&recovery_round) {
            self.start_recovery(recovery_round, out);
        }
        let Some(state) = self.recovery.as_mut() else {
            return;
        };
        if state.round != recovery_round || state.contributors.contains(&from) {
            return;
        }
        let base = state.base;
        // Validate the version; invalid versions are simply not counted
        // (Algorithm 3, lines 11–14).
        // The verdicts seed each header's memo, so the anchor check below
        // reads them instead of verifying again.
        let all_sigs_ok = version
            .iter()
            .all(|h| verify_header_cached(self.crypto.as_ref(), h));
        let valid = if version.is_empty() {
            true
        } else if self.chain.next_round() >= base {
            let r = if all_sigs_ok {
                self.chain
                    .validate_version(base, &version, self.crypto.as_ref())
            } else {
                Err(fireledger_types::Error::InvalidSignature {
                    signer: from,
                    context: "recovery version signature".into(),
                })
            };
            out.cpu(CpuCharge {
                signs: 0,
                verifies: version.len() as u32,
                hashed_bytes: 0,
            });
            r.is_ok()
        } else {
            // Too far behind to anchor-check; accept on signatures alone.
            all_sigs_ok
        };
        let state = self.recovery.as_mut().expect("still recovering");
        if !valid {
            return;
        }
        state.contributors.insert(from);
        state.versions.push((from, version));
        if state.versions.len() >= self.params.quorum() {
            self.complete_recovery(out);
        }
    }

    fn complete_recovery(&mut self, out: &mut Outbox<WorkerMsg>) {
        let state = self.recovery.take().expect("recovery in progress");
        // Adopt the first-received among the longest versions (Algorithm 3,
        // lines 16–17). Atomic broadcast gives every correct node the same
        // order, hence the same choice.
        let longest = state
            .versions
            .iter()
            .map(|(_, v)| v.len())
            .max()
            .unwrap_or(0);
        let adopted = state
            .versions
            .iter()
            .find(|(_, v)| v.len() == longest)
            .map(|(_, v)| v.clone())
            .unwrap_or_default();
        let adopted_len = adopted.len();

        if self.chain.next_round() >= state.base
            && adopted_len > 0
            && self
                .chain
                .adopt_version(state.base, adopted.clone())
                .is_ok()
        {
            // Refresh rotation bookkeeping for the adopted suffix.
            for signed in &adopted {
                self.rotation
                    .record_decided(signed.proposer(), signed.round());
            }
        }

        // Drop attempt state for every round the recovery may have replaced.
        let base = state.base;
        self.attempts.retain(|(r, _), _| *r < base);
        self.headers.retain(|(r, p), _| *r < base || *p == self.me);
        self.pending_finish = None;
        self.my_header_sent.retain(|r| *r < base);

        self.fd.invalidate();
        self.timer.reset();
        self.full_mode = true;
        self.round = self.chain.next_round();
        out.observe(Observation::RecoveryFinished {
            worker: self.worker_id,
            round: state.round,
            adopted_len,
        });

        self.finalize_and_deliver(out);

        let candidate = self
            .chain
            .entries()
            .last()
            .map(|e| self.rotation.successor(e.proposer()))
            .unwrap_or_else(|| self.rotation.initial());
        self.begin_attempt(candidate, out);
    }

    // ------------------------------------------------------------------
    // Incoming message handling
    // ------------------------------------------------------------------

    /// Stores an inbound body announced under `payload_hash`, hashing it
    /// first: a body whose merkle root is not the announced hash is dropped,
    /// so a junk body can never occupy the slot of the genuine one. Returns
    /// whether `bodies` now holds the body for `payload_hash` (a body stored
    /// earlier is not hashed again).
    fn store_body(&mut self, payload_hash: Hash, txs: Vec<Transaction>) -> bool {
        if self.bodies.contains_key(&payload_hash) {
            return true;
        }
        if merkle_root_into(&txs, &mut self.leaf_scratch) != payload_hash {
            return false;
        }
        self.bodies.insert(payload_hash, txs);
        true
    }

    fn store_header(&mut self, from: NodeId, signed: SignedHeader, out: &mut Outbox<WorkerMsg>) {
        let header = &signed.header;
        if header.worker != self.worker_id {
            return;
        }
        // Headers are only accepted from their claimed proposer (no relaying
        // on the optimistic path) and must carry a valid signature.
        if header.proposer != from {
            return;
        }
        let key = (header.round, header.proposer);
        if self.headers.contains_key(&key) {
            return;
        }
        out.cpu(CpuCharge::verify(0));
        // Memoized on the value: the verdict is remembered for the stored
        // header, so chain validation later reads it.
        if !verify_header_cached(self.crypto.as_ref(), &signed) {
            return;
        }
        self.headers.insert(key, signed);
        if key == (self.round, self.proposer) {
            self.maybe_vote(out);
        }
        if self.pending_finish == Some(key) {
            self.finish_delivery(key, out);
        }
    }

    fn handle_vote(
        &mut self,
        from: NodeId,
        round: Round,
        proposer: NodeId,
        vote: bool,
        piggyback: Option<SignedHeader>,
        out: &mut Outbox<WorkerMsg>,
    ) {
        if let Some(signed) = piggyback {
            self.store_header(from, signed, out);
        }
        self.attempt((round, proposer)).record_vote(from, vote);
        if (round, proposer) == (self.round, self.proposer) {
            self.maybe_vote(out);
            self.check_current_attempt(out);
        }
        // Lag detection: a vote far ahead of our current attempt means the
        // cluster decided many rounds without us (healed partition, long
        // pause). Fetch the definite gap instead of limping behind.
        if round.0 >= self.round.0 + SYNC_LAG_THRESHOLD
            && self.recovery.is_none()
            && !self.sync.is_active()
        {
            let mut sub = Outbox::new();
            self.sync.begin(&mut sub);
            out.extend(sub.map_msgs(WorkerMsg::Sync));
        }
    }

    fn handle_consensus_value(&mut self, value: ConsensusValue, out: &mut Outbox<WorkerMsg>) {
        match value {
            ConsensusValue::FallbackVote {
                round,
                proposer,
                voter,
                vote: _,
                evidence,
            } => {
                let key = (round, proposer);
                // Validate the evidence before counting it (the external
                // validity of OBBC_v).
                let evidence = evidence.filter(|signed| {
                    signed.round() == round
                        && signed.proposer() == proposer
                        && verify_header_cached(self.crypto.as_ref(), signed)
                });
                let has_evidence = evidence.is_some();
                if let Some(signed) = evidence {
                    // The evidence also tells us the header, useful if we
                    // never saw it on the optimistic path.
                    self.headers.entry(key).or_insert(signed);
                }
                let attempt = self.attempt(key);
                attempt.record_fallback(voter, has_evidence);
                // Participation rule (Algorithm 4, lines OB26–OB27): if the
                // fallback is running for an attempt we already resolved
                // optimistically, contribute our vote so it can terminate.
                if attempt.is_resolved() {
                    self.submit_fallback_vote(key, out);
                }
                if key == (self.round, self.proposer) {
                    self.check_current_attempt(out);
                }
            }
            ConsensusValue::RecoveryVersion {
                recovery_round,
                from,
                version,
            } => {
                self.handle_recovery_version(recovery_round, from, version, out);
            }
        }
    }

    fn handle_panic_proof(&mut self, proof: PanicProof, out: &mut Outbox<WorkerMsg>) {
        // Validate the proof's signatures (Algorithm 2, line b12: "a valid
        // proof"). A bogus proof can at worst trigger a redundant recovery,
        // never a safety violation.
        let crypto = self.crypto.as_ref();
        if std::iter::once(&proof.conflicting)
            .chain(proof.local_parent.as_ref())
            .all(|h| verify_header_cached(crypto, h))
        {
            self.start_recovery(proof.detected_round, out);
        }
    }

    // ------------------------------------------------------------------
    // State sync (late-join / catch-up block fetch)
    // ------------------------------------------------------------------

    /// Handles a [`SyncMsg`]: the serving side answers probes and range
    /// requests out of the definite prefix (capped batches, never more than
    /// asked); the requesting side feeds replies into the synchronizer and
    /// performs the two verification steps it delegates — header-chain
    /// validation *before* any body download, and per-body merkle checks
    /// against the verified headers before splicing.
    fn handle_sync_msg(&mut self, from: NodeId, msg: SyncMsg, out: &mut Outbox<WorkerMsg>) {
        match msg {
            // -------- serving side --------
            SyncMsg::TipProbe { req } => {
                out.send(
                    from,
                    WorkerMsg::Sync(SyncMsg::TipReply {
                        req,
                        definite: Round(self.chain.definite_len() as u64),
                    }),
                );
            }
            SyncMsg::GetHeaders { req, from: lo, to } => {
                let hi =
                    to.0.min(lo.0.saturating_add(MAX_SYNC_HEADERS as u64))
                        .min(self.chain.definite_len() as u64);
                let mut headers = Vec::new();
                for r in lo.0..hi {
                    let Some(entry) = self.chain.get(Round(r)) else {
                        break;
                    };
                    headers.push(entry.signed_header.clone());
                }
                out.send(
                    from,
                    WorkerMsg::Sync(SyncMsg::HeadersReply {
                        req,
                        from: lo,
                        headers,
                    }),
                );
            }
            SyncMsg::GetBlocks { req, from: lo, to } => {
                let hi =
                    to.0.min(lo.0.saturating_add(MAX_SYNC_BODIES as u64))
                        .min(self.chain.definite_len() as u64);
                let mut bodies = Vec::new();
                for r in lo.0..hi {
                    let Some(block) = self.chain.get(Round(r)).and_then(|e| e.body.as_ref()) else {
                        break;
                    };
                    bodies.push(block.txs.clone());
                }
                out.send(
                    from,
                    WorkerMsg::Sync(SyncMsg::BlocksReply {
                        req,
                        from: lo,
                        bodies,
                    }),
                );
            }
            // -------- requesting side --------
            SyncMsg::TipReply { req, definite } => {
                let mut sub = Outbox::new();
                let step =
                    self.sync
                        .on_tip_reply(from, req, definite, self.chain.next_round(), &mut sub);
                out.extend(sub.map_msgs(WorkerMsg::Sync));
                if step == SyncStep::CaughtUp {
                    self.resume_after_sync(out);
                }
            }
            SyncMsg::HeadersReply {
                req,
                from: lo,
                headers,
            } => {
                let candidate = match self.sync.on_headers_reply(from, req, lo, headers) {
                    ReplyGate::Ignore => return,
                    ReplyGate::Bad => None,
                    ReplyGate::Candidate(headers) => Some(headers),
                };
                // Header-chain verification before a single body byte is
                // requested: signature checks seed each header's memo, then
                // the hash chain and the f+1-distinct-proposers rule are
                // checked against our own tip.
                let verified = candidate.filter(|headers| {
                    let sigs_ok = headers
                        .iter()
                        .all(|h| verify_header_cached(self.crypto.as_ref(), h));
                    out.cpu(CpuCharge {
                        signs: 0,
                        verifies: headers.len() as u32,
                        hashed_bytes: 0,
                    });
                    sigs_ok
                        && self
                            .chain
                            .validate_version(
                                self.chain.next_round(),
                                headers,
                                self.crypto.as_ref(),
                            )
                            .is_ok()
                });
                let mut sub = Outbox::new();
                let step = match verified {
                    Some(headers) => self.sync.headers_verified(headers, &mut sub),
                    None => self.sync.peer_failed(self.chain.next_round(), &mut sub),
                };
                out.extend(sub.map_msgs(WorkerMsg::Sync));
                if step == SyncStep::CaughtUp {
                    self.resume_after_sync(out);
                }
            }
            SyncMsg::BlocksReply {
                req,
                from: lo,
                bodies,
            } => {
                let pairs = match self.sync.on_blocks_reply(from, req, lo, bodies) {
                    ReplyGate::Ignore => return,
                    ReplyGate::Bad => None,
                    ReplyGate::Candidate(pairs) => Some(pairs),
                };
                // Each body must hash to the payload commitment of its
                // already-verified header.
                let verified = pairs.filter(|pairs| {
                    pairs.iter().all(|(signed, txs)| {
                        merkle_root_into(txs, &mut self.leaf_scratch) == signed.header.payload_hash
                    })
                });
                let mut sub = Outbox::new();
                let step = match verified {
                    Some(pairs) => {
                        let count = pairs.len();
                        self.splice_fetched(pairs, out);
                        self.sync.spliced(count, &mut sub)
                    }
                    None => self.sync.peer_failed(self.chain.next_round(), &mut sub),
                };
                out.extend(sub.map_msgs(WorkerMsg::Sync));
                if step == SyncStep::CaughtUp {
                    self.resume_after_sync(out);
                }
            }
        }
    }

    /// Appends a verified fetched segment to the chain exactly as a normal
    /// decision would: pool pruning, rotation bookkeeping, then
    /// finalize-and-deliver so the application stream advances in order.
    fn splice_fetched(
        &mut self,
        pairs: Vec<(SignedHeader, Vec<Transaction>)>,
        out: &mut Outbox<WorkerMsg>,
    ) {
        for (signed, txs) in pairs {
            out.cpu(CpuCharge::hash(signed.header.payload_bytes));
            let block = Block::new(signed.header.clone(), txs);
            self.txpool.remove_included(block.txs.iter());
            self.rotation
                .record_decided(signed.proposer(), signed.round());
            self.chain.append(signed, Some(block));
        }
        self.finalize_and_deliver(out);
    }

    /// The synchronizer finished (caught up, or found no gap): resume normal
    /// consensus from the — possibly far advanced — local tip, mirroring how
    /// `complete_recovery` restarts after a version adoption. Votes and
    /// headers gathered while syncing are deliberately kept: they let the
    /// worker resolve the cluster's in-flight rounds through the ordinary
    /// quorum and pull machinery.
    fn resume_after_sync(&mut self, out: &mut Outbox<WorkerMsg>) {
        self.pending_finish = None;
        self.finalize_and_deliver(out);
        if self.round == self.chain.next_round() && self.voted {
            // False-positive trigger: the chain did not move and the current
            // attempt (already voted on) is still live — leave it alone.
            return;
        }
        self.fd.invalidate();
        self.timer.reset();
        self.full_mode = true;
        self.round = self.chain.next_round();
        out.observe(Observation::SyncCompleted {
            worker: self.worker_id,
            round: self.round,
            fetched: self.sync.rounds_fetched(),
        });
        let candidate = self
            .chain
            .entries()
            .last()
            .map(|e| self.rotation.successor(e.proposer()))
            .unwrap_or_else(|| self.rotation.initial());
        self.begin_attempt(candidate, out);
    }
}

impl Protocol for Worker {
    type Msg = WorkerMsg;

    fn node_id(&self) -> NodeId {
        self.me
    }

    fn is_syncing(&self) -> bool {
        Worker::is_syncing(self)
    }

    fn on_start(&mut self, out: &mut Outbox<WorkerMsg>) {
        // A worker asked to state-sync first (restored from disk, late join)
        // probes the cluster before joining consensus; `resume_after_sync`
        // begins the first attempt once the gap — if any — is fetched.
        if self.sync_wanted {
            self.sync_wanted = false;
            let mut sub = Outbox::new();
            self.sync.begin(&mut sub);
            out.extend(sub.map_msgs(WorkerMsg::Sync));
            return;
        }
        // A fresh worker starts from the rotation's initial proposer; a
        // worker restored from disk resumes with the successor of its last
        // decided block's proposer — the same choice `complete_recovery`
        // makes after a version adoption. For an empty chain the two
        // coincide, so the fresh-start behaviour is untouched.
        let candidate = self
            .chain
            .entries()
            .last()
            .map(|e| self.rotation.successor(e.proposer()))
            .unwrap_or_else(|| self.rotation.initial());
        self.begin_attempt(candidate, out);
    }

    fn on_message(&mut self, from: NodeId, msg: WorkerMsg, out: &mut Outbox<WorkerMsg>) {
        match msg {
            WorkerMsg::BlockData { payload_hash, txs } => {
                self.store_body(payload_hash, txs);
                self.maybe_vote(out);
                if let Some(key) = self.pending_finish {
                    self.finish_delivery(key, out);
                }
                self.try_deliver_definite(out);
            }
            WorkerMsg::Header { header } => {
                self.store_header(from, header, out);
            }
            WorkerMsg::Vote {
                round,
                proposer,
                vote,
                piggyback,
            } => {
                self.handle_vote(from, round, proposer, vote, piggyback, out);
            }
            WorkerMsg::PullHeader { round, proposer } => {
                if let Some(signed) = self.headers.get(&(round, proposer)) {
                    out.send(
                        from,
                        WorkerMsg::PullHeaderReply {
                            header: signed.clone(),
                        },
                    );
                }
            }
            WorkerMsg::PullHeaderReply { header } => {
                // Pulled headers may be relayed by nodes other than the
                // proposer; verify the proposer's signature directly.
                let key = (header.round(), header.proposer());
                if !self.headers.contains_key(&key)
                    && verify_header_cached(self.crypto.as_ref(), &header)
                {
                    out.cpu(CpuCharge::verify(0));
                    self.headers.insert(key, header);
                    if self.pending_finish == Some(key) {
                        self.finish_delivery(key, out);
                    }
                    if key == (self.round, self.proposer) {
                        self.maybe_vote(out);
                    }
                }
            }
            WorkerMsg::PullBlock { payload_hash } => {
                if let Some(txs) = self.bodies.get(&payload_hash) {
                    out.send(
                        from,
                        WorkerMsg::PullBlockReply {
                            payload_hash,
                            txs: txs.clone(),
                        },
                    );
                }
            }
            WorkerMsg::PullBlockReply { payload_hash, txs } => {
                // Attach the stored (hence genuine) body to any decided entry
                // still waiting for it.
                if self.store_body(payload_hash, txs) {
                    for round in self.chain.missing_bodies() {
                        if let Some(entry) = self.chain.get(round) {
                            if entry.signed_header.header.payload_hash == payload_hash {
                                let header = entry.signed_header.header.clone();
                                let txs = self.bodies[&payload_hash].clone();
                                self.chain.attach_body(round, Block::new(header, txs));
                            }
                        }
                    }
                }
                self.maybe_vote(out);
                if let Some(key) = self.pending_finish {
                    self.finish_delivery(key, out);
                }
                self.try_deliver_definite(out);
            }
            WorkerMsg::Panic(rb_msg) => {
                let mut sub = Outbox::new();
                let delivered = self.rb.on_message(from, rb_msg, &mut sub);
                out.extend(sub.map_msgs(WorkerMsg::Panic));
                for (_, _, proof) in delivered {
                    self.handle_panic_proof(proof, out);
                }
            }
            WorkerMsg::Consensus(pbft_msg) => {
                let mut sub = Outbox::new();
                let delivered = self.pbft.on_message(from, pbft_msg, &mut sub);
                out.extend(sub.map_msgs(WorkerMsg::Consensus));
                for (_, value) in delivered {
                    self.handle_consensus_value(value, out);
                }
            }
            WorkerMsg::Sync(sync_msg) => {
                self.handle_sync_msg(from, sync_msg, out);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<WorkerMsg>) {
        let (kind, seq) = timer.decompose();
        match kind {
            TIMER_ROUND => {
                if self.recovery.is_some()
                    || self.sync.is_active()
                    || self.voted
                    || seq != self.round.0
                {
                    return;
                }
                // The proposer's message did not arrive in time: vote against
                // delivery (Algorithm 1, lines 11–12).
                self.fd.record_wait(self.proposer, self.timer.current());
                self.cast_vote(false, out);
            }
            PBFT_TIMER_KIND => {
                let mut sub = Outbox::new();
                self.pbft.on_timer(timer, &mut sub);
                out.extend(sub.map_msgs(WorkerMsg::Consensus));
            }
            TIMER_SYNC => {
                let mut sub = Outbox::new();
                let step = self.sync.on_timer(seq, self.chain.next_round(), &mut sub);
                out.extend(sub.map_msgs(WorkerMsg::Sync));
                if step == SyncStep::CaughtUp {
                    self.resume_after_sync(out);
                }
            }
            _ => {}
        }
    }

    fn on_transaction(&mut self, tx: Transaction, _out: &mut Outbox<WorkerMsg>) {
        self.txpool.submit(tx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validity::AcceptAll;
    use fireledger_crypto::SimKeyStore;
    use fireledger_sim::{SimConfig, Simulation};
    use std::sync::Arc;
    use std::time::Duration;

    fn cluster(n: usize, batch: usize) -> Vec<Worker> {
        let params = ProtocolParams::new(n)
            .with_batch_size(batch)
            .with_tx_size(64)
            .with_base_timeout(Duration::from_millis(20));
        let crypto: SharedCrypto = SimKeyStore::generate(n, 7).shared();
        (0..n)
            .map(|i| {
                Worker::new(
                    NodeId(i as u32),
                    WorkerId(0),
                    params.clone(),
                    crypto.clone(),
                    Arc::new(AcceptAll),
                )
            })
            .collect()
    }

    #[test]
    fn fault_free_cluster_grows_identical_chains() {
        let mut sim = Simulation::new(SimConfig::ideal(), cluster(4, 10));
        sim.run_for(Duration::from_millis(500));
        let len0 = sim.node(NodeId(0)).chain().len();
        assert!(
            len0 > 10,
            "chain should grow well beyond 10 blocks, got {len0}"
        );
        // All nodes agree on the definite prefix.
        let reference: Vec<_> = sim
            .node(NodeId(0))
            .chain()
            .entries()
            .iter()
            .take(sim.node(NodeId(0)).chain().definite_len())
            .map(|e| hash_header(&e.signed_header.header))
            .collect();
        for i in 1..4u32 {
            let other: Vec<_> = sim
                .node(NodeId(i))
                .chain()
                .entries()
                .iter()
                .take(reference.len())
                .map(|e| hash_header(&e.signed_header.header))
                .collect();
            assert_eq!(other, reference, "node {i} diverged");
        }
        // No recovery and no fallback in the fault-free run.
        let s = sim.summary();
        assert_eq!(
            s.fallbacks, 0,
            "no fallback expected in the optimistic case"
        );
        assert!(s.recoveries_per_sec == 0.0);
    }

    #[test]
    fn proposers_rotate_round_robin() {
        let mut sim = Simulation::new(SimConfig::ideal(), cluster(4, 5));
        sim.run_for(Duration::from_millis(300));
        let chain = sim.node(NodeId(2)).chain();
        for (i, entry) in chain.entries().iter().enumerate().take(12) {
            assert_eq!(
                entry.proposer(),
                NodeId((i % 4) as u32),
                "block {i} has the wrong proposer"
            );
        }
    }

    #[test]
    fn deliveries_are_definite_ordered_and_full() {
        let mut sim = Simulation::new(SimConfig::ideal(), cluster(4, 8));
        sim.run_for(Duration::from_millis(400));
        let deliveries = sim.deliveries(NodeId(1));
        assert!(!deliveries.is_empty());
        for (i, d) in deliveries.iter().enumerate() {
            assert_eq!(d.round, Round(i as u64));
            assert_eq!(d.block.len(), 8, "blocks are filled to β under load");
        }
        // Delivered prefix is the definite prefix.
        assert!(deliveries.len() <= sim.node(NodeId(1)).chain().definite_len());
    }

    #[test]
    fn crashed_proposer_is_skipped_and_progress_continues() {
        use fireledger_sim::PlanAdversary;
        use fireledger_types::FaultPlan;
        let adv = PlanAdversary::new(FaultPlan::named("crash").crash(NodeId(3), Duration::ZERO));
        let mut sim = Simulation::with_adversary(SimConfig::ideal(), cluster(4, 5), Box::new(adv));
        sim.run_for(Duration::from_secs(2));
        let chain = sim.node(NodeId(0)).chain();
        assert!(
            chain.len() > 6,
            "progress must continue despite the crashed node, got {}",
            chain.len()
        );
        // The crashed node proposed nothing after its crash.
        assert!(chain
            .entries()
            .iter()
            .all(|e| e.proposer() != NodeId(3) || e.round() == Round(3)));
        // Fallbacks were needed for the crashed node's turns.
        let s = sim.summary_for(&[NodeId(0), NodeId(1), NodeId(2)]);
        assert!(s.fallbacks > 0);
    }

    #[test]
    fn client_transactions_end_up_in_decided_blocks() {
        let params_tx = Transaction::new(7, 99, vec![0xAB; 64]);
        let mut workers = cluster(4, 5);
        // Disable filler so only real transactions appear.
        for w in &mut workers {
            w.params.fill_blocks = false;
        }
        let mut sim = Simulation::new(SimConfig::ideal(), workers);
        sim.inject_transaction(NodeId(0), params_tx.clone(), Duration::from_millis(1));
        sim.run_for(Duration::from_millis(500));
        let delivered_txs: Vec<Transaction> = sim
            .deliveries(NodeId(2))
            .iter()
            .flat_map(|d| d.block.txs.clone())
            .collect();
        assert!(
            delivered_txs.contains(&params_tx),
            "the injected transaction must reach every node's delivered prefix"
        );
    }

    #[test]
    fn saturated_run_keeps_one_index_entry_per_filler_client() {
        // Every decided transaction enters each pool's duplicate index.
        // Fillers are dense per (node, worker) client, so after 1 000 blocks
        // of β = 100 the index is one entry per filler client and nothing
        // sparse, not one entry per decided transaction (≥ 100 000).
        let mut sim = Simulation::new(SimConfig::ideal(), cluster(4, 100));
        for _ in 0..200 {
            if sim.deliveries(NodeId(0)).len() >= 1_000 {
                break;
            }
            sim.run_for(Duration::from_millis(100));
        }
        assert!(sim.deliveries(NodeId(0)).len() >= 1_000);
        for i in 0..4 {
            assert_eq!(
                sim.node(NodeId(i)).txpool.index_shape(),
                (4, 0),
                "node {i}: (clients, sparse seqs)"
            );
        }
    }

    #[test]
    fn late_started_worker_catches_up_via_state_sync() {
        let mut sim = Simulation::new(SimConfig::ideal(), cluster(4, 10));
        sim.run_for(Duration::from_millis(300));
        let target = sim.node(NodeId(0)).chain().definite_len();
        assert!(target > 10, "cluster should be well ahead, got {target}");

        // Kill-restart node 3 as a *fresh* worker (empty chain) in sync mode:
        // it must fetch the whole prefix instead of replaying history.
        let params = ProtocolParams::new(4)
            .with_batch_size(10)
            .with_tx_size(64)
            .with_base_timeout(Duration::from_millis(20));
        let crypto: SharedCrypto = SimKeyStore::generate(4, 7).shared();
        sim.restart_node(NodeId(3), move |_old| {
            let mut w = Worker::new(NodeId(3), WorkerId(0), params, crypto, Arc::new(AcceptAll));
            w.begin_sync();
            w
        });
        sim.run_for(Duration::from_millis(300));

        let fresh = sim.node(NodeId(3));
        assert!(
            fresh.sync_rounds_fetched() >= target as u64,
            "expected at least {target} fetched rounds, got {}",
            fresh.sync_rounds_fetched()
        );
        assert!(!fresh.is_syncing(), "sync must complete");
        // The fetched prefix is byte-identical to the cluster's.
        let reference = sim.node(NodeId(0)).chain();
        let fresh_chain = sim.node(NodeId(3)).chain();
        let common = reference.definite_len().min(fresh_chain.definite_len());
        assert!(common >= target);
        for r in 0..common as u64 {
            assert_eq!(
                hash_header(&fresh_chain.get(Round(r)).unwrap().signed_header.header),
                hash_header(&reference.get(Round(r)).unwrap().signed_header.header),
                "round {r} diverged"
            );
        }
        // Deliveries restart from round 0 — the full ledger, in order.
        let deliveries = sim.deliveries(NodeId(3));
        assert!(deliveries.len() >= target);
        for (i, d) in deliveries.iter().enumerate() {
            assert_eq!(d.round, Round(i as u64));
        }
    }

    #[test]
    fn worker_accessors_report_state() {
        let workers = cluster(4, 5);
        let w = &workers[2];
        assert_eq!(w.node(), NodeId(2));
        assert_eq!(w.worker_id(), WorkerId(0));
        assert_eq!(w.round(), Round(0));
        assert!(w.recovery.is_none());
        assert_eq!(w.pool_len(), 0);
    }

    /// Junk transactions standing in for a Byzantine body: well-formed, but
    /// not the body any header was signed over.
    fn junk_txs(n: usize) -> Vec<Transaction> {
        (0..n as u64)
            .map(|i| Transaction::zeroed(99, i, 64))
            .collect()
    }

    /// Byzantine node 3 sends node 1 a junk body under the payload hash of
    /// round 0's block (proposer: node 0), and the genuine copy reaches
    /// node 1 5 ms later — asynchrony the protocol must tolerate.
    #[derive(Default)]
    struct JunkBodyRace {
        announced: Option<Hash>,
        sent: bool,
    }

    impl fireledger_sim::Adversary<WorkerMsg> for JunkBodyRace {
        fn intercept(
            &mut self,
            from: NodeId,
            to: NodeId,
            msg: WorkerMsg,
            _now: fireledger_sim::SimTime,
        ) -> fireledger_sim::Fate<WorkerMsg> {
            use fireledger_sim::Fate;
            if to != NodeId(1) {
                return Fate::Deliver(msg);
            }
            match (&msg, self.announced) {
                (WorkerMsg::BlockData { payload_hash, .. }, None) if from == NodeId(0) => {
                    self.announced = Some(*payload_hash);
                    Fate::DeliverDelayed(msg, Duration::from_millis(5))
                }
                // Node 3's first message to node 1 after the announcement
                // becomes the junk body.
                (_, Some(payload_hash)) if from == NodeId(3) && !self.sent => {
                    self.sent = true;
                    Fate::Deliver(WorkerMsg::BlockData {
                        payload_hash,
                        txs: junk_txs(8),
                    })
                }
                _ => Fate::Deliver(msg),
            }
        }
    }

    #[test]
    fn junk_body_racing_the_genuine_one_is_dropped_on_arrival() {
        let adversary = Box::new(JunkBodyRace::default());
        let mut sim = Simulation::with_adversary(SimConfig::ideal(), cluster(4, 8), adversary);
        sim.run_for(Duration::from_millis(500));
        let (reference, racer) = (sim.deliveries(NodeId(0)), sim.deliveries(NodeId(1)));
        let common = reference.len().min(racer.len());
        assert!(common > 0, "node 1 delivered nothing");
        assert_eq!(racer[..common], reference[..common], "node 1 diverged");
    }

    #[test]
    fn junk_pull_reply_for_a_decided_round_is_never_delivered() {
        let mut sim = Simulation::new(SimConfig::ideal(), cluster(4, 8));
        sim.run_for(Duration::from_millis(100));
        let entry = sim
            .node(NodeId(0))
            .chain()
            .get(Round(0))
            .expect("round 0 decided")
            .clone();
        let genuine = entry.body.expect("round 0 body").txs;
        let payload_hash = entry.signed_header.header.payload_hash;
        // A worker holding round 0 as definite but without its body (the
        // header-only state recovery or a restore leaves behind).
        let mut w = cluster(4, 8).swap_remove(1);
        w.chain.restore_definite(entry.signed_header, None);
        let mut reply = |txs| {
            let mut out = Outbox::new();
            w.on_message(
                NodeId(3),
                WorkerMsg::PullBlockReply { payload_hash, txs },
                &mut out,
            );
            out.into_actions()
                .into_iter()
                .filter_map(|a| match a {
                    fireledger_types::Action::Deliver(d) => Some(d.block.txs),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert!(reply(junk_txs(genuine.len())).is_empty(), "junk delivered");
        assert_eq!(reply(genuine.clone()), vec![genuine]);
    }

    fn observations(out: Outbox<WorkerMsg>) -> Vec<Observation> {
        out.into_actions()
            .into_iter()
            .filter_map(|a| match a {
                fireledger_types::Action::Observe(o) => Some(o),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn fallback_votes_from_non_members_are_not_counted() {
        let mut workers = cluster(4, 8);
        // Node 0 proposes round 0; node 1 receives its header, body and
        // "deliver" vote, then a "skip" vote from node 3: a mixed quorum.
        let mut out = Outbox::new();
        workers[0].on_start(&mut out);
        let mut header = None;
        let mut w1_inbox = Vec::new();
        for action in out.into_actions() {
            if let fireledger_types::Action::Broadcast { msg } = action {
                if let WorkerMsg::Header { header: signed } = &msg {
                    header = Some(signed.clone());
                }
                w1_inbox.push(msg);
            }
        }
        let header = header.expect("node 0 proposes round 0");
        let w1 = &mut workers[1];
        let mut out = Outbox::new();
        w1.on_start(&mut out);
        for msg in w1_inbox {
            w1.on_message(NodeId(0), msg, &mut out);
        }
        let skip = WorkerMsg::Vote {
            round: Round(0),
            proposer: NodeId(0),
            vote: false,
            piggyback: None,
        };
        w1.on_message(NodeId(3), skip, &mut out);
        assert!(observations(out)
            .iter()
            .any(|o| matches!(o, Observation::FallbackInvoked { .. })));

        // Three ordered fallback votes under ids outside the cluster.
        let fallback = |voter: u32, evidence: Option<SignedHeader>| ConsensusValue::FallbackVote {
            round: Round(0),
            proposer: NodeId(0),
            voter: NodeId(voter),
            vote: evidence.is_some(),
            evidence,
        };
        let mut out = Outbox::new();
        for voter in 4..7 {
            w1.handle_consensus_value(fallback(voter, None), &mut out);
        }
        assert!(
            !observations(out)
                .iter()
                .any(|o| matches!(o, Observation::NilDelivery { .. })),
            "non-member votes decided the attempt"
        );
        assert_eq!((w1.round, w1.proposer), (Round(0), NodeId(0)));

        // The members' fallback votes, which carry evidence, still decide.
        let mut out = Outbox::new();
        for voter in 0..3 {
            w1.handle_consensus_value(fallback(voter, Some(header.clone())), &mut out);
        }
        assert!(observations(out).iter().any(|o| matches!(
            o,
            Observation::TentativeDecision {
                round: Round(0),
                ..
            }
        )));
        assert_eq!(w1.round(), Round(1));
    }
}
