//! The runtime-agnostic protocol abstraction.
//!
//! Every protocol in this workspace (FireLedger, WRB/OBBC, PBFT, Bracha RB,
//! HotStuff, the BFT-SMaRt-style ordering baseline) is written as a *sans-IO
//! state machine*: it never performs I/O or looks at a clock. Instead it
//! reacts to events — an incoming message, an expired timer, a client
//! transaction — and records the effects it wants (send a message, arm a
//! timer, deliver a block, charge CPU time) into an [`Outbox`].
//!
//! Two runtimes drive these state machines:
//! * the discrete-event simulator in `fireledger-sim`, which also models link
//!   latency, per-node bandwidth, and CPU cost, and
//! * the real-time socket runtime in `fireledger-net`, which uses real
//!   sockets, threads, and wall-clock timers.
//!
//! Keeping protocols free of I/O makes them unit-testable deterministically
//! and lets a single implementation back both the correctness tests and every
//! performance experiment.

use crate::block::Block;
use crate::ids::{NodeId, Round, WorkerId};
use crate::transaction::Transaction;
use std::fmt;
use std::time::Duration;

/// A protocol-scoped timer identifier.
///
/// Protocols encode whatever they need (round number, purpose) into the `u64`;
/// the runtime treats it as opaque. Re-arming a timer with an id that is
/// already armed replaces the previous deadline.
///
/// # Bit layout
///
/// The 64 bits are split into three *disjoint* fields so that composing a
/// timer can never alias another field (an earlier revision let the FLO
/// worker index spill into the sequence bits):
///
/// ```text
///   63       56 55       48 47                               0
///  +-----------+-----------+----------------------------------+
///  |   kind    |  worker   |             sequence             |
///  +-----------+-----------+----------------------------------+
/// ```
///
/// * `kind` — the protocol-level purpose tag passed to [`TimerId::compose`];
/// * `worker` — the FLO worker instance, set only through
///   [`TimerId::with_worker`] (0 for single-instance protocols);
/// * `sequence` — a 48-bit protocol counter (round number, generation, ...).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub u64);

impl TimerId {
    /// Number of bits available for the sequence field.
    pub const SEQ_BITS: u32 = 48;
    /// Mask of the sequence field.
    pub const SEQ_MASK: u64 = (1 << Self::SEQ_BITS) - 1;
    /// Bit offset of the worker field.
    pub const WORKER_SHIFT: u32 = 48;
    /// Bit offset of the kind field.
    pub const KIND_SHIFT: u32 = 56;
    /// Exclusive upper bound on worker indices a timer id can carry, and hence
    /// on the number of FLO workers per node.
    pub const MAX_WORKERS: usize = 256;

    /// Packs a `kind` tag and a sequence number (for example a round) into one
    /// timer id. The worker field is left at zero; multi-instance protocols
    /// tag it afterwards with [`TimerId::with_worker`].
    ///
    /// # Panics
    /// Panics if `seq` does not fit the 48-bit sequence field — a silent mask
    /// would let two distinct protocol timers collide.
    pub fn compose(kind: u8, seq: u64) -> TimerId {
        assert!(
            seq <= Self::SEQ_MASK,
            "timer sequence {seq} exceeds the 48-bit field"
        );
        TimerId(((kind as u64) << Self::KIND_SHIFT) | seq)
    }

    /// Reverses [`TimerId::compose`]: the `(kind, sequence)` pair. The worker
    /// field is *not* part of the sequence; use [`TimerId::worker`] for it.
    pub fn decompose(self) -> (u8, u64) {
        ((self.0 >> Self::KIND_SHIFT) as u8, self.0 & Self::SEQ_MASK)
    }

    /// Returns this id with the worker field set to `worker`.
    ///
    /// # Panics
    /// Panics if `worker` does not fit the 8-bit worker field.
    pub fn with_worker(self, worker: WorkerId) -> TimerId {
        assert!(
            (worker.as_usize()) < Self::MAX_WORKERS,
            "worker index {worker} exceeds the timer id worker field"
        );
        let cleared = self.0 & !(0xFF << Self::WORKER_SHIFT);
        TimerId(cleared | ((worker.0 as u64) << Self::WORKER_SHIFT))
    }

    /// The worker field (0 when the timer was never tagged).
    pub fn worker(self) -> WorkerId {
        WorkerId(((self.0 >> Self::WORKER_SHIFT) & 0xFF) as u32)
    }

    /// Returns this id with the worker field cleared — the id as the worker
    /// that armed it originally composed it.
    pub fn without_worker(self) -> TimerId {
        TimerId(self.0 & !(0xFF << Self::WORKER_SHIFT))
    }
}

impl fmt::Debug for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, seq) = self.decompose();
        let worker = self.worker();
        if worker.0 == 0 {
            write!(f, "Timer({kind}:{seq})")
        } else {
            write!(f, "Timer({kind}:{worker}:{seq})")
        }
    }
}

/// A block delivered definitively (totally ordered) to the application.
#[derive(Clone, Debug, PartialEq)]
pub struct Delivery {
    /// Worker instance the block belongs to.
    pub worker: WorkerId,
    /// Round in which the block was proposed.
    pub round: Round,
    /// The node that proposed the block.
    pub proposer: NodeId,
    /// The block itself.
    pub block: Block,
}

/// CPU work to be charged to the node by the simulator's CPU model.
///
/// Protocols report *what* cryptographic work they performed; the simulator
/// translates it into time using a calibrated cost model (`fireledger-crypto`
/// measures real signing / verification / hashing rates). The real-time runtime
/// ignores these charges because it pays the real CPU cost directly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuCharge {
    /// Number of ECDSA signatures produced.
    pub signs: u32,
    /// Number of ECDSA signature verifications performed.
    pub verifies: u32,
    /// Number of payload bytes hashed (block bodies, merkle leaves, ...).
    pub hashed_bytes: u64,
}

impl CpuCharge {
    /// A charge for a single signature over `bytes` hashed bytes.
    pub fn sign(bytes: u64) -> Self {
        CpuCharge {
            signs: 1,
            verifies: 0,
            hashed_bytes: bytes,
        }
    }

    /// A charge for a single verification over `bytes` hashed bytes.
    pub fn verify(bytes: u64) -> Self {
        CpuCharge {
            signs: 0,
            verifies: 1,
            hashed_bytes: bytes,
        }
    }

    /// A charge for hashing `bytes` bytes.
    pub fn hash(bytes: u64) -> Self {
        CpuCharge {
            signs: 0,
            verifies: 0,
            hashed_bytes: bytes,
        }
    }

    /// Merges two charges.
    pub fn merge(self, other: CpuCharge) -> CpuCharge {
        CpuCharge {
            signs: self.signs + other.signs,
            verifies: self.verifies + other.verifies,
            hashed_bytes: self.hashed_bytes + other.hashed_bytes,
        }
    }

    /// True when no work is recorded.
    pub fn is_zero(&self) -> bool {
        self.signs == 0 && self.verifies == 0 && self.hashed_bytes == 0
    }
}

/// Protocol-level observations used by the experiment harness for metrics.
///
/// The five lettered events correspond to Figure 9 of the paper: (A) block
/// proposal, (B) header proposal, (C) tentative decision, (D) definite
/// decision, (E) delivery by FLO.
#[derive(Clone, Debug, PartialEq)]
pub enum Observation {
    /// (A) A proposer assembled and disseminated a block body.
    BlockProposed {
        /// Worker instance.
        worker: WorkerId,
        /// Round of the block.
        round: Round,
        /// Number of transactions in the block.
        tx_count: u32,
        /// Payload bytes in the block.
        payload_bytes: u64,
    },
    /// (B) A proposer sent the block's header through the consensus path.
    HeaderProposed {
        /// Worker instance.
        worker: WorkerId,
        /// Round of the header.
        round: Round,
    },
    /// (C) The block of `round` was tentatively appended to the local chain.
    TentativeDecision {
        /// Worker instance.
        worker: WorkerId,
        /// Round of the block.
        round: Round,
    },
    /// (D) The block of `round` became definite (depth `f + 2`).
    DefiniteDecision {
        /// Worker instance.
        worker: WorkerId,
        /// Round of the block.
        round: Round,
        /// Number of transactions in the block.
        tx_count: u32,
        /// Payload bytes in the block.
        payload_bytes: u64,
    },
    /// (E) FLO's client manager delivered the block to the application in
    /// round-robin order across workers.
    FloDelivery {
        /// Worker instance.
        worker: WorkerId,
        /// Round of the block.
        round: Round,
    },
    /// The optimistic fast path failed and the OBBC fallback was invoked.
    FallbackInvoked {
        /// Worker instance.
        worker: WorkerId,
        /// Round for which the fallback ran.
        round: Round,
    },
    /// A node detected a chain inconsistency and started the recovery
    /// procedure (Algorithm 3).
    RecoveryStarted {
        /// Worker instance.
        worker: WorkerId,
        /// Round the recovery targets.
        round: Round,
    },
    /// The recovery procedure finished and a version was adopted.
    RecoveryFinished {
        /// Worker instance.
        worker: WorkerId,
        /// Round the recovery targeted.
        round: Round,
        /// Number of blocks in the adopted version suffix.
        adopted_len: usize,
    },
    /// A proof of Byzantine behaviour was generated against `culprit`.
    ByzantineDetected {
        /// The node the proof incriminates.
        culprit: NodeId,
    },
    /// A WRB delivery returned `nil` (the proposer was skipped).
    NilDelivery {
        /// Worker instance.
        worker: WorkerId,
        /// Round that returned nil.
        round: Round,
    },
    /// A delivered header's claimed (lagged) execution state root diverged
    /// from this node's own execution of the same committed prefix — a
    /// typed, counted execution fault (WIRE_FORMAT.md §12).
    ExecRootMismatch {
        /// Worker instance whose delivery stream carried the bad claim.
        worker: WorkerId,
        /// Round of the header carrying the mismatching root.
        round: Round,
    },
    /// A state-sync cycle completed and the worker resumed normal consensus.
    SyncCompleted {
        /// Worker instance.
        worker: WorkerId,
        /// The round the worker resumed at (its post-sync tip).
        round: Round,
        /// Cumulative rounds this worker has fetched through state sync.
        fetched: u64,
    },
}

/// An effect requested by a protocol state machine.
//
// `Deliver` dwarfs the other variants (the header now carries the lagged
// execution state root), but boxing it would cost an allocation per
// delivered block on the hot path for a value that is consumed immediately.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Action<M> {
    /// Send `msg` to a single peer.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: M,
    },
    /// Send `msg` to every other node in the cluster (excluding self).
    Broadcast {
        /// The message.
        msg: M,
    },
    /// Arm (or re-arm) a timer that will fire after `delay`.
    SetTimer {
        /// Timer identity (protocol-scoped).
        id: TimerId,
        /// Delay until expiry.
        delay: Duration,
    },
    /// Cancel a previously armed timer; a no-op if it is not armed.
    CancelTimer {
        /// Timer identity.
        id: TimerId,
    },
    /// Deliver a definitively decided block to the application.
    Deliver(Delivery),
    /// Charge CPU work to the node (simulated runtimes only).
    Cpu(CpuCharge),
    /// Report a protocol-level observation for metrics collection.
    Observe(Observation),
}

/// Collects the [`Action`]s produced while handling a single event.
#[derive(Debug)]
pub struct Outbox<M> {
    actions: Vec<Action<M>>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox {
            actions: Vec::new(),
        }
    }
}

impl<M> Outbox<M> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a unicast message.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Queues a broadcast to all other nodes.
    pub fn broadcast(&mut self, msg: M) {
        self.actions.push(Action::Broadcast { msg });
    }

    /// Arms a timer.
    pub fn set_timer(&mut self, id: TimerId, delay: Duration) {
        self.actions.push(Action::SetTimer { id, delay });
    }

    /// Cancels a timer.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer { id });
    }

    /// Delivers a block to the application.
    pub fn deliver(&mut self, delivery: Delivery) {
        self.actions.push(Action::Deliver(delivery));
    }

    /// Charges CPU work (ignored by non-simulated runtimes).
    pub fn cpu(&mut self, charge: CpuCharge) {
        if !charge.is_zero() {
            self.actions.push(Action::Cpu(charge));
        }
    }

    /// Records an observation for metrics.
    pub fn observe(&mut self, obs: Observation) {
        self.actions.push(Action::Observe(obs));
    }

    /// Number of queued actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when no actions are queued.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Drains the queued actions in FIFO order.
    pub fn drain(&mut self) -> impl Iterator<Item = Action<M>> + '_ {
        self.actions.drain(..)
    }

    /// Consumes the outbox and returns its actions.
    pub fn into_actions(self) -> Vec<Action<M>> {
        self.actions
    }

    /// Appends all actions of `other` (used when a parent protocol wraps a
    /// sub-protocol's outbox).
    pub fn extend(&mut self, other: Outbox<M>) {
        self.actions.extend(other.actions);
    }

    /// Maps the message type, wrapping every queued message with `f`. This is
    /// how composite protocols (e.g. FireLedger embedding PBFT) lift the
    /// sub-protocol's messages into their own message enum.
    pub fn map_msgs<N>(self, mut f: impl FnMut(M) -> N) -> Outbox<N> {
        let actions = self
            .actions
            .into_iter()
            .map(|a| match a {
                Action::Send { to, msg } => Action::Send { to, msg: f(msg) },
                Action::Broadcast { msg } => Action::Broadcast { msg: f(msg) },
                Action::SetTimer { id, delay } => Action::SetTimer { id, delay },
                Action::CancelTimer { id } => Action::CancelTimer { id },
                Action::Deliver(d) => Action::Deliver(d),
                Action::Cpu(c) => Action::Cpu(c),
                Action::Observe(o) => Action::Observe(o),
            })
            .collect();
        Outbox { actions }
    }
}

/// A sans-IO protocol state machine.
///
/// The runtime guarantees that calls into a single protocol instance are
/// serialized (no concurrent calls), that messages between a pair of correct
/// nodes are neither lost, duplicated nor reordered (reliable FIFO links, the
/// paper's §3.1 link model), and that an armed timer eventually fires unless
/// cancelled or re-armed.
pub trait Protocol {
    /// The protocol's wire message type.
    type Msg: Clone + fmt::Debug;

    /// The node this instance runs on.
    fn node_id(&self) -> NodeId;

    /// Called once before any other event is delivered.
    fn on_start(&mut self, out: &mut Outbox<Self::Msg>);

    /// Called when a message from `from` arrives.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, out: &mut Outbox<Self::Msg>);

    /// Called when the timer `timer` fires.
    fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<Self::Msg>);

    /// Called when a client submits a transaction to this node. The default
    /// implementation ignores client traffic (some sub-protocols never see
    /// clients).
    fn on_transaction(&mut self, _tx: Transaction, _out: &mut Outbox<Self::Msg>) {}

    /// True while the node is catching up through state sync and must not
    /// accept client work it could lose. Ingress admission mirrors this into
    /// a `Syncing` backpressure signal. Protocols without a sync phase keep
    /// the default.
    fn is_syncing(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockHeader, GENESIS_HASH};
    use crate::ids::{NodeId, Round, WorkerId};

    #[test]
    fn timer_id_compose_roundtrip() {
        let t = TimerId::compose(3, 123_456);
        assert_eq!(t.decompose(), (3, 123_456));
        let t = TimerId::compose(255, 0);
        assert_eq!(t.decompose(), (255, 0));
        let t = TimerId::compose(7, TimerId::SEQ_MASK);
        assert_eq!(t.decompose(), (7, TimerId::SEQ_MASK));
    }

    #[test]
    fn timer_id_worker_field_is_disjoint_from_kind_and_seq() {
        // The regression this layout fixes: tagging a worker must never change
        // the kind or the sequence, for any worker index the field admits.
        for worker in [0u32, 1, 7, 255] {
            let t = TimerId::compose(0xAB, 0x1234_5678_9ABC).with_worker(WorkerId(worker));
            assert_eq!(t.decompose(), (0xAB, 0x1234_5678_9ABC), "worker {worker}");
            assert_eq!(t.worker(), WorkerId(worker));
            assert_eq!(t.without_worker(), TimerId::compose(0xAB, 0x1234_5678_9ABC));
        }
    }

    #[test]
    fn timer_id_retagging_replaces_the_worker() {
        let t = TimerId::compose(1, 42).with_worker(WorkerId(200));
        let r = t.with_worker(WorkerId(3));
        assert_eq!(r.worker(), WorkerId(3));
        assert_eq!(r.decompose(), (1, 42));
    }

    #[test]
    fn timer_ids_differ_across_any_field() {
        let base = TimerId::compose(1, 1).with_worker(WorkerId(1));
        assert_ne!(base, TimerId::compose(2, 1).with_worker(WorkerId(1)));
        assert_ne!(base, TimerId::compose(1, 2).with_worker(WorkerId(1)));
        assert_ne!(base, TimerId::compose(1, 1).with_worker(WorkerId(2)));
    }

    #[test]
    #[should_panic(expected = "exceeds the 48-bit field")]
    fn timer_id_rejects_oversized_sequences() {
        let _ = TimerId::compose(0, TimerId::SEQ_MASK + 1);
    }

    #[test]
    #[should_panic(expected = "worker field")]
    fn timer_id_rejects_oversized_worker_indices() {
        let _ = TimerId::compose(0, 0).with_worker(WorkerId(256));
    }

    #[test]
    fn cpu_charge_merge_and_zero() {
        let a = CpuCharge::sign(100);
        let b = CpuCharge::verify(50);
        let m = a.merge(b).merge(CpuCharge::hash(10));
        assert_eq!(m.signs, 1);
        assert_eq!(m.verifies, 1);
        assert_eq!(m.hashed_bytes, 160);
        assert!(!m.is_zero());
        assert!(CpuCharge::default().is_zero());
    }

    #[test]
    fn outbox_collects_in_order() {
        let mut out: Outbox<u32> = Outbox::new();
        out.send(NodeId(1), 10);
        out.broadcast(20);
        out.set_timer(TimerId(5), Duration::from_millis(1));
        out.cancel_timer(TimerId(5));
        out.cpu(CpuCharge::sign(1));
        out.cpu(CpuCharge::default()); // zero charge is dropped
        assert_eq!(out.len(), 5);
        let kinds: Vec<_> = out
            .drain()
            .map(|a| match a {
                Action::Send { .. } => "send",
                Action::Broadcast { .. } => "bcast",
                Action::SetTimer { .. } => "set",
                Action::CancelTimer { .. } => "cancel",
                Action::Cpu(_) => "cpu",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["send", "bcast", "set", "cancel", "cpu"]);
        assert!(out.is_empty());
    }

    #[test]
    fn outbox_map_msgs_wraps_messages_only() {
        let mut out: Outbox<u32> = Outbox::new();
        out.send(NodeId(0), 1);
        out.set_timer(TimerId(1), Duration::from_secs(1));
        out.broadcast(2);
        let mapped: Outbox<String> = out.map_msgs(|m| format!("m{m}"));
        let actions = mapped.into_actions();
        assert_eq!(actions.len(), 3);
        match &actions[0] {
            Action::Send { msg, .. } => assert_eq!(msg, "m1"),
            other => panic!("unexpected {other:?}"),
        }
        match &actions[2] {
            Action::Broadcast { msg } => assert_eq!(msg, "m2"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn outbox_deliver_and_observe() {
        let header = BlockHeader::new(
            Round(1),
            WorkerId(0),
            NodeId(0),
            GENESIS_HASH,
            GENESIS_HASH,
            0,
            0,
        );
        let mut out: Outbox<u32> = Outbox::new();
        out.deliver(Delivery {
            worker: WorkerId(0),
            round: Round(1),
            proposer: NodeId(0),
            block: Block::new(header, vec![]),
        });
        out.observe(Observation::TentativeDecision {
            worker: WorkerId(0),
            round: Round(1),
        });
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn outbox_extend_concatenates() {
        let mut a: Outbox<u32> = Outbox::new();
        a.broadcast(1);
        let mut b: Outbox<u32> = Outbox::new();
        b.broadcast(2);
        a.extend(b);
        assert_eq!(a.len(), 2);
    }
}
