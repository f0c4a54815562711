//! A PBFT-style atomic broadcast — the workspace's stand-in for BFT-SMaRt.
//!
//! The paper's implementation (§6.1.2, Figure 3) uses BFT-SMaRt for two jobs:
//! the **atomic broadcast** that orders recovery versions (Algorithm 3 line 8)
//! and the **fallback consensus** behind OBBC when the optimistic path fails.
//! It is also the baseline ordering service FLO is compared against in
//! Figure 17. This module provides all three, from scratch, with the same
//! communication structure as PBFT/BFT-SMaRt:
//!
//! * a rotating leader assigns sequence numbers with `PrePrepare`;
//! * replicas exchange `Prepare` and `Commit` (each a Byzantine quorum of
//!   `2f+1`), giving the classical three-phase, O(n²)-message pattern;
//! * values are delivered in sequence-number order;
//! * a timeout triggers a view change that rotates the leader and re-proposes
//!   prepared values.
//!
//! The view change carries the reporters' prepared certificates by value; the
//! certificates' signatures are represented but not re-verified here — the
//! adversarial behaviours exercised by the evaluation (crashes, equivocating
//! FireLedger proposers) never forge certificates, and the recovery layer
//! re-validates every adopted block against the proposers' signatures anyway.

use fireledger_types::codec::{CodecError, Reader, WireCodec};
use fireledger_types::runtime::CpuCharge;
use fireledger_types::{ClusterConfig, NodeId, Outbox, TimerId};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// The kind byte of every PBFT view timer: a parent protocol embedding one
/// instance routes the timers of this kind to it.
pub const PBFT_TIMER_KIND: u8 = 0xAB;

/// Configuration of one PBFT instance.
#[derive(Clone, Debug)]
pub struct PbftConfig {
    /// Cluster description (n, f).
    pub cluster: ClusterConfig,
    /// Timeout after which a node that still has undelivered submissions
    /// votes to change the view.
    pub view_timeout: Duration,
}

impl PbftConfig {
    /// A configuration with a 1-second view-change timeout.
    pub fn new(cluster: ClusterConfig) -> Self {
        PbftConfig {
            cluster,
            view_timeout: Duration::from_secs(1),
        }
    }

    /// Builder-style timeout override.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.view_timeout = timeout;
        self
    }
}

/// Wire messages of the PBFT atomic broadcast.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PbftMsg<V> {
    /// A value forwarded to the current leader for ordering.
    Request {
        /// The value to order.
        value: V,
    },
    /// Leader's sequence-number assignment.
    PrePrepare {
        /// View in which the assignment is made.
        view: u64,
        /// Assigned sequence number.
        seq: u64,
        /// The value being ordered.
        value: V,
    },
    /// First voting phase.
    Prepare {
        /// View of the vote.
        view: u64,
        /// Sequence number voted on.
        seq: u64,
        /// Digest of the value.
        digest: u64,
    },
    /// Second voting phase.
    Commit {
        /// View of the vote.
        view: u64,
        /// Sequence number voted on.
        seq: u64,
        /// Digest of the value.
        digest: u64,
    },
    /// Vote to move to `new_view`, carrying the sender's prepared values.
    ViewChange {
        /// The proposed new view.
        new_view: u64,
        /// Sequence/value pairs the sender has prepared but not delivered.
        prepared: Vec<(u64, V)>,
    },
    /// The new leader's re-proposals after a view change.
    NewView {
        /// The view being installed.
        view: u64,
        /// Re-proposed sequence/value pairs.
        preprepares: Vec<(u64, V)>,
    },
}

/// Layout per WIRE_FORMAT.md §5.2: a discriminant byte (`0x01` Request,
/// `0x02` PrePrepare, `0x03` Prepare, `0x04` Commit, `0x05` ViewChange,
/// `0x06` NewView) followed by the variant's fields in declaration order;
/// `prepared` / `preprepares` lists are `u32`-counted sequences of
/// `seq u64 | value` pairs.
impl<V: WireCodec> WireCodec for PbftMsg<V> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            PbftMsg::Request { value } => {
                out.push(1);
                value.encode_to(out);
            }
            PbftMsg::PrePrepare { view, seq, value } => {
                out.push(2);
                view.encode_to(out);
                seq.encode_to(out);
                value.encode_to(out);
            }
            PbftMsg::Prepare { view, seq, digest } => {
                out.push(3);
                view.encode_to(out);
                seq.encode_to(out);
                digest.encode_to(out);
            }
            PbftMsg::Commit { view, seq, digest } => {
                out.push(4);
                view.encode_to(out);
                seq.encode_to(out);
                digest.encode_to(out);
            }
            PbftMsg::ViewChange { new_view, prepared } => {
                out.push(5);
                new_view.encode_to(out);
                prepared.encode_to(out);
            }
            PbftMsg::NewView { view, preprepares } => {
                out.push(6);
                view.encode_to(out);
                preprepares.encode_to(out);
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            1 => Ok(PbftMsg::Request {
                value: V::decode_from(r)?,
            }),
            2 => Ok(PbftMsg::PrePrepare {
                view: r.u64()?,
                seq: r.u64()?,
                value: V::decode_from(r)?,
            }),
            3 => Ok(PbftMsg::Prepare {
                view: r.u64()?,
                seq: r.u64()?,
                digest: r.u64()?,
            }),
            4 => Ok(PbftMsg::Commit {
                view: r.u64()?,
                seq: r.u64()?,
                digest: r.u64()?,
            }),
            5 => Ok(PbftMsg::ViewChange {
                new_view: r.u64()?,
                prepared: Vec::<(u64, V)>::decode_from(r)?,
            }),
            6 => Ok(PbftMsg::NewView {
                view: r.u64()?,
                preprepares: Vec::<(u64, V)>::decode_from(r)?,
            }),
            tag => Err(CodecError::BadTag {
                what: "PbftMsg",
                tag,
            }),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            PbftMsg::Request { value } => value.encoded_len(),
            PbftMsg::PrePrepare { value, .. } => 8 + 8 + value.encoded_len(),
            PbftMsg::Prepare { .. } | PbftMsg::Commit { .. } => 8 + 8 + 8,
            PbftMsg::ViewChange { prepared, .. } => 8 + prepared.encoded_len(),
            PbftMsg::NewView { preprepares, .. } => 8 + preprepares.encoded_len(),
        }
    }
}

#[derive(Debug)]
struct Slot<V> {
    value: Option<V>,
    digest: Option<u64>,
    prepares: HashMap<u64, HashSet<NodeId>>,
    commits: HashMap<u64, HashSet<NodeId>>,
    prepared: bool,
    committed: bool,
    delivered: bool,
}

impl<V> Default for Slot<V> {
    fn default() -> Self {
        Slot {
            value: None,
            digest: None,
            prepares: HashMap::new(),
            commits: HashMap::new(),
            prepared: false,
            committed: false,
            delivered: false,
        }
    }
}

/// One node's endpoint of the PBFT atomic broadcast.
#[derive(Debug)]
pub struct Pbft<V> {
    me: NodeId,
    config: PbftConfig,
    view: u64,
    next_seq: u64,
    slots: BTreeMap<u64, Slot<V>>,
    next_delivery: u64,
    /// Values this node submitted that have not been observed as delivered
    /// yet (re-submitted after a view change for liveness).
    my_pending: VecDeque<V>,
    /// Digests already assigned a slot by this leader (deduplication).
    assigned: HashSet<u64>,
    view_change_votes: HashMap<u64, HashSet<NodeId>>,
    view_change_prepared: HashMap<u64, Vec<(u64, V)>>,
    delivered_digests: HashSet<u64>,
    /// Ordering messages received for a view this node has not entered yet;
    /// replayed once the view is installed.
    future_msgs: Vec<(NodeId, PbftMsg<V>)>,
    timer_generation: u64,
    stats_delivered: u64,
}

fn digest_of<V: Hash>(value: &V) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

impl<V> Pbft<V>
where
    V: Clone + Debug + Eq + Hash + WireCodec,
{
    /// Creates the PBFT endpoint of node `me`.
    pub fn new(me: NodeId, config: PbftConfig) -> Self {
        Pbft {
            me,
            config,
            view: 0,
            next_seq: 0,
            slots: BTreeMap::new(),
            next_delivery: 0,
            my_pending: VecDeque::new(),
            assigned: HashSet::new(),
            view_change_votes: HashMap::new(),
            view_change_prepared: HashMap::new(),
            delivered_digests: HashSet::new(),
            future_msgs: Vec::new(),
            timer_generation: 0,
            stats_delivered: 0,
        }
    }

    /// The leader of view `v`.
    pub fn leader_of(&self, view: u64) -> NodeId {
        NodeId((view % self.config.cluster.n as u64) as u32)
    }

    /// The current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// The current leader.
    pub fn leader(&self) -> NodeId {
        self.leader_of(self.view)
    }

    /// True when this node currently leads.
    pub fn is_leader(&self) -> bool {
        self.leader() == self.me
    }

    fn timer_id(&self) -> TimerId {
        TimerId::compose(PBFT_TIMER_KIND, self.timer_generation)
    }

    fn arm_timer(&mut self, out: &mut Outbox<PbftMsg<V>>) {
        self.timer_generation += 1;
        let id = self.timer_id();
        out.set_timer(id, self.config.view_timeout);
    }

    /// Submits a value for total ordering. Returns any values that became
    /// deliverable as an immediate consequence (possible in single-node
    /// corner cases; normally empty).
    pub fn submit(&mut self, value: V, out: &mut Outbox<PbftMsg<V>>) -> Vec<(u64, V)> {
        self.my_pending.push_back(value.clone());
        self.arm_timer(out);
        if self.is_leader() {
            self.assign(value, out)
        } else {
            out.send(self.leader(), PbftMsg::Request { value });
            Vec::new()
        }
    }

    fn assign(&mut self, value: V, out: &mut Outbox<PbftMsg<V>>) -> Vec<(u64, V)> {
        let digest = digest_of(&value);
        if self.assigned.contains(&digest) || self.delivered_digests.contains(&digest) {
            return Vec::new();
        }
        self.assigned.insert(digest);
        let seq = self.next_seq;
        self.next_seq += 1;
        let msg = PbftMsg::PrePrepare {
            view: self.view,
            seq,
            value: value.clone(),
        };
        // Leader signs the pre-prepare.
        out.cpu(CpuCharge::sign(value.encoded_len() as u64));
        out.broadcast(msg.clone());
        self.handle_preprepare(self.me, self.view, seq, value, out)
    }

    fn handle_preprepare(
        &mut self,
        from: NodeId,
        view: u64,
        seq: u64,
        value: V,
        out: &mut Outbox<PbftMsg<V>>,
    ) -> Vec<(u64, V)> {
        if view != self.view || from != self.leader_of(view) {
            return Vec::new();
        }
        if from != self.me {
            // Verify the leader's signature on the pre-prepare.
            out.cpu(CpuCharge::verify(value.encoded_len() as u64));
        }
        let digest = digest_of(&value);
        let slot = self.slots.entry(seq).or_default();
        if let Some(existing) = slot.digest {
            if existing != digest {
                // Conflicting assignment for the same slot — ignore the later one.
                return Vec::new();
            }
        }
        if slot.value.is_none() {
            slot.value = Some(value);
            slot.digest = Some(digest);
        }
        // The leader keeps next_seq ahead of any observed assignment so a
        // future view led by this node does not reuse sequence numbers.
        if seq >= self.next_seq {
            self.next_seq = seq + 1;
        }
        let prepare = PbftMsg::Prepare { view, seq, digest };
        out.broadcast(prepare);
        self.record_prepare(self.me, view, seq, digest, out)
    }

    fn record_prepare(
        &mut self,
        from: NodeId,
        view: u64,
        seq: u64,
        digest: u64,
        out: &mut Outbox<PbftMsg<V>>,
    ) -> Vec<(u64, V)> {
        if view != self.view {
            return Vec::new();
        }
        let quorum = self.config.cluster.bft_quorum();
        let slot = self.slots.entry(seq).or_default();
        slot.prepares.entry(digest).or_default().insert(from);
        let count = slot.prepares[&digest].len();
        let value_matches = slot.digest == Some(digest) && slot.value.is_some();
        if count >= quorum && value_matches && !slot.prepared {
            slot.prepared = true;
            let commit = PbftMsg::Commit { view, seq, digest };
            out.broadcast(commit);
            return self.record_commit(self.me, view, seq, digest);
        }
        Vec::new()
    }

    fn record_commit(&mut self, from: NodeId, view: u64, seq: u64, digest: u64) -> Vec<(u64, V)> {
        if view != self.view {
            return Vec::new();
        }
        let quorum = self.config.cluster.bft_quorum();
        let slot = self.slots.entry(seq).or_default();
        slot.commits.entry(digest).or_default().insert(from);
        let count = slot.commits[&digest].len();
        if count >= quorum && slot.prepared && slot.digest == Some(digest) && !slot.committed {
            slot.committed = true;
        }
        self.try_deliver()
    }

    fn try_deliver(&mut self) -> Vec<(u64, V)> {
        let mut delivered = Vec::new();
        loop {
            let seq = self.next_delivery;
            let Some(slot) = self.slots.get_mut(&seq) else {
                break;
            };
            if !slot.committed || slot.delivered {
                break;
            }
            slot.delivered = true;
            let value = slot.value.clone().expect("committed slot has a value");
            let digest = slot.digest.expect("committed slot has a digest");
            self.delivered_digests.insert(digest);
            self.my_pending.retain(|v| digest_of(v) != digest);
            self.next_delivery += 1;
            self.stats_delivered += 1;
            delivered.push((seq, value));
        }
        delivered
    }

    /// Handles a PBFT wire message; returns the `(seq, value)` pairs that
    /// became deliverable, in delivery order.
    pub fn on_message(
        &mut self,
        from: NodeId,
        msg: PbftMsg<V>,
        out: &mut Outbox<PbftMsg<V>>,
    ) -> Vec<(u64, V)> {
        // Ordering messages from a view this node has not entered yet are
        // buffered and replayed once the view change completes locally.
        let msg_view = match &msg {
            PbftMsg::PrePrepare { view, .. }
            | PbftMsg::Prepare { view, .. }
            | PbftMsg::Commit { view, .. } => Some(*view),
            _ => None,
        };
        if let Some(v) = msg_view {
            if v > self.view {
                self.future_msgs.push((from, msg));
                return Vec::new();
            }
        }
        match msg {
            PbftMsg::Request { value } => {
                if self.is_leader() {
                    self.assign(value, out)
                } else {
                    // Not the leader: forward (client may have stale view).
                    out.send(self.leader(), PbftMsg::Request { value });
                    Vec::new()
                }
            }
            PbftMsg::PrePrepare { view, seq, value } => {
                self.handle_preprepare(from, view, seq, value, out)
            }
            PbftMsg::Prepare { view, seq, digest } => {
                self.record_prepare(from, view, seq, digest, out)
            }
            PbftMsg::Commit { view, seq, digest } => self.record_commit(from, view, seq, digest),
            PbftMsg::ViewChange { new_view, prepared } => {
                self.handle_view_change(from, new_view, prepared, out)
            }
            PbftMsg::NewView { view, preprepares } => {
                self.handle_new_view(from, view, preprepares, out)
            }
        }
    }

    fn handle_view_change(
        &mut self,
        from: NodeId,
        new_view: u64,
        prepared: Vec<(u64, V)>,
        out: &mut Outbox<PbftMsg<V>>,
    ) -> Vec<(u64, V)> {
        if new_view <= self.view {
            return Vec::new();
        }
        self.view_change_votes
            .entry(new_view)
            .or_default()
            .insert(from);
        let entry = self.view_change_prepared.entry(new_view).or_default();
        for (seq, v) in prepared {
            if !entry.iter().any(|(s, _)| *s == seq) {
                entry.push((seq, v));
            }
        }
        let votes = self.view_change_votes[&new_view].len();
        let quorum = self.config.cluster.bft_quorum();
        // Join the view change once f+1 nodes vote for it (amplification), so
        // a single slow node cannot stall behind the rest of the cluster.
        let joined = self.view_change_votes[&new_view].contains(&self.me);
        if votes > self.config.cluster.f && !joined {
            let my_prepared = self.prepared_undelivered();
            self.view_change_votes
                .entry(new_view)
                .or_default()
                .insert(self.me);
            out.broadcast(PbftMsg::ViewChange {
                new_view,
                prepared: my_prepared,
            });
        }
        let votes = self.view_change_votes[&new_view].len();
        if votes >= quorum && new_view > self.view {
            return self.install_view(new_view, out);
        }
        Vec::new()
    }

    /// Replays buffered messages that belong to the now-current view.
    fn replay_future(&mut self, out: &mut Outbox<PbftMsg<V>>) -> Vec<(u64, V)> {
        let mut delivered = Vec::new();
        loop {
            let buffered = std::mem::take(&mut self.future_msgs);
            if buffered.is_empty() {
                break;
            }
            let mut progressed = false;
            for (from, msg) in buffered {
                let msg_view = match &msg {
                    PbftMsg::PrePrepare { view, .. }
                    | PbftMsg::Prepare { view, .. }
                    | PbftMsg::Commit { view, .. } => *view,
                    _ => self.view,
                };
                if msg_view <= self.view {
                    progressed = true;
                    delivered.extend(self.on_message(from, msg, out));
                } else {
                    self.future_msgs.push((from, msg));
                }
            }
            if !progressed {
                break;
            }
        }
        delivered
    }

    fn prepared_undelivered(&self) -> Vec<(u64, V)> {
        self.slots
            .iter()
            .filter(|(_, s)| s.prepared && !s.delivered)
            .filter_map(|(seq, s)| s.value.clone().map(|v| (*seq, v)))
            .collect()
    }

    fn install_view(&mut self, new_view: u64, out: &mut Outbox<PbftMsg<V>>) -> Vec<(u64, V)> {
        self.view = new_view;
        // Reset per-view voting state of undelivered slots.
        for slot in self.slots.values_mut() {
            if !slot.delivered {
                slot.prepares.clear();
                slot.commits.clear();
                slot.prepared = false;
                slot.committed = false;
            }
        }
        let mut delivered = Vec::new();
        if self.is_leader() {
            // Re-propose prepared values reported by the quorum, then re-submit
            // this node's own pending values.
            let mut reproposals: Vec<(u64, V)> = self
                .view_change_prepared
                .remove(&new_view)
                .unwrap_or_default()
                .into_iter()
                .filter(|(_, v)| !self.delivered_digests.contains(&digest_of(v)))
                .collect();
            reproposals.sort_by_key(|(seq, _)| *seq);
            let values: Vec<V> = reproposals.into_iter().map(|(_, v)| v).collect();
            let mut own: Vec<V> = self.my_pending.iter().cloned().collect();
            own.retain(|v| !values.contains(v));
            self.assigned.clear();
            // Continue sequence numbering after everything already delivered
            // or assigned, so old and new slots never collide.
            out.broadcast(PbftMsg::NewView {
                view: new_view,
                preprepares: Vec::new(),
            });
            for v in values.into_iter().chain(own) {
                delivered.extend(self.assign(v, out));
            }
        } else if !self.my_pending.is_empty() {
            // Re-submit pending values to the new leader.
            for v in self.my_pending.clone() {
                out.send(self.leader(), PbftMsg::Request { value: v });
            }
            self.arm_timer(out);
        }
        delivered.extend(self.replay_future(out));
        delivered
    }

    fn handle_new_view(
        &mut self,
        from: NodeId,
        view: u64,
        preprepares: Vec<(u64, V)>,
        out: &mut Outbox<PbftMsg<V>>,
    ) -> Vec<(u64, V)> {
        if view < self.view || from != self.leader_of(view) {
            return Vec::new();
        }
        let mut delivered = Vec::new();
        if view > self.view {
            self.view = view;
            delivered.extend(self.replay_future(out));
        }
        for (seq, value) in preprepares {
            delivered.extend(self.handle_preprepare(from, view, seq, value, out));
        }
        // Re-submit anything of ours the old view failed to order.
        if !self.is_leader() && !self.my_pending.is_empty() {
            for v in self.my_pending.clone() {
                out.send(self.leader(), PbftMsg::Request { value: v });
            }
            self.arm_timer(out);
        }
        delivered
    }

    /// Handles a timer event. Returns `true` when the timer belonged to this
    /// PBFT instance (the parent can then skip its own handling).
    pub fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<PbftMsg<V>>) -> bool {
        let (kind, generation) = timer.decompose();
        if kind != PBFT_TIMER_KIND {
            return false;
        }
        if generation != self.timer_generation {
            return true; // stale timer
        }
        if self.my_pending.is_empty() {
            return true; // everything delivered, nothing to complain about
        }
        // Vote to rotate the leader.
        let new_view = self.view + 1;
        let prepared = self.prepared_undelivered();
        self.view_change_votes
            .entry(new_view)
            .or_default()
            .insert(self.me);
        let entry = self.view_change_prepared.entry(new_view).or_default();
        for (seq, v) in &prepared {
            if !entry.iter().any(|(s, _)| s == seq) {
                entry.push((*seq, v.clone()));
            }
        }
        out.broadcast(PbftMsg::ViewChange { new_view, prepared });
        self.arm_timer(out);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireledger_types::Action;

    type V = u64;

    /// A synchronous in-memory harness that routes every produced message
    /// immediately, with an optional set of unreachable nodes.
    struct Net {
        nodes: Vec<Pbft<V>>,
        delivered: Vec<Vec<(u64, V)>>,
        unreachable: Vec<usize>,
    }

    impl Net {
        fn new(n: usize) -> Self {
            let cluster = ClusterConfig::new(n);
            Net {
                nodes: (0..n)
                    .map(|i| Pbft::new(NodeId(i as u32), PbftConfig::new(cluster)))
                    .collect(),
                delivered: vec![Vec::new(); n],
                unreachable: Vec::new(),
            }
        }

        fn submit(&mut self, node: usize, value: V) {
            let mut out = Outbox::new();
            let newly = self.nodes[node].submit(value, &mut out);
            self.delivered[node].extend(newly);
            self.route(node, out);
        }

        fn timeout(&mut self, node: usize) {
            // Fire the node's current timer.
            let id = TimerId::compose(PBFT_TIMER_KIND, self.nodes[node].timer_generation);
            let mut out = Outbox::new();
            let handled = self.nodes[node].on_timer(id, &mut out);
            assert!(handled);
            self.route(node, out);
        }

        fn route(&mut self, from: usize, out: Outbox<PbftMsg<V>>) {
            for action in out.into_actions() {
                match action {
                    Action::Broadcast { msg } => {
                        for to in 0..self.nodes.len() {
                            if to != from {
                                self.deliver(from, to, msg.clone());
                            }
                        }
                    }
                    Action::Send { to, msg } => self.deliver(from, to.as_usize(), msg),
                    _ => {}
                }
            }
        }

        fn deliver(&mut self, from: usize, to: usize, msg: PbftMsg<V>) {
            if self.unreachable.contains(&to) || self.unreachable.contains(&from) {
                return;
            }
            let mut out = Outbox::new();
            let newly = self.nodes[to].on_message(NodeId(from as u32), msg, &mut out);
            self.delivered[to].extend(newly);
            self.route(to, out);
        }
    }

    #[test]
    fn leader_submission_delivers_everywhere_in_order() {
        let mut net = Net::new(4);
        net.submit(0, 100);
        net.submit(0, 200);
        for i in 0..4 {
            assert_eq!(net.delivered[i], vec![(0, 100), (1, 200)], "node {i}");
        }
    }

    #[test]
    fn follower_submission_goes_through_the_leader() {
        let mut net = Net::new(4);
        net.submit(2, 55);
        for i in 0..4 {
            assert_eq!(net.delivered[i], vec![(0, 55)], "node {i}");
        }
    }

    #[test]
    fn total_order_is_consistent_across_submitters() {
        let mut net = Net::new(7);
        net.submit(1, 10);
        net.submit(4, 20);
        net.submit(0, 30);
        net.submit(6, 40);
        let reference = net.delivered[0].clone();
        assert_eq!(reference.len(), 4);
        for i in 1..7 {
            assert_eq!(net.delivered[i], reference, "node {i} diverged");
        }
        // Sequence numbers are gapless from zero.
        let seqs: Vec<u64> = reference.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn duplicate_submissions_are_delivered_once() {
        let mut net = Net::new(4);
        net.submit(0, 99);
        net.submit(1, 99);
        for i in 0..4 {
            assert_eq!(net.delivered[i], vec![(0, 99)], "node {i}");
        }
    }

    #[test]
    fn progress_without_f_replicas() {
        let mut net = Net::new(4);
        net.unreachable = vec![3];
        net.submit(0, 7);
        for i in 0..3 {
            assert_eq!(net.delivered[i], vec![(0, 7)], "node {i}");
        }
        assert!(net.delivered[3].is_empty());
    }

    #[test]
    fn view_change_rotates_leader_and_recovers_pending_values() {
        let mut net = Net::new(4);
        // The leader (node 0) is unreachable: submissions by nodes 2 and 3
        // cannot be ordered in view 0.
        net.unreachable = vec![0];
        net.submit(2, 123);
        net.submit(3, 456);
        assert!(net.delivered[2].is_empty());
        // The two waiting submitters time out; their f+1 = 2 votes make the
        // remaining correct node join, reaching the 2f+1 quorum for view 1,
        // whose leader (node 1) re-orders the pending values.
        net.timeout(2);
        net.timeout(3);
        for i in 1..4 {
            assert_eq!(net.nodes[i].view(), 1, "node {i} should be in view 1");
            assert_eq!(net.nodes[i].leader(), NodeId(1));
            assert_eq!(net.delivered[i], net.delivered[1], "node {i} diverged");
            let values: Vec<V> = net.delivered[i].iter().map(|(_, v)| *v).collect();
            assert!(
                values.contains(&123) && values.contains(&456),
                "node {i}: {values:?}"
            );
        }
    }

    #[test]
    fn later_view_change_preserves_earlier_deliveries() {
        let mut net = Net::new(4);
        net.submit(0, 1);
        net.unreachable = vec![0];
        net.submit(1, 2);
        net.submit(2, 3);
        net.timeout(1);
        net.timeout(2);
        for i in 1..4 {
            assert_eq!(net.delivered[i].first(), Some(&(0u64, 1u64)), "node {i}");
            assert_eq!(net.delivered[i], net.delivered[1], "node {i} diverged");
            let values: Vec<V> = net.delivered[i].iter().map(|(_, v)| *v).collect();
            assert_eq!(values.len(), 3);
            assert!(values.contains(&2) && values.contains(&3));
        }
    }

    #[test]
    fn stale_and_foreign_timers_are_ignored() {
        let cluster = ClusterConfig::new(4);
        let mut node = Pbft::<V>::new(NodeId(0), PbftConfig::new(cluster));
        let mut out = Outbox::new();
        // Foreign timer kind.
        assert!(!node.on_timer(TimerId::compose(0x01, 0), &mut out));
        assert!(out.is_empty());
        // Stale generation: handled but no view change is emitted.
        node.submit(5, &mut out);
        let mut out2 = Outbox::new();
        assert!(node.on_timer(TimerId::compose(PBFT_TIMER_KIND, 0), &mut out2));
        assert!(out2.is_empty());
    }

    #[test]
    fn delivered_count_and_next_seq_track_progress() {
        let mut net = Net::new(4);
        net.submit(0, 1);
        net.submit(0, 2);
        net.submit(0, 3);
        assert_eq!(net.nodes[2].stats_delivered, 3);
        assert_eq!(net.nodes[2].next_delivery, 3);
        assert!(net.nodes[0].is_leader());
        assert!(!net.nodes[1].is_leader());
    }

    #[test]
    fn conflicting_preprepare_for_same_slot_is_ignored() {
        let cluster = ClusterConfig::new(4);
        let mut node = Pbft::<V>::new(NodeId(1), PbftConfig::new(cluster));
        let mut out = Outbox::new();
        node.on_message(
            NodeId(0),
            PbftMsg::PrePrepare {
                view: 0,
                seq: 0,
                value: 10,
            },
            &mut out,
        );
        let before = node.slots.get(&0).unwrap().digest;
        node.on_message(
            NodeId(0),
            PbftMsg::PrePrepare {
                view: 0,
                seq: 0,
                value: 20,
            },
            &mut out,
        );
        assert_eq!(node.slots.get(&0).unwrap().digest, before);
        // Pre-prepare from a non-leader is rejected outright.
        node.on_message(
            NodeId(2),
            PbftMsg::PrePrepare {
                view: 0,
                seq: 1,
                value: 30,
            },
            &mut out,
        );
        assert!(!node.slots.contains_key(&1));
    }

    #[test]
    fn wire_sizes_reflect_payloads() {
        // A pre-prepare carries the value; prepares and commits carry only
        // its digest, so their size is independent of the payload.
        let value = vec![7u64; 16];
        let pp = PbftMsg::PrePrepare {
            view: 0,
            seq: 0,
            value: value.clone(),
        };
        let p: PbftMsg<Vec<u64>> = PbftMsg::Prepare {
            view: 0,
            seq: 0,
            digest: 1,
        };
        assert_eq!(pp.encoded_len(), 1 + 8 + 8 + value.encoded_len());
        assert_eq!(p.encoded_len(), 1 + 8 + 8 + 8);
        let vc = PbftMsg::ViewChange {
            new_view: 1,
            prepared: vec![(0, 7u64), (1, 8u64)],
        };
        assert_eq!(vc.encoded_len(), 1 + 8 + 4 + 2 * (8 + 8));
    }

    #[test]
    fn codec_roundtrips_every_variant() {
        let variants: Vec<PbftMsg<u64>> = vec![
            PbftMsg::Request { value: 7 },
            PbftMsg::PrePrepare {
                view: 1,
                seq: 2,
                value: 3,
            },
            PbftMsg::Prepare {
                view: 4,
                seq: 5,
                digest: 6,
            },
            PbftMsg::Commit {
                view: 7,
                seq: 8,
                digest: 9,
            },
            PbftMsg::ViewChange {
                new_view: 10,
                prepared: vec![(11, 12), (13, 14)],
            },
            PbftMsg::ViewChange {
                new_view: 10,
                prepared: vec![],
            },
            PbftMsg::NewView {
                view: 15,
                preprepares: vec![(16, 17)],
            },
        ];
        for m in variants {
            let bytes = m.encode();
            assert_eq!(PbftMsg::<u64>::decode(&bytes).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn codec_rejects_unknown_discriminants() {
        assert!(matches!(
            PbftMsg::<u64>::decode(&[0x77]),
            Err(fireledger_types::CodecError::BadTag {
                what: "PbftMsg",
                ..
            })
        ));
    }
}
