//! Scripted Byzantine behaviours used by the evaluation (§7.4.2).
//!
//! The paper's Byzantine node "divides the cluster into two random parts and
//! for every given round distributes different versions of the block to each
//! part". [`EquivocatingNode`] reproduces that attack: it wraps an ordinary
//! FLO node and, whenever the wrapped node broadcasts one of its own signed
//! headers (either an explicit `Header` push or a header piggybacked on a
//! vote), it sends the genuine header to one half of the cluster and a
//! re-signed, mutated header (different parent hash, i.e. a different chain
//! version) to the other half.
//!
//! Because the mutation is signed with the node's own key, both halves accept
//! the header as authentic; the divergence is only caught by the hash-chain
//! check of the *next* correct proposer's block, which triggers the panic /
//! recovery path — exactly the scenario Figure 12 measures. A
//! [`SilentProposerNode`] variant models a node that simply never proposes,
//! exercising the fallback path without recoveries.

use crate::flo::FloNode;
use crate::messages::{FloMsg, WorkerMsg};
use fireledger_crypto::SharedCrypto;
use fireledger_types::{
    Action, Hash, NodeId, Outbox, Protocol, SignedHeader, TimerId, Transaction,
};

/// A Byzantine node that equivocates on every block it proposes.
pub struct EquivocatingNode {
    inner: FloNode,
    crypto: SharedCrypto,
    n: usize,
}

impl EquivocatingNode {
    /// Wraps `inner`; `crypto` must hold the wrapped node's signing key so the
    /// mutated headers can be re-signed.
    pub fn new(inner: FloNode, crypto: SharedCrypto) -> Self {
        let n = inner.params().n();
        EquivocatingNode { inner, crypto, n }
    }

    /// Access to the wrapped (honest-logic) node.
    pub fn inner(&self) -> &FloNode {
        &self.inner
    }

    /// Mutable access to the wrapped node (runtime configuration).
    pub fn inner_mut(&mut self) -> &mut FloNode {
        &mut self.inner
    }

    fn mutate(&self, signed: &SignedHeader) -> SignedHeader {
        let mut header = signed.header.clone();
        // A different chain version: flip the parent pointer.
        let mut parent = *header.parent.as_bytes();
        parent[0] ^= 0xFF;
        parent[31] ^= 0xFF;
        header.parent = Hash::from_bytes(parent);
        let signature = self.crypto.sign(header.proposer, &header.canonical_bytes());
        SignedHeader::new(header, signature)
    }

    fn equivocate_broadcast(&self, msg: FloMsg, out: &mut Outbox<FloMsg>) {
        let me = self.inner.node();
        // First half of the cluster receives the original, second half the
        // mutated version.
        let boundary = self.n / 2;
        for i in 0..self.n {
            let to = NodeId(i as u32);
            if to == me {
                continue;
            }
            let send_original = i < boundary;
            let inner = match (&msg.inner, send_original) {
                (_, true) => msg.inner.clone(),
                (WorkerMsg::Header { header }, false) => WorkerMsg::Header {
                    header: self.mutate(header),
                },
                (
                    WorkerMsg::Vote {
                        round,
                        proposer,
                        vote,
                        piggyback: Some(h),
                    },
                    false,
                ) => WorkerMsg::Vote {
                    round: *round,
                    proposer: *proposer,
                    vote: *vote,
                    piggyback: Some(self.mutate(h)),
                },
                (_, false) => msg.inner.clone(),
            };
            out.send(
                to,
                FloMsg {
                    worker: msg.worker,
                    inner,
                },
            );
        }
    }

    fn is_own_header_broadcast(&self, msg: &FloMsg) -> bool {
        let me = self.inner.node();
        match &msg.inner {
            WorkerMsg::Header { header } => header.proposer() == me,
            WorkerMsg::Vote {
                piggyback: Some(h), ..
            } => h.proposer() == me,
            _ => false,
        }
    }

    fn filter(&mut self, sub: Outbox<FloMsg>, out: &mut Outbox<FloMsg>) {
        for action in sub.into_actions() {
            match action {
                Action::Broadcast { msg } if self.is_own_header_broadcast(&msg) => {
                    self.equivocate_broadcast(msg, out);
                }
                Action::Send { to, msg } => out.send(to, msg),
                Action::Broadcast { msg } => out.broadcast(msg),
                Action::SetTimer { id, delay } => out.set_timer(id, delay),
                Action::CancelTimer { id } => out.cancel_timer(id),
                Action::Cpu(c) => out.cpu(c),
                Action::Observe(o) => out.observe(o),
                Action::Deliver(d) => out.deliver(d),
            }
        }
    }
}

impl Protocol for EquivocatingNode {
    type Msg = FloMsg;

    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn on_start(&mut self, out: &mut Outbox<FloMsg>) {
        let mut sub = Outbox::new();
        self.inner.on_start(&mut sub);
        self.filter(sub, out);
    }

    fn on_message(&mut self, from: NodeId, msg: FloMsg, out: &mut Outbox<FloMsg>) {
        let mut sub = Outbox::new();
        self.inner.on_message(from, msg, &mut sub);
        self.filter(sub, out);
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<FloMsg>) {
        let mut sub = Outbox::new();
        self.inner.on_timer(timer, &mut sub);
        self.filter(sub, out);
    }

    fn on_transaction(&mut self, tx: Transaction, out: &mut Outbox<FloMsg>) {
        let mut sub = Outbox::new();
        self.inner.on_transaction(tx, &mut sub);
        self.filter(sub, out);
    }
}

/// A Byzantine node that participates in voting but never disseminates its own
/// blocks or headers, forcing a timeout and fallback each time its turn comes.
pub struct SilentProposerNode {
    inner: FloNode,
}

impl SilentProposerNode {
    /// Wraps `inner`.
    pub fn new(inner: FloNode) -> Self {
        SilentProposerNode { inner }
    }

    /// Access to the wrapped node.
    pub fn inner(&self) -> &FloNode {
        &self.inner
    }

    /// Mutable access to the wrapped node (runtime configuration).
    pub fn inner_mut(&mut self) -> &mut FloNode {
        &mut self.inner
    }

    fn suppress(&self, sub: Outbox<FloMsg>, out: &mut Outbox<FloMsg>) {
        let me = self.inner.node();
        let suppressed = |msg: &FloMsg| match &msg.inner {
            WorkerMsg::Header { header } => header.proposer() == me,
            WorkerMsg::BlockData { .. } => true,
            WorkerMsg::Vote {
                piggyback: Some(h), ..
            } => h.proposer() == me,
            _ => false,
        };
        for action in sub.into_actions() {
            match action {
                Action::Broadcast { msg } if suppressed(&msg) => {
                    // Strip the piggyback but keep the vote itself, so the
                    // node still looks responsive.
                    if let WorkerMsg::Vote {
                        round,
                        proposer,
                        vote,
                        ..
                    } = msg.inner
                    {
                        out.broadcast(FloMsg {
                            worker: msg.worker,
                            inner: WorkerMsg::Vote {
                                round,
                                proposer,
                                vote,
                                piggyback: None,
                            },
                        });
                    }
                }
                Action::Send { to, msg } => out.send(to, msg),
                Action::Broadcast { msg } => out.broadcast(msg),
                Action::SetTimer { id, delay } => out.set_timer(id, delay),
                Action::CancelTimer { id } => out.cancel_timer(id),
                Action::Cpu(c) => out.cpu(c),
                Action::Observe(o) => out.observe(o),
                Action::Deliver(d) => out.deliver(d),
            }
        }
    }
}

impl Protocol for SilentProposerNode {
    type Msg = FloMsg;

    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn on_start(&mut self, out: &mut Outbox<FloMsg>) {
        let mut sub = Outbox::new();
        self.inner.on_start(&mut sub);
        self.suppress(sub, out);
    }

    fn on_message(&mut self, from: NodeId, msg: FloMsg, out: &mut Outbox<FloMsg>) {
        let mut sub = Outbox::new();
        self.inner.on_message(from, msg, &mut sub);
        self.suppress(sub, out);
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<FloMsg>) {
        let mut sub = Outbox::new();
        self.inner.on_timer(timer, &mut sub);
        self.suppress(sub, out);
    }

    fn on_transaction(&mut self, tx: Transaction, out: &mut Outbox<FloMsg>) {
        let mut sub = Outbox::new();
        self.inner.on_transaction(tx, &mut sub);
        self.suppress(sub, out);
    }
}

/// Either an honest FLO node or one of the scripted Byzantine variants —
/// convenient for building mixed clusters in experiments, since the simulator
/// needs a single node type.
pub enum ClusterNode {
    /// A correct FLO node.
    Honest(FloNode),
    /// An equivocating Byzantine node.
    Equivocating(EquivocatingNode),
    /// A silent-proposer Byzantine node.
    Silent(SilentProposerNode),
}

impl Protocol for ClusterNode {
    type Msg = FloMsg;

    fn node_id(&self) -> NodeId {
        match self {
            ClusterNode::Honest(n) => n.node_id(),
            ClusterNode::Equivocating(n) => n.node_id(),
            ClusterNode::Silent(n) => n.node_id(),
        }
    }

    fn is_syncing(&self) -> bool {
        match self {
            ClusterNode::Honest(n) => FloNode::is_syncing(n),
            ClusterNode::Equivocating(n) => FloNode::is_syncing(&n.inner),
            ClusterNode::Silent(n) => FloNode::is_syncing(&n.inner),
        }
    }

    fn on_start(&mut self, out: &mut Outbox<FloMsg>) {
        match self {
            ClusterNode::Honest(n) => n.on_start(out),
            ClusterNode::Equivocating(n) => n.on_start(out),
            ClusterNode::Silent(n) => n.on_start(out),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: FloMsg, out: &mut Outbox<FloMsg>) {
        match self {
            ClusterNode::Honest(n) => n.on_message(from, msg, out),
            ClusterNode::Equivocating(n) => n.on_message(from, msg, out),
            ClusterNode::Silent(n) => n.on_message(from, msg, out),
        }
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<FloMsg>) {
        match self {
            ClusterNode::Honest(n) => n.on_timer(timer, out),
            ClusterNode::Equivocating(n) => n.on_timer(timer, out),
            ClusterNode::Silent(n) => n.on_timer(timer, out),
        }
    }

    fn on_transaction(&mut self, tx: Transaction, out: &mut Outbox<FloMsg>) {
        match self {
            ClusterNode::Honest(n) => n.on_transaction(tx, out),
            ClusterNode::Equivocating(n) => n.on_transaction(tx, out),
            ClusterNode::Silent(n) => n.on_transaction(tx, out),
        }
    }
}

/// Access to the honest view of any cluster node (its FLO state), regardless
/// of the Byzantine wrapper.
impl ClusterNode {
    /// The wrapped FLO node.
    pub fn flo(&self) -> &FloNode {
        match self {
            ClusterNode::Honest(n) => n,
            ClusterNode::Equivocating(n) => n.inner(),
            ClusterNode::Silent(n) => n.inner(),
        }
    }

    /// Mutable access to the wrapped FLO node (runtime configuration —
    /// execution shards, state sync — applies to the honest logic of every
    /// Byzantine wrapper too: the wrappers change what a node *says*, not
    /// how it validates).
    pub fn flo_mut(&mut self) -> &mut FloNode {
        match self {
            ClusterNode::Honest(n) => n,
            ClusterNode::Equivocating(n) => n.inner_mut(),
            ClusterNode::Silent(n) => n.inner_mut(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validity::AcceptAll;
    use fireledger_crypto::SimKeyStore;
    use fireledger_types::{ProtocolParams, Round, WorkerId};
    use std::sync::Arc;
    use std::time::Duration;

    fn flo(me: u32, n: usize) -> (FloNode, SharedCrypto) {
        let params = ProtocolParams::new(n)
            .with_batch_size(4)
            .with_tx_size(32)
            .with_base_timeout(Duration::from_millis(20));
        let crypto: SharedCrypto = SimKeyStore::generate(n, 3).shared();
        (
            FloNode::new(NodeId(me), params, crypto.clone(), Arc::new(AcceptAll)),
            crypto,
        )
    }

    #[test]
    fn equivocator_sends_different_headers_to_the_two_halves() {
        let (node, crypto) = flo(0, 4);
        let mut byz = EquivocatingNode::new(node, crypto.clone());
        let mut out = Outbox::new();
        // Node 0 is the proposer of round 0, so starting it produces a header
        // broadcast that the wrapper splits into per-destination sends.
        byz.on_start(&mut out);
        let mut headers: Vec<(NodeId, SignedHeader)> = Vec::new();
        for action in out.into_actions() {
            if let Action::Send { to, msg } = action {
                if let WorkerMsg::Header { header } = msg.inner {
                    headers.push((to, header));
                }
            }
        }
        assert_eq!(headers.len(), 3, "one header per peer");
        let first_half: Vec<_> = headers.iter().filter(|(to, _)| to.0 < 2).collect();
        let second_half: Vec<_> = headers.iter().filter(|(to, _)| to.0 >= 2).collect();
        assert!(!first_half.is_empty() && !second_half.is_empty());
        assert_ne!(
            first_half[0].1.header.parent, second_half[0].1.header.parent,
            "the two halves must see different chain versions"
        );
        // Both versions carry valid signatures from the Byzantine node.
        for (_, h) in &headers {
            assert!(crypto.verify(NodeId(0), &h.header.canonical_bytes(), &h.signature));
        }
    }

    #[test]
    fn silent_proposer_suppresses_blocks_but_keeps_votes() {
        let (node, _) = flo(0, 4);
        let mut byz = SilentProposerNode::new(node);
        let mut out = Outbox::new();
        byz.on_start(&mut out);
        for action in out.into_actions() {
            match action {
                Action::Broadcast { msg } | Action::Send { msg, .. } => match msg.inner {
                    WorkerMsg::Header { .. } => panic!("silent node must not push headers"),
                    WorkerMsg::BlockData { .. } => panic!("silent node must not push bodies"),
                    _ => {}
                },
                _ => {}
            }
        }
    }

    #[test]
    fn cluster_node_dispatch_reaches_inner_flo() {
        let (node, crypto) = flo(1, 4);
        let honest = ClusterNode::Honest(node);
        assert_eq!(honest.node_id(), NodeId(1));
        assert_eq!(honest.flo().worker_count(), 1);
        let (node2, _) = flo(2, 4);
        let byz = ClusterNode::Equivocating(EquivocatingNode::new(node2, crypto));
        assert_eq!(byz.node_id(), NodeId(2));
        assert_eq!(byz.flo().worker(0).round(), Round(0));
        assert_eq!(byz.flo().worker(0).worker_id(), WorkerId(0));
    }
}
