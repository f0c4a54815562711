//! The in-process channel transport: one `mpsc` event queue per node.
//!
//! This is the lightest real-time transport: messages are moved, never
//! serialized, so it isolates the cost of real threads and wall-clock timers
//! from the cost of a wire format. The socket transport
//! ([`RealtimeCluster::spawn_engine`]) runs the same per-node event loop but
//! pushes every message through the binary codec and a real socket.

use crate::cluster::{Transport, Wiring};
use crate::node_loop::{Egress, NodeEvent, Rebuild};
use crate::shim::{DelayLine, LinkShim};
use crate::RealtimeCluster;
use fireledger_types::{FaultPlan, LinkDecision, NodeId, Protocol};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

/// Routes a node's outbound messages to its peers' in-process channels.
struct MpscEgress<M> {
    me: NodeId,
    peers: Vec<Sender<NodeEvent<M>>>,
}

impl<M: Clone> Egress<M> for MpscEgress<M> {
    fn send(&mut self, to: NodeId, msg: M) {
        if let Some(peer) = self.peers.get(to.as_usize()) {
            let _ = peer.send(NodeEvent::Message { from: self.me, msg });
        }
    }

    fn broadcast(&mut self, msg: M) {
        // Share one value across every peer's queue: enqueueing is n − 1
        // reference bumps, and receivers materialize on dequeue (the last
        // one for free) — the mpsc analogue of the TCP runtime's
        // encode-once-broadcast.
        let shared = Arc::new(msg);
        for (i, peer) in self.peers.iter().enumerate() {
            if i != self.me.as_usize() {
                let _ = peer.send(NodeEvent::SharedMessage {
                    from: self.me,
                    msg: shared.clone(),
                });
            }
        }
    }
}

/// [`MpscEgress`] wrapped in the fault-plan link shim: every outbound
/// message is routed through a per-link decision — delivered, dropped,
/// parked on the delay line (delay/reorder), or sent twice (duplicate).
/// Broadcasts decide per link, so one peer can lose a message another peer
/// receives — which is why this egress does not use the shared-`Arc`
/// broadcast fast path.
struct ShimmedMpscEgress<M> {
    me: NodeId,
    peers: Vec<Sender<NodeEvent<M>>>,
    shim: LinkShim,
    delay: Sender<(Instant, usize, NodeEvent<M>)>,
}

impl<M: Clone> ShimmedMpscEgress<M> {
    fn route(&mut self, to: NodeId, msg: M) {
        let Some(peer) = self.peers.get(to.as_usize()) else {
            return;
        };
        // Self-sends never touch the network and are exempt from the plan —
        // the same semantics the simulator (which short-circuits them before
        // the adversary) and the TCP shim give them.
        if to == self.me {
            let _ = peer.send(NodeEvent::Message { from: self.me, msg });
            return;
        }
        match self.shim.decide(self.me, to) {
            LinkDecision::Deliver => {
                let _ = peer.send(NodeEvent::Message { from: self.me, msg });
            }
            LinkDecision::Drop => {}
            // The delay line bypasses the peer's FIFO queue, so a plain
            // delay can also be overtaken here — real-time delay and
            // reorder coincide (the simulator distinguishes them because
            // its links are otherwise perfectly FIFO).
            LinkDecision::Delay(d) | LinkDecision::Reorder(d) => {
                let _ = self.delay.send((
                    Instant::now() + d,
                    to.as_usize(),
                    NodeEvent::Message { from: self.me, msg },
                ));
            }
            LinkDecision::Duplicate(d) => {
                let _ = peer.send(NodeEvent::Message {
                    from: self.me,
                    msg: msg.clone(),
                });
                let _ = self.delay.send((
                    Instant::now() + d,
                    to.as_usize(),
                    NodeEvent::Message { from: self.me, msg },
                ));
            }
        }
    }
}

impl<M: Clone> Egress<M> for ShimmedMpscEgress<M> {
    fn send(&mut self, to: NodeId, msg: M) {
        self.route(to, msg);
    }

    fn broadcast(&mut self, msg: M) {
        for i in 0..self.peers.len() {
            if i != self.me.as_usize() {
                self.route(NodeId(i as u32), msg.clone());
            }
        }
    }
}

impl<M> RealtimeCluster<M>
where
    M: Clone + Send + Sync + 'static,
{
    /// Spawns one thread per node on in-process channels and starts the
    /// protocol.
    ///
    /// * `faults` — an optional [`FaultPlan`] compiled into a link shim on
    ///   every node's egress (drop/delay/reorder/duplicate and partitions;
    ///   node faults are driven by the caller through
    ///   [`RealtimeCluster::pause`] / [`RealtimeCluster::resume`] /
    ///   [`RealtimeCluster::crash`]). Its time offsets are measured from
    ///   this call.
    /// * `rebuild` — after [`RealtimeCluster::kill`],
    ///   [`RealtimeCluster::restart`] invokes it to reconstruct the node,
    ///   typically from its durable store, on the same thread and channels.
    /// * `dormant` — nodes spawned with their state machine dropped before
    ///   it ever starts (late join): a later restart rebuilds them mid-run
    ///   and they catch up through state sync.
    pub fn spawn_channels<P>(
        nodes: Vec<P>,
        faults: Option<FaultPlan>,
        rebuild: Option<Rebuild<P>>,
        dormant: &[NodeId],
    ) -> Self
    where
        P: Protocol<Msg = M> + Send + 'static,
    {
        let n = nodes.len();
        let wiring = Wiring::new(n, dormant);
        let peers = &wiring.evt_senders;
        let transport = |delay| Transport::Channels { delay, rpc: None };
        match faults {
            None => {
                let egresses = (0..n)
                    .map(|i| MpscEgress {
                        me: NodeId(i as u32),
                        peers: peers.clone(),
                    })
                    .collect();
                wiring.launch(nodes, egresses, rebuild, transport(None))
            }
            Some(plan) => {
                let delay = DelayLine::new(peers.iter().cloned().map(Some).collect());
                let start = wiring.log.start();
                let egresses = (0..n)
                    .map(|i| ShimmedMpscEgress {
                        me: NodeId(i as u32),
                        peers: peers.clone(),
                        shim: LinkShim::new(plan.clone(), start),
                        delay: delay.sender(),
                    })
                    .collect();
                wiring.launch(nodes, egresses, rebuild, transport(Some(delay)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireledger_types::{Delivery, Outbox, Round, TimerId, Transaction};
    use std::time::Duration;

    fn spawn<P>(nodes: Vec<P>, faults: Option<FaultPlan>) -> RealtimeCluster<u64>
    where
        P: Protocol<Msg = u64> + Send + 'static,
    {
        RealtimeCluster::spawn_channels(nodes, faults, None, &[])
    }

    /// A trivial protocol: node 0 broadcasts a counter on start; everyone
    /// delivers what it receives. Exercises the runtime plumbing without
    /// depending on the core crate (which would be a dependency cycle).
    struct Echo {
        me: NodeId,
        n: usize,
    }

    impl Protocol for Echo {
        type Msg = u64;
        fn node_id(&self) -> NodeId {
            self.me
        }
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            if self.me == NodeId(0) {
                out.broadcast(7);
                out.set_timer(TimerId(1), Duration::from_millis(5));
            }
        }
        fn on_message(&mut self, from: NodeId, msg: u64, out: &mut Outbox<u64>) {
            out.deliver(Delivery {
                worker: fireledger_types::WorkerId(0),
                round: Round(msg),
                proposer: from,
                block: fireledger_types::Block::new(
                    fireledger_types::BlockHeader::new(
                        Round(msg),
                        fireledger_types::WorkerId(0),
                        from,
                        fireledger_types::GENESIS_HASH,
                        fireledger_types::GENESIS_HASH,
                        0,
                        0,
                    ),
                    vec![],
                ),
            });
        }
        fn on_timer(&mut self, _timer: TimerId, out: &mut Outbox<u64>) {
            out.broadcast(8);
            let _ = self.n;
        }
    }

    #[test]
    fn threaded_cluster_routes_messages_and_timers() {
        let nodes: Vec<Echo> = (0..4)
            .map(|i| Echo {
                me: NodeId(i),
                n: 4,
            })
            .collect();
        let cluster = spawn(nodes, None);
        std::thread::sleep(Duration::from_millis(80));
        let deliveries = cluster.shutdown();
        for (i, delivered) in deliveries.iter().enumerate().skip(1) {
            let rounds: Vec<u64> = delivered.iter().map(|d| d.round.0).collect();
            assert!(
                rounds.contains(&7),
                "node {i} missed the broadcast: {rounds:?}"
            );
            assert!(
                rounds.contains(&8),
                "node {i} missed the timer broadcast: {rounds:?}"
            );
        }
    }

    #[test]
    fn transactions_reach_the_target_node() {
        struct TxEcho {
            me: NodeId,
        }
        impl Protocol for TxEcho {
            type Msg = u64;
            fn node_id(&self) -> NodeId {
                self.me
            }
            fn on_start(&mut self, _out: &mut Outbox<u64>) {}
            fn on_message(&mut self, _f: NodeId, _m: u64, _o: &mut Outbox<u64>) {}
            fn on_timer(&mut self, _t: TimerId, _o: &mut Outbox<u64>) {}
            fn on_transaction(&mut self, tx: Transaction, out: &mut Outbox<u64>) {
                out.broadcast(tx.seq);
            }
        }
        let nodes: Vec<TxEcho> = (0..2).map(|i| TxEcho { me: NodeId(i) }).collect();
        let cluster = spawn(nodes, None);
        cluster.submit(NodeId(0), Transaction::zeroed(1, 42, 4));
        std::thread::sleep(Duration::from_millis(50));
        // No panic and clean shutdown is the contract here.
        let _ = cluster.shutdown();
    }

    #[test]
    fn drop_all_plan_silences_every_link() {
        use fireledger_types::{FaultPlan, FaultWindow, LinkSelector};
        let nodes: Vec<Echo> = (0..4)
            .map(|i| Echo {
                me: NodeId(i),
                n: 4,
            })
            .collect();
        let plan = FaultPlan::named("blackout").drop(LinkSelector::All, FaultWindow::ALWAYS, 1.0);
        let cluster = spawn(nodes, Some(plan));
        std::thread::sleep(Duration::from_millis(60));
        let deliveries = cluster.shutdown();
        for (i, delivered) in deliveries.iter().enumerate() {
            assert!(
                delivered.is_empty(),
                "node {i} received {} messages through a 100% drop plan",
                delivered.len()
            );
        }
    }

    #[test]
    fn drop_from_one_node_only_silences_that_sender() {
        use fireledger_types::{FaultPlan, FaultWindow, LinkSelector};
        // Node 0 broadcasts; a From(0) drop plan must starve everyone, while
        // a From(1) plan must not.
        for (lossy, expect_delivery) in [(NodeId(0), false), (NodeId(1), true)] {
            let nodes: Vec<Echo> = (0..4)
                .map(|i| Echo {
                    me: NodeId(i),
                    n: 4,
                })
                .collect();
            let plan = FaultPlan::named("one-lossy").drop(
                LinkSelector::From(lossy),
                FaultWindow::ALWAYS,
                1.0,
            );
            let cluster = spawn(nodes, Some(plan));
            std::thread::sleep(Duration::from_millis(60));
            let deliveries = cluster.shutdown();
            let got_any = deliveries.iter().any(|d| !d.is_empty());
            assert_eq!(
                got_any, expect_delivery,
                "lossy sender {lossy}: unexpected delivery outcome"
            );
        }
    }

    #[test]
    fn self_sends_are_exempt_from_the_plan() {
        use fireledger_types::{FaultPlan, FaultWindow, LinkSelector};
        // A node sending to itself never touches the network, so even a
        // drop-everything plan must not intercept it (sim and tcp give
        // self-sends the same exemption).
        struct SelfLoop {
            me: NodeId,
        }
        impl Protocol for SelfLoop {
            type Msg = u64;
            fn node_id(&self) -> NodeId {
                self.me
            }
            fn on_start(&mut self, _out: &mut Outbox<u64>) {}
            fn on_message(&mut self, from: NodeId, msg: u64, out: &mut Outbox<u64>) {
                if from == self.me {
                    out.deliver(Delivery {
                        worker: fireledger_types::WorkerId(0),
                        round: Round(msg),
                        proposer: from,
                        block: fireledger_types::Block::new(
                            fireledger_types::BlockHeader::new(
                                Round(msg),
                                fireledger_types::WorkerId(0),
                                from,
                                fireledger_types::GENESIS_HASH,
                                fireledger_types::GENESIS_HASH,
                                0,
                                0,
                            ),
                            vec![],
                        ),
                    });
                }
            }
            fn on_timer(&mut self, _t: TimerId, _o: &mut Outbox<u64>) {}
            fn on_transaction(&mut self, tx: Transaction, out: &mut Outbox<u64>) {
                out.send(self.me, tx.seq);
            }
        }
        let nodes: Vec<SelfLoop> = (0..2).map(|i| SelfLoop { me: NodeId(i) }).collect();
        let plan = FaultPlan::named("blackout").drop(LinkSelector::All, FaultWindow::ALWAYS, 1.0);
        let cluster = spawn(nodes, Some(plan));
        cluster.submit(NodeId(0), Transaction::zeroed(1, 9, 4));
        std::thread::sleep(Duration::from_millis(60));
        let deliveries = cluster.shutdown();
        assert_eq!(
            deliveries[0].iter().map(|d| d.round.0).collect::<Vec<_>>(),
            vec![9],
            "the self-send must survive a 100% drop plan"
        );
    }

    #[test]
    fn delayed_links_deliver_late_but_deliver() {
        use fireledger_types::{FaultPlan, FaultWindow, LinkSelector};
        let nodes: Vec<Echo> = (0..4)
            .map(|i| Echo {
                me: NodeId(i),
                n: 4,
            })
            .collect();
        // Every message parked 30–40 ms on the delay line.
        let plan = FaultPlan::named("laggy").delay(
            LinkSelector::All,
            FaultWindow::ALWAYS,
            Duration::from_millis(30),
            Duration::from_millis(40),
        );
        let cluster = spawn(nodes, Some(plan));
        // Before the delay elapses nothing can have arrived.
        std::thread::sleep(Duration::from_millis(10));
        for i in 1..4 {
            assert!(
                cluster.deliveries(NodeId(i)).is_empty(),
                "node {i} received a message faster than the injected delay"
            );
        }
        // Well after the delay, the initial broadcast must be through.
        std::thread::sleep(Duration::from_millis(100));
        let times = cluster.delivery_times(NodeId(1));
        let deliveries = cluster.shutdown();
        for (i, delivered) in deliveries.iter().enumerate().skip(1) {
            let rounds: Vec<u64> = delivered.iter().map(|d| d.round.0).collect();
            assert!(rounds.contains(&7), "node {i} never got the broadcast");
        }
        // Delivery timestamps respect the injected floor.
        assert!(!times.is_empty());
        assert!(
            times[0] >= Duration::from_millis(30),
            "first delivery at {:?}, before the 30 ms delay floor",
            times[0]
        );
    }

    #[test]
    fn duplicate_plan_delivers_extra_copies() {
        use fireledger_types::{FaultPlan, FaultWindow, LinkSelector};
        let nodes: Vec<Echo> = (0..2)
            .map(|i| Echo {
                me: NodeId(i),
                n: 2,
            })
            .collect();
        let plan = FaultPlan::named("dup").duplicate(
            LinkSelector::All,
            FaultWindow::ALWAYS,
            1.0,
            Duration::from_millis(5),
            Duration::from_millis(10),
        );
        let cluster = spawn(nodes, Some(plan));
        std::thread::sleep(Duration::from_millis(80));
        let deliveries = cluster.shutdown();
        let round7 = deliveries[1].iter().filter(|d| d.round.0 == 7).count();
        assert!(
            round7 >= 2,
            "expected the duplicated broadcast at least twice, got {round7}"
        );
    }

    #[test]
    fn paused_node_misses_traffic_and_resumes_with_state_intact() {
        struct TxDeliver {
            me: NodeId,
        }
        impl Protocol for TxDeliver {
            type Msg = u64;
            fn node_id(&self) -> NodeId {
                self.me
            }
            fn on_start(&mut self, _out: &mut Outbox<u64>) {}
            fn on_message(&mut self, _f: NodeId, _m: u64, _o: &mut Outbox<u64>) {}
            fn on_timer(&mut self, _t: TimerId, _o: &mut Outbox<u64>) {}
            fn on_transaction(&mut self, tx: Transaction, out: &mut Outbox<u64>) {
                out.deliver(Delivery {
                    worker: fireledger_types::WorkerId(0),
                    round: Round(tx.seq),
                    proposer: self.me,
                    block: fireledger_types::Block::new(
                        fireledger_types::BlockHeader::new(
                            Round(tx.seq),
                            fireledger_types::WorkerId(0),
                            self.me,
                            fireledger_types::GENESIS_HASH,
                            fireledger_types::GENESIS_HASH,
                            0,
                            0,
                        ),
                        vec![],
                    ),
                });
            }
        }
        let nodes: Vec<TxDeliver> = (0..2).map(|i| TxDeliver { me: NodeId(i) }).collect();
        let cluster = spawn(nodes, None);
        cluster.submit(NodeId(0), Transaction::zeroed(1, 1, 4));
        std::thread::sleep(Duration::from_millis(40));
        cluster.pause(NodeId(0));
        std::thread::sleep(Duration::from_millis(30));
        // Lost while down.
        cluster.submit(NodeId(0), Transaction::zeroed(1, 2, 4));
        std::thread::sleep(Duration::from_millis(30));
        cluster.resume(NodeId(0));
        std::thread::sleep(Duration::from_millis(30));
        // Processed after recovery.
        cluster.submit(NodeId(0), Transaction::zeroed(1, 3, 4));
        std::thread::sleep(Duration::from_millis(40));
        let deliveries = cluster.shutdown();
        let seqs: Vec<u64> = deliveries[0].iter().map(|d| d.round.0).collect();
        assert_eq!(
            seqs,
            vec![1, 3],
            "pre-pause and post-resume traffic must be processed, downtime traffic lost"
        );
    }

    #[test]
    fn crashed_node_stops_despite_a_queued_backlog() {
        // A crashed node must not drain events that arrive after the crash
        // flag is set, even though its inbox holds work.
        struct TxDeliver {
            me: NodeId,
        }
        impl Protocol for TxDeliver {
            type Msg = u64;
            fn node_id(&self) -> NodeId {
                self.me
            }
            fn on_start(&mut self, _out: &mut Outbox<u64>) {}
            fn on_message(&mut self, _f: NodeId, _m: u64, _o: &mut Outbox<u64>) {}
            fn on_timer(&mut self, _t: TimerId, _o: &mut Outbox<u64>) {}
            fn on_transaction(&mut self, tx: Transaction, out: &mut Outbox<u64>) {
                out.deliver(Delivery {
                    worker: fireledger_types::WorkerId(0),
                    round: Round(tx.seq),
                    proposer: self.me,
                    block: fireledger_types::Block::new(
                        fireledger_types::BlockHeader::new(
                            Round(tx.seq),
                            fireledger_types::WorkerId(0),
                            self.me,
                            fireledger_types::GENESIS_HASH,
                            fireledger_types::GENESIS_HASH,
                            0,
                            0,
                        ),
                        vec![],
                    ),
                });
            }
        }
        let nodes: Vec<TxDeliver> = (0..2).map(|i| TxDeliver { me: NodeId(i) }).collect();
        let cluster = spawn(nodes, None);
        cluster.crash(NodeId(1));
        // A backlog submitted after the crash: none of it may be processed.
        for seq in 0..100 {
            cluster.submit(NodeId(1), Transaction::zeroed(1, seq, 4));
        }
        // The survivor keeps working.
        cluster.submit(NodeId(0), Transaction::zeroed(1, 0, 4));
        std::thread::sleep(Duration::from_millis(80));
        let deliveries = cluster.shutdown();
        assert!(
            deliveries[1].is_empty(),
            "crashed node processed {} queued events after its crash",
            deliveries[1].len()
        );
        assert!(!deliveries[0].is_empty());
    }
}
