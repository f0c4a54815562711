//! The socket transport: each node owns real sockets in a static localhost
//! mesh.
//!
//! This is the transport the paper's deployment shape calls for — nodes that
//! exchange *bytes*, not Rust values. Every message crosses a real
//! `std::net::TcpStream`, framed per WIRE_FORMAT.md §3 and encoded with the
//! message's [`WireCodec`] layout, so the whole encode → socket → decode path
//! is exercised (and paid for) on every hop.
//!
//! ## Topology and threads
//!
//! The mesh is *static*: one TCP connection per unordered node pair, dialed
//! at start-up (node `i` dials node `j` for `i < j`) and never re-established
//! — a connection teardown is treated as a benign crash of the remote end,
//! matching the paper's link model. Each node runs one protocol thread (the
//! shared event loop of [`crate::node_loop`]), and a fixed pool of
//! [`DEFAULT_REACTOR_THREADS`] nonblocking reactor threads — see
//! [`crate::reactor`] — multiplexes **all** streams, so total cluster
//! threads are `n + DEFAULT_REACTOR_THREADS`. This is what lets a single
//! host run the n = 32–64 meshes the paper's scalability figures need.
//! Each reactor thread owns every stream of the nodes assigned to it
//! (node `i` → thread `i % k`) and hands a node everything it decoded for
//! it in one sweep as a single batch event, so a node thread wakes once
//! per sweep rather than once per inbound message.
//!
//! A slow or dead peer never stalls the protocol thread, and there is **no
//! back-pressure**: frames addressed to a stalled peer buffer in that peer's
//! outbox channel for the remainder of the run, so sender memory grows with
//! how long the peer stays stalled. For the bounded benchmark runs this
//! transport serves, that is the right trade; a long-lived deployment would
//! want a bounded channel plus a disconnect policy instead.
//!
//! ## Handshake
//!
//! The dialing side opens every connection with a `Hello` frame whose payload
//! is its `NodeId` (WIRE_FORMAT.md §3.1); the accepting side validates it
//! before attaching the connection to the mesh. Frames that fail validation
//! tear the connection down.

use crate::frame::{read_frame, write_frame};
use crate::node_loop::{run_node, DeliveryLog, Egress, NodeEvent, NodeFlags, Rebuild};
use crate::reactor::{Conn, Reactor, TcpEngine, DEFAULT_REACTOR_THREADS};
use crate::shim::{DelayLine, LinkShim};
use crate::RealtimeCluster;
use fireledger_types::codec::{framed_len, FrameHeader, FRAME_HEADER_LEN};
use fireledger_types::{FaultPlan, LinkDecision, NodeId, Protocol, WireCodec};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Upper bound on frames drained per outbox refill: bounds the batch vector
/// and keeps a single vectored write under the kernel's iovec limit ballpark
/// (`IOV_MAX` is 1024 on Linux; `write_vectored` handles the excess, this
/// just avoids pathological batch growth while the socket is stalled).
const MAX_BATCH_FRAMES: usize = 1024;

/// Builds the complete frame (header + payload) for one message, shared
/// across all outboxes of a broadcast. [`framed_len`] — the byte count the
/// simulator charges — sizes the buffer exactly (one right-sized
/// allocation, no growth reallocations, no payload copy), but the header's
/// length field is written from the bytes *actually encoded* — the size
/// hint is purely advisory, so a drifted `encoded_len` impl can never
/// desync the stream.
fn frame_of<M: WireCodec>(msg: &M) -> Arc<Vec<u8>> {
    let hint = framed_len(msg);
    let mut out = Vec::with_capacity(hint);
    out.resize(FRAME_HEADER_LEN, 0);
    msg.encode_to(&mut out);
    let len = out.len() - FRAME_HEADER_LEN;
    out[..FRAME_HEADER_LEN].copy_from_slice(&FrameHeader::new(len).encode());
    debug_assert_eq!(out.len(), hint, "encoded_len hint drifted from encode_to");
    Arc::new(out)
}

/// A frame parked on the fault plan's delay line: its release instant and its
/// target in the flat `from * n + to` outbox table.
type Parked = (Instant, usize, Arc<Vec<u8>>);

/// Routes a node's outbound messages to its per-peer outboxes, encoding each
/// message exactly once (one frame shared across a broadcast). A send
/// addressed to the node itself loops back through its own event queue —
/// the same semantics the simulator gives self-sends, with no socket
/// involved, and exempt from any fault plan.
///
/// Under a fault plan the link shim sits **between the wire codec and the
/// outboxes**: the *frame* is dropped, parked on the delay line, or queued
/// twice per the link's decision, so every surviving copy still crosses a
/// real socket.
struct TcpEgress<M> {
    me: NodeId,
    writers: Vec<Option<Sender<Arc<Vec<u8>>>>>,
    loopback: Sender<NodeEvent<M>>,
    /// The plan's link shim and the delay line's sender; `None` runs
    /// fault-free.
    faults: Option<(LinkShim, Sender<Parked>)>,
}

impl<M: WireCodec> TcpEgress<M> {
    fn route(&mut self, to: NodeId, frame: Arc<Vec<u8>>) {
        let Some(Some(w)) = self.writers.get(to.as_usize()) else {
            return;
        };
        let Some((shim, delay)) = &mut self.faults else {
            let _ = w.send(frame);
            return;
        };
        let slot = self.me.as_usize() * self.writers.len() + to.as_usize();
        match shim.decide(self.me, to) {
            LinkDecision::Deliver => {
                let _ = w.send(frame);
            }
            LinkDecision::Drop => {}
            // A parked frame bypasses the outbox's FIFO order, so delay and
            // reorder coincide on real sockets (the simulator distinguishes
            // them because its links are otherwise perfectly FIFO).
            LinkDecision::Delay(d) | LinkDecision::Reorder(d) => {
                let _ = delay.send((Instant::now() + d, slot, frame));
            }
            LinkDecision::Duplicate(d) => {
                let _ = w.send(frame.clone());
                let _ = delay.send((Instant::now() + d, slot, frame));
            }
        }
    }
}

impl<M: WireCodec> Egress<M> for TcpEgress<M> {
    fn send(&mut self, to: NodeId, msg: M) {
        if to == self.me {
            let _ = self
                .loopback
                .send(NodeEvent::Message { from: self.me, msg });
        } else {
            self.route(to, frame_of(&msg));
        }
    }

    fn broadcast(&mut self, msg: M) {
        let frame = frame_of(&msg);
        for to in 0..self.writers.len() {
            if to != self.me.as_usize() {
                self.route(NodeId(to as u32), frame.clone());
            }
        }
    }
}

impl<M> RealtimeCluster<M>
where
    M: WireCodec + Clone + Send + Sync + 'static,
{
    /// Binds one listener per node, dials the full mesh, performs the hello
    /// handshake on every connection, hands every stream to the reactor, and
    /// starts one thread per node running the protocol.
    ///
    /// * `faults` — an optional [`FaultPlan`] compiled into a frame-level
    ///   interceptor between the codec and the reactor outboxes
    ///   (drop/delay/reorder/duplicate and partitions; node faults are
    ///   driven by the caller through [`RealtimeCluster::pause`] /
    ///   [`RealtimeCluster::resume`] / [`RealtimeCluster::crash`]). Its time
    ///   offsets are measured from the moment the mesh is fully dialed.
    /// * `rebuild` — after [`RealtimeCluster::kill`],
    ///   [`RealtimeCluster::restart`] invokes it to reconstruct the node,
    ///   typically from its durable store, on the same thread and its
    ///   original sockets (the mesh is static — what a "kill -9" destroys is
    ///   the protocol's process state).
    /// * `dormant` — nodes spawned with their state machine dropped before
    ///   it ever starts (late join): a later restart rebuilds them mid-run
    ///   and they catch up through state sync.
    ///
    /// `_pre_verify` and `engine` are vestigial: the first can only be
    /// `None`, the second is a unit struct (see [`TcpEngine`]).
    pub fn spawn_engine<P>(
        nodes: Vec<P>,
        faults: Option<FaultPlan>,
        _pre_verify: Option<std::convert::Infallible>,
        rebuild: Option<Rebuild<P>>,
        dormant: &[NodeId],
        _engine: TcpEngine,
    ) -> io::Result<Self>
    where
        P: Protocol<Msg = M> + Send + 'static,
    {
        let n = nodes.len();
        let mesh = dial_mesh(n)?;
        let (evt_senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
        let log = Arc::new(DeliveryLog::new(n));
        let flags = NodeFlags::new(n);
        // A dormant node has its kill flag pre-set, so its thread drops the
        // state machine without ever starting it.
        for node in dormant {
            flags.killed[node.as_usize()].store(true, Ordering::SeqCst);
        }

        // Every live stream goes to the reactor; its ingress is a
        // per-connection mpsc outbox whose sender goes into a flat
        // `from * n + to` table, so the egresses — and the fault delay line,
        // which re-injects a parked frame into the right outbox regardless
        // of which node parked it — address outboxes the same way.
        let mut streams = Vec::new();
        let mut writers: Vec<Option<Sender<Arc<Vec<u8>>>>> = vec![None; n * n];
        let mut conns: Vec<Conn> = Vec::new();
        for (i, row) in mesh.into_iter().enumerate() {
            for (j, stream) in row.into_iter().enumerate() {
                let Some(stream) = stream else {
                    continue;
                };
                streams.push(stream.try_clone()?);
                let (wtx, wrx) = channel::<Arc<Vec<u8>>>();
                writers[i * n + j] = Some(wtx);
                stream.set_nonblocking(true)?;
                conns.push(Conn::new(stream, NodeId(j as u32), NodeId(i as u32), wrx));
            }
        }
        let reactor = (!conns.is_empty()).then(|| {
            Reactor::spawn(
                conns,
                &evt_senders,
                DEFAULT_REACTOR_THREADS,
                MAX_BATCH_FRAMES,
            )
        });

        // One protocol thread per node, each sending through its own egress
        // (shimmed when a plan is given, the plan's clock starting now).
        let delay = faults.as_ref().map(|_| DelayLine::new(writers.clone()));
        let node_handles = nodes
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(i, (node, rx))| {
                let mut egress = TcpEgress {
                    me: NodeId(i as u32),
                    writers: writers[i * n..(i + 1) * n].to_vec(),
                    loopback: evt_senders[i].clone(),
                    faults: faults.as_ref().zip(delay.as_ref()).map(|(plan, delay)| {
                        (LinkShim::new(plan.clone(), log.start()), delay.sender())
                    }),
                };
                let (log, flags, rebuild) = (log.clone(), flags.clone(), rebuild.clone());
                std::thread::spawn(move || {
                    run_node(node, NodeId(i as u32), rx, &mut egress, log, flags, rebuild);
                })
            })
            .collect();
        Ok(RealtimeCluster {
            evt_senders,
            log,
            flags,
            node_handles,
            reactor,
            streams,
            delay,
            rpc: None,
            rpc_clients: Mutex::new((0..n).map(|_| None).collect()),
        })
    }
}

/// Binds one listener per node and dials the static full mesh: node `i`
/// dials node `j` for `i < j`, opening with a hello frame the acceptor
/// validates (WIRE_FORMAT.md §3.1). `mesh[i][j]` is the stream node `i` uses
/// to exchange frames with node `j`.
fn dial_mesh(n: usize) -> io::Result<Vec<Vec<Option<TcpStream>>>> {
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        addrs.push(listener.local_addr()?);
        listeners.push(listener);
    }
    // Index loops, not iterators: each pass fills both mesh[i][j] and
    // mesh[j][i].
    let mut mesh: Vec<Vec<Option<TcpStream>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        for j in (i + 1)..n {
            let mut dialed = TcpStream::connect(addrs[j])?;
            dialed.set_nodelay(true)?;
            write_frame(&mut dialed, &NodeId(i as u32).encode())?;
            let (mut accepted, _) = listeners[j].accept()?;
            accepted.set_nodelay(true)?;
            let hello = read_frame(&mut accepted)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed before hello")
            })?;
            let peer = NodeId::decode(&hello)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if peer != NodeId(i as u32) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("hello claims {peer}, expected p{i}"),
                ));
            }
            mesh[i][j] = Some(dialed);
            mesh[j][i] = Some(accepted);
        }
    }
    Ok(mesh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireledger_types::{Delivery, Outbox, Round, TimerId, Transaction, WorkerId};
    use std::time::Duration;

    fn spawn<P>(nodes: Vec<P>, faults: Option<FaultPlan>) -> RealtimeCluster<u64>
    where
        P: Protocol<Msg = u64> + Send + 'static,
    {
        RealtimeCluster::spawn_engine(nodes, faults, None, None, &[], TcpEngine)
            .expect("mesh setup")
    }

    #[test]
    fn a_frame_is_framed_len_bytes_long() {
        let tx = Transaction::zeroed(1, 2, 512);
        let batch = vec![tx.clone(), Transaction::new(3, 4, vec![9u8; 7])];
        for (frame, expected, payload) in [
            (frame_of(&7u64), framed_len(&7u64), 7u64.encode()),
            (frame_of(&tx), framed_len(&tx), tx.encode()),
            (frame_of(&batch), framed_len(&batch), batch.encode()),
        ] {
            assert_eq!(frame.len(), expected);
            assert_eq!(frame.len(), FRAME_HEADER_LEN + payload.len());
            assert_eq!(&frame[FRAME_HEADER_LEN..], payload.as_slice());
        }
    }

    fn delivery(round: u64, proposer: NodeId) -> Delivery {
        Delivery {
            worker: WorkerId(0),
            round: Round(round),
            proposer,
            block: fireledger_types::Block::new(
                fireledger_types::BlockHeader::new(
                    Round(round),
                    WorkerId(0),
                    proposer,
                    fireledger_types::GENESIS_HASH,
                    fireledger_types::GENESIS_HASH,
                    0,
                    0,
                ),
                vec![],
            ),
        }
    }

    /// Node 0 broadcasts on start and on a timer; everyone delivers what it
    /// receives — every `u64` crosses a real socket.
    struct Echo {
        me: NodeId,
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
            out.deliver(delivery(msg, from));
        }
        fn on_timer(&mut self, _timer: TimerId, out: &mut Outbox<u64>) {
            out.broadcast(8);
        }
    }

    #[test]
    fn tcp_cluster_routes_messages_and_timers_over_sockets() {
        let nodes: Vec<Echo> = (0..4).map(|i| Echo { me: NodeId(i) }).collect();
        let cluster = spawn(nodes, None);
        // O(n) threads: the node loops plus the fixed reactor pool.
        assert_eq!(cluster.thread_count(), 4 + DEFAULT_REACTOR_THREADS);
        std::thread::sleep(Duration::from_millis(120));
        let deliveries = cluster.shutdown();
        for (i, delivered) in deliveries.iter().enumerate().skip(1) {
            let rounds: Vec<u64> = delivered.iter().map(|d| d.round.0).collect();
            assert!(rounds.contains(&7), "node {i} missed broadcast: {rounds:?}");
            assert!(
                rounds.contains(&8),
                "node {i} missed timer bcast: {rounds:?}"
            );
        }
    }

    #[test]
    fn unicast_replies_flow_both_directions() {
        // 0 broadcasts; each receiver unicasts an ack back; 0 delivers acks.
        struct Ack {
            me: NodeId,
        }
        impl Protocol for Ack {
            type Msg = u64;
            fn node_id(&self) -> NodeId {
                self.me
            }
            fn on_start(&mut self, out: &mut Outbox<u64>) {
                if self.me == NodeId(0) {
                    out.broadcast(1);
                }
            }
            fn on_message(&mut self, from: NodeId, msg: u64, out: &mut Outbox<u64>) {
                if msg == 1 {
                    out.send(NodeId(0), 100 + self.me.0 as u64);
                } else {
                    out.deliver(delivery(msg, from));
                }
            }
            fn on_timer(&mut self, _t: TimerId, _o: &mut Outbox<u64>) {}
        }
        let nodes: Vec<Ack> = (0..4).map(|i| Ack { me: NodeId(i) }).collect();
        let cluster = spawn(nodes, None);
        std::thread::sleep(Duration::from_millis(120));
        let deliveries = cluster.shutdown();
        let acks: std::collections::HashSet<u64> =
            deliveries[0].iter().map(|d| d.round.0).collect();
        assert_eq!(acks, [101u64, 102, 103].into_iter().collect());
    }

    #[test]
    fn crashed_node_goes_silent_but_cluster_shuts_down_cleanly() {
        struct TxDeliver {
            me: NodeId,
        }
        impl Protocol for TxDeliver {
            type Msg = u64;
            fn node_id(&self) -> NodeId {
                self.me
            }
            fn on_start(&mut self, _o: &mut Outbox<u64>) {}
            fn on_message(&mut self, _f: NodeId, _m: u64, _o: &mut Outbox<u64>) {}
            fn on_timer(&mut self, _t: TimerId, _o: &mut Outbox<u64>) {}
            fn on_transaction(&mut self, tx: Transaction, out: &mut Outbox<u64>) {
                out.deliver(delivery(tx.seq, self.me));
                out.broadcast(tx.seq);
            }
        }
        let nodes: Vec<TxDeliver> = (0..4).map(|i| TxDeliver { me: NodeId(i) }).collect();
        let cluster = spawn(nodes, None);
        cluster.crash(NodeId(3));
        for seq in 0..50 {
            cluster.submit(NodeId(3), Transaction::zeroed(1, seq, 4));
        }
        cluster.submit(NodeId(0), Transaction::zeroed(1, 0, 4));
        std::thread::sleep(Duration::from_millis(100));
        let deliveries = cluster.shutdown();
        assert!(deliveries[3].is_empty(), "crashed node kept delivering");
        assert!(!deliveries[0].is_empty());
    }

    #[test]
    fn frame_interceptor_drops_and_delays_on_real_sockets() {
        use fireledger_types::{FaultPlan, FaultWindow, LinkSelector};
        // Drop everything node 0 sends; everyone else communicates freely —
        // asserted over real sockets, after the codec, before the outboxes.
        let nodes: Vec<Echo> = (0..3).map(|i| Echo { me: NodeId(i) }).collect();
        let plan = FaultPlan::named("mute-0").drop(
            LinkSelector::From(NodeId(0)),
            FaultWindow::ALWAYS,
            1.0,
        );
        let cluster = spawn(nodes, Some(plan));
        std::thread::sleep(Duration::from_millis(100));
        let deliveries = cluster.shutdown();
        for (i, delivered) in deliveries.iter().enumerate().skip(1) {
            assert!(
                delivered.is_empty(),
                "node {i} heard the muted broadcaster: {} messages",
                delivered.len()
            );
        }

        // A pure delay still delivers — late, and through the delay line's
        // outbox re-injection path.
        let nodes: Vec<Echo> = (0..3).map(|i| Echo { me: NodeId(i) }).collect();
        let plan = FaultPlan::named("slow").delay(
            LinkSelector::All,
            FaultWindow::ALWAYS,
            Duration::from_millis(25),
            Duration::from_millis(35),
        );
        let cluster = spawn(nodes, Some(plan));
        std::thread::sleep(Duration::from_millis(150));
        let times = cluster.delivery_times(NodeId(1));
        let deliveries = cluster.shutdown();
        let rounds: Vec<u64> = deliveries[1].iter().map(|d| d.round.0).collect();
        assert!(rounds.contains(&7), "delayed broadcast never arrived");
        assert!(
            times
                .first()
                .is_some_and(|t| *t >= Duration::from_millis(25)),
            "delivery beat the injected delay: {times:?}"
        );
    }

    #[test]
    fn reactor_survives_pause_resume_and_kill() {
        struct Chatter {
            me: NodeId,
        }
        impl Protocol for Chatter {
            type Msg = u64;
            fn node_id(&self) -> NodeId {
                self.me
            }
            fn on_start(&mut self, _o: &mut Outbox<u64>) {}
            fn on_message(&mut self, from: NodeId, msg: u64, out: &mut Outbox<u64>) {
                out.deliver(delivery(msg, from));
            }
            fn on_timer(&mut self, _t: TimerId, _o: &mut Outbox<u64>) {}
            fn on_transaction(&mut self, tx: Transaction, out: &mut Outbox<u64>) {
                out.broadcast(tx.seq);
            }
        }
        let nodes: Vec<Chatter> = (0..4).map(|i| Chatter { me: NodeId(i) }).collect();
        let cluster = spawn(nodes, None);
        // Pause node 1: the reactor keeps reading its sockets, but the node
        // loop discards events while paused (dead-node semantics).
        cluster.pause(NodeId(1));
        cluster.submit(NodeId(0), Transaction::zeroed(1, 10, 4));
        std::thread::sleep(Duration::from_millis(60));
        // Kill node 3 outright mid-run — its protocol state and delivery
        // log die; its sockets stay up under the reactor.
        cluster.kill(NodeId(3));
        cluster.resume(NodeId(1));
        std::thread::sleep(Duration::from_millis(30));
        cluster.submit(NodeId(0), Transaction::zeroed(1, 11, 4));
        std::thread::sleep(Duration::from_millis(100));
        let deliveries = cluster.shutdown();
        let at = |node: usize| -> Vec<u64> { deliveries[node].iter().map(|d| d.round.0).collect() };
        assert!(
            !at(1).contains(&10) && at(1).contains(&11),
            "pause/resume semantics broke on the reactor: {:?}",
            at(1)
        );
        assert!(at(3).is_empty(), "killed node kept deliveries: {:?}", at(3));
        assert!(
            at(2).contains(&10) && at(2).contains(&11),
            "live bystander missed traffic: {:?}",
            at(2)
        );
    }

    #[test]
    fn drop_from_one_node_only_silences_that_sender() {
        use fireledger_types::{FaultWindow, LinkSelector};
        // Node 0 broadcasts; a From(0) drop plan must starve everyone, while
        // a From(1) plan must not.
        for (lossy, expect_delivery) in [(NodeId(0), false), (NodeId(1), true)] {
            let nodes: Vec<Echo> = (0..4).map(|i| Echo { me: NodeId(i) }).collect();
            let plan = FaultPlan::named("one-lossy").drop(
                LinkSelector::From(lossy),
                FaultWindow::ALWAYS,
                1.0,
            );
            let cluster = spawn(nodes, Some(plan));
            std::thread::sleep(Duration::from_millis(80));
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
        use fireledger_types::{FaultWindow, LinkSelector};
        // A node sending to itself never touches the network, so even a
        // drop-everything plan must not intercept it (the simulator gives
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
                    out.deliver(delivery(msg, from));
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
    fn duplicate_plan_delivers_extra_copies() {
        use fireledger_types::{FaultWindow, LinkSelector};
        let nodes: Vec<Echo> = (0..2).map(|i| Echo { me: NodeId(i) }).collect();
        let plan = FaultPlan::named("dup").duplicate(
            LinkSelector::All,
            FaultWindow::ALWAYS,
            1.0,
            Duration::from_millis(5),
            Duration::from_millis(10),
        );
        let cluster = spawn(nodes, Some(plan));
        std::thread::sleep(Duration::from_millis(100));
        let deliveries = cluster.shutdown();
        let round7 = deliveries[1].iter().filter(|d| d.round.0 == 7).count();
        assert!(
            round7 >= 2,
            "expected the duplicated broadcast at least twice, got {round7}"
        );
    }

    #[test]
    fn paused_node_misses_traffic_and_resumes_with_state_intact() {
        // Delivers the running sum of the transactions it handled: the
        // post-resume delivery reads 1 + 3 only if the pre-pause state
        // survived and the downtime transaction was lost.
        struct RunningSum {
            me: NodeId,
            sum: u64,
        }
        impl Protocol for RunningSum {
            type Msg = u64;
            fn node_id(&self) -> NodeId {
                self.me
            }
            fn on_start(&mut self, _o: &mut Outbox<u64>) {}
            fn on_message(&mut self, _f: NodeId, _m: u64, _o: &mut Outbox<u64>) {}
            fn on_timer(&mut self, _t: TimerId, _o: &mut Outbox<u64>) {}
            fn on_transaction(&mut self, tx: Transaction, out: &mut Outbox<u64>) {
                self.sum += tx.seq;
                out.deliver(delivery(self.sum, self.me));
            }
        }
        let nodes: Vec<RunningSum> = (0..2)
            .map(|i| RunningSum {
                me: NodeId(i),
                sum: 0,
            })
            .collect();
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
        // Processed after recovery, on top of the pre-pause state.
        cluster.submit(NodeId(0), Transaction::zeroed(1, 3, 4));
        std::thread::sleep(Duration::from_millis(40));
        let deliveries = cluster.shutdown();
        let sums: Vec<u64> = deliveries[0].iter().map(|d| d.round.0).collect();
        assert_eq!(
            sums,
            vec![1, 4],
            "pre-pause state must survive the pause, downtime traffic must be lost"
        );
    }

    #[test]
    fn single_node_cluster_needs_no_sockets() {
        let cluster = spawn(vec![Echo { me: NodeId(0) }], None);
        assert_eq!(cluster.thread_count(), 1, "no reactor without sockets");
        let deliveries = cluster.shutdown();
        assert_eq!(deliveries.len(), 1);
        assert!(deliveries[0].is_empty());
    }
}
