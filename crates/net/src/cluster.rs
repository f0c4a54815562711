//! The real-time cluster host: one thread per node running the shared event
//! loop ([`crate::node_loop`]) over a static localhost socket mesh.
//!
//! [`RealtimeCluster::spawn_engine`] (in `tcp.rs`) builds it: every
//! message is encoded, framed, written to a real `TcpStream` multiplexed by
//! the reactor, and decoded on the far side. Every lifecycle operation —
//! submit, crash, pause, resume, kill, restart, observe, client RPC,
//! teardown — has one body here.

use crate::node_loop::{DeliveryLog, NodeEvent, NodeFlags, STATUS_KILLED};
use crate::reactor::Reactor;
use crate::rpc::{RpcClient, RpcHandler, RpcServer};
use crate::shim::DelayLine;
use crate::NodeStatus;
use fireledger_types::rpc::RpcMsg;
use fireledger_types::{Delivery, NodeId, Transaction};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The name the repo benchmark spells the socket-mesh cluster with
/// (`TcpCluster<FloMsg>`, `TcpCluster::spawn_engine`); it is
/// [`RealtimeCluster`] itself.
pub type TcpCluster<M> = RealtimeCluster<M>;

/// A running real-time cluster: one OS thread per node, wall-clock timers,
/// and a real socket mesh between the nodes.
///
/// The `Tcp` runtime of `fireledger-runtime` is the driver written against
/// it.
pub struct RealtimeCluster<M> {
    pub(crate) evt_senders: Vec<Sender<NodeEvent<M>>>,
    pub(crate) log: Arc<DeliveryLog>,
    pub(crate) flags: NodeFlags,
    pub(crate) node_handles: Vec<JoinHandle<()>>,
    /// The reactor pool; `None` for a single-node cluster (no sockets).
    pub(crate) reactor: Option<Reactor>,
    /// Every stream endpoint (two per connection), shut down at teardown so
    /// the reactor's pending state machines fail and its pool drains.
    pub(crate) streams: Vec<TcpStream>,
    /// Fault-plan delay line re-injecting parked frames.
    pub(crate) delay: Option<DelayLine<Arc<Vec<u8>>>>,
    /// Per-node client listeners, once [`RealtimeCluster::serve_rpc`] ran.
    pub(crate) rpc: Option<RpcServer>,
    /// Lazily-dialed client connections backing
    /// [`RealtimeCluster::rpc_call`], one slot per node; a transport error
    /// drops the slot so the next call redials.
    pub(crate) rpc_clients: Mutex<Vec<Option<RpcClient>>>,
}

impl<M: Send + Sync + 'static> RealtimeCluster<M> {
    /// Submits a client transaction to `node`.
    pub fn submit(&self, node: NodeId, tx: Transaction) {
        let _ = self.evt_senders[node.as_usize()].send(NodeEvent::Transaction(tx));
    }

    /// Crashes `node` permanently: its thread is woken and stops without
    /// draining its backlog, and its peers' later sends to it disappear —
    /// how a benign crash looks to them (the paper's §7.4.1 experiment).
    /// Its sockets, if any, stay open but go silent. Idempotent.
    pub fn crash(&self, node: NodeId) {
        self.flags.crashed[node.as_usize()].store(true, Ordering::SeqCst);
        let _ = self.evt_senders[node.as_usize()].send(NodeEvent::Shutdown);
    }

    /// Pauses `node` — the crash half of a crash-recover fault: its thread
    /// discards events and expires timers silently until
    /// [`RealtimeCluster::resume`], keeping its protocol state. The flag is
    /// observed within the thread's poll interval (≤ ~10 ms).
    pub fn pause(&self, node: NodeId) {
        self.flags.paused[node.as_usize()].store(true, Ordering::SeqCst);
    }

    /// Resumes a paused `node` with its protocol state intact.
    pub fn resume(&self, node: NodeId) {
        self.flags.paused[node.as_usize()].store(false, Ordering::SeqCst);
    }

    /// Kills `node` and returns once its thread has dropped the protocol
    /// state machine: in-memory state destroyed, durable store closed (its
    /// writer joined, so a disk fault injected next lands in settled
    /// files), delivery log cleared. The thread clears the log itself — it
    /// is the slot's only writer, so the clear cannot race a final
    /// delivery; a killed process's history is whatever its disk can prove.
    /// Thread and transport stay up to host a [`RealtimeCluster::restart`].
    /// Returns at once on a node whose thread already exited (crashed).
    pub fn kill(&self, node: NodeId) {
        let i = node.as_usize();
        self.flags.killed[i].store(true, Ordering::SeqCst);
        let _ = self.evt_senders[i].send(NodeEvent::Wake);
        while self.flags.statuses[i].load(Ordering::Acquire) != STATUS_KILLED
            && !self.node_handles[i].is_finished()
        {
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Restarts a killed `node` through the rebuild hook the cluster was
    /// spawned with (ignored without one): the node is reconstructed —
    /// typically from its durable store — and rejoins on its original
    /// sockets. Observed within the thread's poll interval.
    pub fn restart(&self, node: NodeId) {
        self.flags.restarts[node.as_usize()].store(true, Ordering::SeqCst);
    }

    /// `node`'s availability as mirrored by its own event loop.
    pub fn node_status(&self, node: NodeId) -> NodeStatus {
        NodeStatus::from_u8(self.flags.statuses[node.as_usize()].load(Ordering::Acquire))
    }

    /// Blocks delivered so far at `node` (a snapshot).
    pub fn deliveries(&self, node: NodeId) -> Vec<Delivery> {
        self.log.deliveries(node)
    }

    /// Wall-clock offsets (from [`RealtimeCluster::start`]) of `node`'s
    /// deliveries so far, parallel to [`RealtimeCluster::deliveries`] — the
    /// raw series behind the delivery-timeline metrics of run reports.
    pub fn delivery_times(&self, node: NodeId) -> Vec<Duration> {
        self.log.times(node)
    }

    /// The instant the cluster's clock started: the zero point of
    /// [`RealtimeCluster::delivery_times`] and of fault-plan offsets.
    /// Drivers measuring latencies against delivery timestamps must stamp
    /// their own events against this same origin.
    pub fn start(&self) -> Instant {
        self.log.start()
    }

    /// Starts the client RPC front end (WIRE_FORMAT.md §11) and returns one
    /// listener address per node. Accepted submissions enter the node
    /// through the same event channel as [`RealtimeCluster::submit`]. Call
    /// once, before driving traffic.
    pub fn serve_rpc(&mut self, handler: Arc<dyn RpcHandler>) -> io::Result<Vec<SocketAddr>> {
        assert!(self.rpc.is_none(), "serve_rpc is once per cluster");
        let submitters = self
            .evt_senders
            .iter()
            .map(|evt_tx| {
                let evt_tx = evt_tx.clone();
                move |tx: Transaction| {
                    let _ = evt_tx.send(NodeEvent::Transaction(tx));
                }
            })
            .collect();
        let server = RpcServer::spawn(handler, submitters)?;
        let addrs = server.addrs().to_vec();
        self.rpc = Some(server);
        Ok(addrs)
    }

    /// Serves one client RPC against `node`'s ingress over a real socket
    /// round trip: framed, written to the node's client port, reply decoded
    /// — the full §11 wire path. `None` when no ingress is served or the
    /// transport failed (the connection is redialed on the next call) — a
    /// client treats that like a lost connection and retries.
    pub fn rpc_call(&self, node: NodeId, msg: &RpcMsg) -> Option<RpcMsg> {
        let addr = *self.rpc.as_ref()?.addrs().get(node.as_usize())?;
        let mut pool = self.rpc_clients.lock().expect("rpc client pool");
        let slot = pool.get_mut(node.as_usize())?;
        if slot.is_none() {
            *slot = RpcClient::connect(addr).ok();
        }
        let reply = slot.as_mut()?.call(msg);
        if reply.is_err() {
            *slot = None;
        }
        reply.ok()
    }

    /// OS threads the cluster runs right now: node threads, the reactor
    /// pool, the fault delay line and the RPC accept threads (transient
    /// per-client connection threads are bounded by the listener's pool,
    /// not by cluster size, and excluded). A fault-free, ingress-free
    /// cluster counts exactly `n + DEFAULT_REACTOR_THREADS` — the reactor's
    /// O(n) claim.
    pub fn thread_count(&self) -> usize {
        self.node_handles.len()
            + self.reactor.as_ref().map_or(0, Reactor::thread_count)
            + usize::from(self.delay.is_some())
            + self.rpc.as_ref().map_or(0, RpcServer::accept_threads)
    }

    /// Stops every thread, closes every socket, and returns the final
    /// per-node deliveries.
    pub fn shutdown(self) -> Vec<Vec<Delivery>> {
        let RealtimeCluster {
            evt_senders,
            log,
            node_handles,
            reactor,
            streams,
            delay,
            rpc,
            mut rpc_clients,
            ..
        } = self;
        // Client listeners close first: no new submissions enter a cluster
        // that is tearing down. Dropping the pooled client connections
        // unblocks their server-side threads immediately.
        rpc_clients.get_mut().expect("rpc client pool").clear();
        if let Some(rpc) = rpc {
            rpc.shutdown();
        }
        for tx in &evt_senders {
            let _ = tx.send(NodeEvent::Shutdown);
        }
        // Joining the node threads drops their egresses; the delay line goes
        // next (it holds senders too); shutting the sockets down then fails
        // the reactor's pending state machines, so the pool drains and exits.
        for h in node_handles {
            let _ = h.join();
        }
        if let Some(delay) = delay {
            delay.stop();
        }
        for stream in &streams {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(reactor) = reactor {
            reactor.stop_and_join();
        }
        DeliveryLog::into_deliveries(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TcpEngine;
    use fireledger_types::{Outbox, Protocol, TimerId};
    use std::sync::atomic::AtomicBool;

    /// A protocol whose drop takes a while (like a store joining its
    /// writer) and then raises `dropped`.
    struct SlowDrop {
        me: NodeId,
        dropped: Arc<AtomicBool>,
    }

    impl Drop for SlowDrop {
        fn drop(&mut self) {
            std::thread::sleep(Duration::from_millis(30));
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    impl Protocol for SlowDrop {
        type Msg = u64;
        fn node_id(&self) -> NodeId {
            self.me
        }
        fn on_start(&mut self, _out: &mut Outbox<u64>) {}
        fn on_message(&mut self, _f: NodeId, _m: u64, _o: &mut Outbox<u64>) {}
        fn on_timer(&mut self, _t: TimerId, _o: &mut Outbox<u64>) {}
    }

    #[test]
    fn kill_returns_after_the_state_machine_is_dropped_on_both_transports() {
        let dropped: Vec<Arc<AtomicBool>> = (0..3).map(|_| Arc::default()).collect();
        let nodes: Vec<SlowDrop> = (0..3)
            .map(|i| SlowDrop {
                me: NodeId(i as u32),
                dropped: dropped[i].clone(),
            })
            .collect();
        let cluster = RealtimeCluster::spawn_engine(nodes, None, None, None, &[], TcpEngine)
            .expect("mesh setup");
        cluster.kill(NodeId(1));
        assert!(
            dropped[1].load(Ordering::SeqCst),
            "kill returned before the node's state was dropped"
        );
        assert_eq!(cluster.node_status(NodeId(1)), NodeStatus::Down);
        // A crashed node's thread has exited (or is exiting): kill must
        // not wait for an acknowledgement that will never come.
        cluster.crash(NodeId(2));
        cluster.kill(NodeId(2));
        assert!(!dropped[0].load(Ordering::SeqCst));
        cluster.shutdown();
    }
}
