//! The per-node event loop.
//!
//! Every [`crate::RealtimeCluster`] node thread runs the same loop: pull the
//! next [`NodeEvent`] from the node's inbox, hand it to the sans-IO protocol
//! state machine, and interpret the resulting [`Action`]s. How outbound
//! messages leave the node — plain or through the fault-plan shim — is the
//! [`Egress`] implementation.

use fireledger_types::{Action, Delivery, NodeId, Outbox, Protocol, TimerId, Transaction};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Events routed to a node's thread.
pub(crate) enum NodeEvent<M> {
    /// A protocol message from a peer.
    Message {
        /// The sending node.
        from: NodeId,
        /// The message.
        msg: M,
    },
    /// Protocol messages handled one by one, in order, exactly as if each
    /// had been its own [`NodeEvent::Message`] — what a socket reactor
    /// thread decoded for this node in one sweep, handed over in one wakeup.
    Batch(Vec<(NodeId, M)>),
    /// A client transaction submitted to this node.
    Transaction(Transaction),
    /// Re-check the fault flags now instead of at the next poll — what a
    /// kill sends. Unlike [`NodeEvent::Shutdown`] it never ends the loop, so
    /// a killed node can still restart.
    Wake,
    /// Stop the node's thread.
    Shutdown,
}

/// How a node's outbound messages leave its thread.
///
/// Implementations capture the local node id, so `broadcast` excludes self.
pub(crate) trait Egress<M> {
    /// Delivers `msg` to `to` (a no-op for unknown or closed peers — the
    /// paper's benign-crash link model).
    fn send(&mut self, to: NodeId, msg: M);
    /// Delivers `msg` to every other node.
    fn broadcast(&mut self, msg: M);
}

/// The shared per-node delivery logs: every delivery is recorded together
/// with its wall-clock offset from the cluster's start, which is the raw
/// series behind the delivery-timeline (stall/recovery) metrics of run
/// reports. Each node's log has its own lock, so node threads recording
/// deliveries never contend with each other.
pub(crate) struct DeliveryLog {
    start: Instant,
    entries: Vec<Mutex<Vec<(Delivery, Duration)>>>,
}

impl DeliveryLog {
    pub fn new(n: usize) -> Self {
        DeliveryLog {
            start: Instant::now(),
            entries: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn entries(&self, node: NodeId) -> MutexGuard<'_, Vec<(Delivery, Duration)>> {
        self.entries[node.as_usize()]
            .lock()
            .expect("delivery log lock")
    }

    /// The instant offsets are measured from (also the time base of
    /// real-time fault plans).
    pub fn start(&self) -> Instant {
        self.start
    }

    fn record(&self, node: NodeId, delivery: Delivery) {
        let at = self.start.elapsed();
        self.entries(node).push((delivery, at));
    }

    /// Clears `node`'s recorded deliveries — a kill destroys the process,
    /// so its delivery log restarts empty; a node rebuilt from disk then
    /// re-emits its recovered prefix, and the post-restart log reads as the
    /// complete ledger from round 0.
    fn clear(&self, node: NodeId) {
        self.entries(node).clear();
    }

    /// Blocks delivered so far at `node` (a snapshot).
    pub fn deliveries(&self, node: NodeId) -> Vec<Delivery> {
        self.entries(node).iter().map(|(d, _)| d.clone()).collect()
    }

    /// Offsets from [`DeliveryLog::start`] of `node`'s deliveries so far.
    pub fn times(&self, node: NodeId) -> Vec<Duration> {
        self.entries(node).iter().map(|(_, at)| *at).collect()
    }

    /// The final per-node deliveries (callers join their node threads
    /// first, so the `Arc` is normally unique).
    pub fn into_deliveries(log: Arc<Self>) -> Vec<Vec<Delivery>> {
        match Arc::try_unwrap(log) {
            Ok(log) => log
                .entries
                .into_iter()
                .map(|node| {
                    let timed = node.into_inner().expect("delivery log lock");
                    timed.into_iter().map(|(d, _)| d).collect()
                })
                .collect(),
            Err(shared) => (0..shared.entries.len())
                .map(|i| shared.deliveries(NodeId(i as u32)))
                .collect(),
        }
    }
}

/// The flag banks every node thread watches, one slot per node, shared
/// (`Arc`) between the cluster host and all node threads.
#[derive(Clone)]
pub(crate) struct NodeFlags {
    pub crashed: Arc<Vec<AtomicBool>>,
    pub paused: Arc<Vec<AtomicBool>>,
    /// Kill flags: the node's thread drops its protocol state machine
    /// entirely (closing its durable store) and idles, discarding traffic.
    pub killed: Arc<Vec<AtomicBool>>,
    /// Restart requests: a killed node's thread rebuilds its protocol from
    /// the durable store and rejoins. Only honored while killed, and only
    /// on clusters spawned with a rebuild hook.
    pub restarts: Arc<Vec<AtomicBool>>,
    /// Availability mirror, written by each node's own loop (encoded as
    /// [`crate::NodeStatus`], plus [`STATUS_KILLED`]): ingress admission
    /// reads it to answer `Syncing`/`Busy` instead of accepting work a down
    /// or catching-up node could lose, and a kill waits on it.
    pub statuses: Arc<Vec<AtomicU8>>,
}

impl NodeFlags {
    /// All-clear banks for `n` nodes.
    pub fn new(n: usize) -> Self {
        let bools = || Arc::new((0..n).map(|_| AtomicBool::new(false)).collect());
        NodeFlags {
            crashed: bools(),
            paused: bools(),
            killed: bools(),
            restarts: bools(),
            statuses: Arc::new((0..n).map(|_| AtomicU8::new(0)).collect()),
        }
    }
}

/// The status a node's loop mirrors once its state machine is gone (killed
/// or dormant): down to [`crate::NodeStatus::from_u8`], and the
/// acknowledgement a kill waits for — it is only written after the drop has
/// closed the node's durable store.
pub(crate) const STATUS_KILLED: u8 = 3;

/// Rebuilds a node's protocol state machine from its durable store after a
/// kill — installed per cluster by the runtime layer's builder.
pub(crate) type Rebuild<P> = Arc<dyn Fn(NodeId) -> P + Send + Sync>;

/// Runs one node until shutdown or crash: fires due timers, pulls events,
/// applies the protocol's actions through `egress`.
///
/// While the node's pause flag is set (the crash half of a crash-recover
/// fault), the loop keeps running but behaves like a dead node: incoming
/// events are discarded and timers whose deadline passes expire silently —
/// the exact semantics the simulator gives a node inside its downtime
/// window. On resume the protocol state is intact and the node reacts to
/// fresh traffic again.
///
/// A **kill** flag is the harsher fault: the loop drops the protocol value
/// itself — every in-memory structure is destroyed and its durable store
/// (if any) is closed by the drop — and idles like a dead node. The thread
/// and its transport stay up (the mesh is static; what "kill -9" destroys
/// is the protocol's process state, which is exactly what `P` holds). A
/// subsequent restart request rebuilds the node **solely from disk**
/// through the cluster's rebuild hook and re-enters it into the mesh.
///
/// The `Outbox` and the due-timer scratch are allocated once and reused for
/// every event, so the steady-state loop itself allocates nothing.
pub(crate) fn run_node<P, E>(
    node: P,
    me: NodeId,
    rx: Receiver<NodeEvent<P::Msg>>,
    egress: &mut E,
    log: Arc<DeliveryLog>,
    flags: NodeFlags,
    rebuild: Option<Rebuild<P>>,
) where
    P: Protocol,
    E: Egress<P::Msg>,
{
    let i = me.as_usize();
    let mut timers: HashMap<TimerId, Instant> = HashMap::new();
    let mut out = Outbox::new();
    let mut due: Vec<TimerId> = Vec::new();
    let mut alive: Option<P> = Some(node);
    if flags.killed[i].load(Ordering::SeqCst) {
        // Spawned dormant (a late-join entry pre-set the kill flag before
        // any thread started): drop the state machine without ever starting
        // it — closing its durable store, if any — and idle until a restart
        // request rebuilds the node mid-run.
        alive = None;
    } else {
        alive
            .as_mut()
            .expect("node starts alive")
            .on_start(&mut out);
        apply(me, &mut out, egress, &mut timers, &log);
    }

    loop {
        // A crash flag beats everything in the queue: a crashed node must not
        // drain its backlog before going silent.
        if flags.crashed[i].load(Ordering::SeqCst) {
            flags.statuses[i].store(2, Ordering::Release);
            return;
        }
        if flags.killed[i].load(Ordering::SeqCst) {
            if alive.is_some() {
                // Drop the whole state machine; the drop closes the durable
                // store, flushing its writer. (A *graceful* close — torn
                // tails come from the disk-fault injectors, not from Drop.)
                alive = None;
                timers.clear();
                // Clear the delivery log from this thread, after the final
                // event of the old incarnation: the restarted node re-emits
                // its recovered prefix, so the post-restart log reads as the
                // complete ledger from round 0.
                log.clear(me);
            }
            if flags.restarts[i].swap(false, Ordering::SeqCst) {
                if let Some(rebuild) = &rebuild {
                    let mut node = rebuild(me);
                    flags.killed[i].store(false, Ordering::SeqCst);
                    node.on_start(&mut out);
                    apply(me, &mut out, egress, &mut timers, &log);
                    alive = Some(node);
                }
            }
        }
        let now = Instant::now();
        let down = alive.is_none() || flags.paused[i].load(Ordering::SeqCst);
        // Mirror availability for the ingress layer: 3 state dropped (the
        // kill acknowledgement), 2 down, 1 syncing, 0 accepting (the
        // `crate::NodeStatus` encoding). Written only by this thread, so a
        // plain store per iteration suffices.
        let status = if alive.is_none() {
            STATUS_KILLED
        } else if down {
            2
        } else if alive.as_ref().is_some_and(|n| n.is_syncing()) {
            1
        } else {
            0
        };
        flags.statuses[i].store(status, Ordering::Release);
        if down {
            // Down: timers that come due expire into the void.
            timers.retain(|_, deadline| *deadline > now);
        } else {
            // Fire any due timers.
            due.clear();
            due.extend(
                timers
                    .iter()
                    .filter(|(_, deadline)| **deadline <= now)
                    .map(|(id, _)| *id),
            );
            for id in due.drain(..) {
                timers.remove(&id);
                let node = alive.as_mut().expect("not down implies alive");
                node.on_timer(id, &mut out);
                apply(me, &mut out, egress, &mut timers, &log);
            }
        }
        // Wait for the next event or the next timer deadline.
        let next_deadline = timers.values().min().copied();
        let timeout = next_deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(10));
        match rx.recv_timeout(timeout.max(Duration::from_micros(100))) {
            Ok(event) => {
                // Re-check after every dequeue: a crash that lands while the
                // thread is parked must beat the event it woke up for.
                if flags.crashed[i].load(Ordering::SeqCst) {
                    return;
                }
                if alive.is_none()
                    || flags.paused[i].load(Ordering::SeqCst)
                    || flags.killed[i].load(Ordering::SeqCst)
                {
                    // Down: the event is lost, like a message addressed to a
                    // crashed node. Shutdown still wins.
                    if matches!(event, NodeEvent::Shutdown) {
                        return;
                    }
                    continue;
                }
                let node = alive.as_mut().expect("checked above");
                match event {
                    NodeEvent::Message { from, msg } => {
                        node.on_message(from, msg, &mut out);
                        apply(me, &mut out, egress, &mut timers, &log);
                    }
                    NodeEvent::Batch(msgs) => {
                        for (k, (from, msg)) in msgs.into_iter().enumerate() {
                            // The flags are re-checked between items as
                            // between events: a crash stops the thread at
                            // once, a pause or a kill loses the rest of the
                            // batch.
                            if k > 0 {
                                if flags.crashed[i].load(Ordering::SeqCst) {
                                    return;
                                }
                                if flags.paused[i].load(Ordering::SeqCst)
                                    || flags.killed[i].load(Ordering::SeqCst)
                                {
                                    break;
                                }
                            }
                            node.on_message(from, msg, &mut out);
                            apply(me, &mut out, egress, &mut timers, &log);
                        }
                    }
                    NodeEvent::Transaction(tx) => {
                        node.on_transaction(tx, &mut out);
                        apply(me, &mut out, egress, &mut timers, &log);
                    }
                    NodeEvent::Wake => {}
                    NodeEvent::Shutdown => return,
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn apply<M, E: Egress<M>>(
    me: NodeId,
    out: &mut Outbox<M>,
    egress: &mut E,
    timers: &mut HashMap<TimerId, Instant>,
    log: &Arc<DeliveryLog>,
) {
    for action in out.drain() {
        match action {
            Action::Send { to, msg } => egress.send(to, msg),
            Action::Broadcast { msg } => egress.broadcast(msg),
            Action::SetTimer { id, delay } => {
                timers.insert(id, Instant::now() + delay);
            }
            Action::CancelTimer { id } => {
                timers.remove(&id);
            }
            Action::Deliver(d) => log.record(me, d),
            // Real time: the CPU cost is paid by actually executing the
            // crypto; observations are only collected by the simulator.
            Action::Cpu(_) | Action::Observe(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Sender};
    use std::thread::JoinHandle;

    fn batch(values: &[u64]) -> NodeEvent<u64> {
        NodeEvent::Batch(values.iter().map(|v| (NodeId(1), *v)).collect())
    }

    struct NoEgress;

    impl Egress<u64> for NoEgress {
        fn send(&mut self, _to: NodeId, _msg: u64) {}
        fn broadcast(&mut self, _msg: u64) {}
    }

    /// Records every message it handles; the first one raises `trip` (one of
    /// the node's own flags), if set.
    struct Tripwire {
        seen: Arc<Mutex<Vec<u64>>>,
        trip: Option<Arc<Vec<AtomicBool>>>,
    }

    impl Protocol for Tripwire {
        type Msg = u64;
        fn node_id(&self) -> NodeId {
            NodeId(0)
        }
        fn on_start(&mut self, _out: &mut Outbox<u64>) {}
        fn on_message(&mut self, _from: NodeId, msg: u64, _out: &mut Outbox<u64>) {
            self.seen.lock().unwrap().push(msg);
            if let Some(flag) = self.trip.take() {
                flag[0].store(true, Ordering::SeqCst);
            }
        }
        fn on_timer(&mut self, _timer: TimerId, _out: &mut Outbox<u64>) {}
    }

    struct Harness {
        tx: Sender<NodeEvent<u64>>,
        flags: NodeFlags,
        seen: Arc<Mutex<Vec<u64>>>,
        thread: JoinHandle<()>,
    }

    impl Harness {
        /// Runs node 0 as a `Tripwire` raising the flag `bank` picks; its
        /// rebuild hook makes a `Tripwire` that raises nothing.
        fn start(bank: fn(&NodeFlags) -> &Arc<Vec<AtomicBool>>) -> Self {
            let (tx, rx) = channel();
            let flags = NodeFlags::new(1);
            let seen = Arc::new(Mutex::new(Vec::new()));
            let node = Tripwire {
                seen: seen.clone(),
                trip: Some(bank(&flags).clone()),
            };
            let rebuilt = seen.clone();
            let rebuild: Rebuild<Tripwire> = Arc::new(move |_| Tripwire {
                seen: rebuilt.clone(),
                trip: None,
            });
            let (log, node_flags) = (Arc::new(DeliveryLog::new(1)), flags.clone());
            let thread = std::thread::spawn(move || {
                run_node(
                    node,
                    NodeId(0),
                    rx,
                    &mut NoEgress,
                    log,
                    node_flags,
                    Some(rebuild),
                );
            });
            Harness {
                tx,
                flags,
                seen,
                thread,
            }
        }

        fn seen(&self) -> Vec<u64> {
            self.seen.lock().unwrap().clone()
        }

        /// Waits until the loop mirrors `status` — it does so only between
        /// events, so the batch that raised a flag has been left by then.
        fn wait_status(&self, status: u8) {
            while self.flags.statuses[0].load(Ordering::Acquire) != status {
                std::thread::yield_now();
            }
        }

        /// Sends `values` as one batch, shuts down and joins; the messages
        /// the node handled over its whole life.
        fn finish(self, values: &[u64]) -> Vec<u64> {
            self.tx.send(batch(values)).unwrap();
            self.tx.send(NodeEvent::Shutdown).unwrap();
            self.thread.join().unwrap();
            let seen = self.seen.lock().unwrap().clone();
            seen
        }
    }

    #[test]
    fn a_crash_raised_inside_a_batch_stops_the_thread_at_once() {
        let node = Harness::start(|flags| &flags.crashed);
        node.tx.send(batch(&[1, 2, 3])).unwrap();
        node.thread.join().unwrap();
        assert_eq!(*node.seen.lock().unwrap(), [1]);
    }

    #[test]
    fn a_pause_raised_inside_a_batch_discards_the_rest_of_it() {
        let node = Harness::start(|flags| &flags.paused);
        node.tx.send(batch(&[1, 2, 3])).unwrap();
        node.wait_status(2);
        assert_eq!(node.seen(), [1]);
        node.flags.paused[0].store(false, Ordering::SeqCst);
        assert_eq!(node.finish(&[4]), [1, 4]);
    }

    #[test]
    fn a_kill_raised_inside_a_batch_discards_the_rest_and_the_node_restarts() {
        let node = Harness::start(|flags| &flags.killed);
        node.tx.send(batch(&[1, 2, 3])).unwrap();
        node.wait_status(STATUS_KILLED);
        assert_eq!(node.seen(), [1]);
        // The restart is honoured at the top of the loop, so the `Wake` the
        // loop discards guarantees the rebuilt node handles the next batch.
        node.flags.restarts[0].store(true, Ordering::SeqCst);
        node.tx.send(NodeEvent::Wake).unwrap();
        assert_eq!(node.finish(&[4]), [1, 4]);
    }
}
