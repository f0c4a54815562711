//! The real-time fault-injection shim of the socket transport.
//!
//! A [`LinkShim`] is the real-time counterpart of the simulator's
//! `PlanAdversary`: it wraps a runtime's egress path and consults the shared
//! [`LinkFaultEngine`] for every outbound message, so the *same*
//! [`FaultPlan`](fireledger_types::FaultPlan) value produces the same
//! drop/delay/reorder/duplicate semantics on real sockets as it does on
//! modelled links.
//!
//! It sits between the wire codec and the per-connection reactor outboxes
//! (see `docs/ARCHITECTURE.md`, "Fault injection"): messages are
//! intercepted as fully framed byte buffers, so a delayed or duplicated
//! frame exercises the real socket path end to end.
//!
//! Delayed and reordered messages are parked on a [`DelayLine`] — one extra
//! thread per faulty cluster that owns a deadline heap and re-injects each
//! parked item into its destination queue when its deadline passes. Because
//! the delay line bypasses the per-peer FIFO queue, a parked message is
//! naturally overtaken by later traffic, which is exactly the reordering
//! semantics the simulator implements by exempting such messages from its
//! per-link FIFO clamp.

use fireledger_types::{FaultPlan, LinkDecision, LinkFaultEngine, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-sender fault interceptor: the fault engine plus the cluster's start
/// instant (the time base the plan's windows are measured against).
///
/// Each node's egress owns its own `LinkShim`. The underlying per-link RNG
/// streams are keyed by `(from, to)` and every shim only ever asks about
/// links leaving its own node, so per-node engines are disjoint views of the
/// same deterministic plan — no cross-thread locking is needed.
pub(crate) struct LinkShim {
    engine: LinkFaultEngine,
    start: Instant,
}

impl LinkShim {
    /// Builds the shim for one sending node.
    pub fn new(plan: FaultPlan, start: Instant) -> Self {
        LinkShim {
            engine: LinkFaultEngine::new(plan),
            start,
        }
    }

    /// Decides the fate of one message leaving `from` towards `to` now.
    pub fn decide(&mut self, from: NodeId, to: NodeId) -> LinkDecision {
        self.engine.decide(from, to, self.start.elapsed())
    }
}

/// One parked item: delivered to `targets[to]` once `at` passes. Ordered by
/// deadline (then arrival sequence) so the heap pops due items first.
struct Parked<T> {
    at: Instant,
    seq: u64,
    to: usize,
    item: T,
}

impl<T> PartialEq for Parked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Parked<T> {}
impl<T> PartialOrd for Parked<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Parked<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The deadline thread that re-injects delayed/duplicated items: a shared
/// heap of `(deadline, destination, item)` triples, drained in deadline
/// order. Items whose destination sender is gone (a torn-down peer) are
/// silently discarded — the same benign-crash link semantics the live path
/// has.
pub(crate) struct DelayLine<T> {
    tx: Sender<(Instant, usize, T)>,
    handle: Option<JoinHandle<()>>,
}

impl<T: Send + 'static> DelayLine<T> {
    /// Spawns the deadline thread over a fixed target table. `None` entries
    /// are holes (e.g. a node's slot for itself in a writer table).
    pub fn new(targets: Vec<Option<Sender<T>>>) -> Self {
        let (tx, rx) = channel::<(Instant, usize, T)>();
        let handle = std::thread::spawn(move || run_delay_line(rx, targets));
        DelayLine {
            tx,
            handle: Some(handle),
        }
    }

    /// A handle egresses use to park items (cheaply cloneable).
    pub fn sender(&self) -> Sender<(Instant, usize, T)> {
        self.tx.clone()
    }
}

impl<T> DelayLine<T> {
    /// Stops the thread. Items still parked are discarded — the run is
    /// over. Call after the node threads (and with them every egress clone
    /// of the sender) have been joined.
    pub fn stop(mut self) {
        drop(self.tx);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn run_delay_line<T: Send>(rx: Receiver<(Instant, usize, T)>, targets: Vec<Option<Sender<T>>>) {
    let mut heap: BinaryHeap<Reverse<Parked<T>>> = BinaryHeap::new();
    let mut seq = 0u64;
    loop {
        // Release everything that is due.
        let now = Instant::now();
        while heap.peek().is_some_and(|Reverse(p)| p.at <= now) {
            let Reverse(p) = heap.pop().expect("peeked");
            if let Some(Some(target)) = targets.get(p.to) {
                let _ = target.send(p.item);
            }
        }
        // Sleep until the next deadline or the next parked item.
        let timeout = heap
            .peek()
            .map(|Reverse(p)| p.at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(timeout.max(Duration::from_micros(100))) {
            Ok((at, to, item)) => {
                seq += 1;
                heap.push(Reverse(Parked { at, seq, to, item }));
            }
            Err(RecvTimeoutError::Timeout) => {}
            // Every sender is gone: the cluster is shutting down; pending
            // items die with the run.
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_line_releases_in_deadline_order_not_submit_order() {
        let (tx, rx) = channel::<u32>();
        let line = DelayLine::new(vec![Some(tx)]);
        let sender = line.sender();
        let now = Instant::now();
        sender
            .send((now + Duration::from_millis(40), 0, 1))
            .unwrap();
        sender.send((now + Duration::from_millis(5), 0, 2)).unwrap();
        sender
            .send((now + Duration::from_millis(20), 0, 3))
            .unwrap();
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(rx.recv_timeout(Duration::from_secs(2)).unwrap());
        }
        assert_eq!(got, vec![2, 3, 1]);
        drop(sender);
        line.stop();
    }

    #[test]
    fn delay_line_discards_items_for_missing_targets() {
        let (tx, rx) = channel::<u32>();
        let line = DelayLine::new(vec![None, Some(tx)]);
        let sender = line.sender();
        let now = Instant::now();
        sender.send((now, 0, 7)).unwrap(); // hole: discarded
        sender.send((now, 5, 8)).unwrap(); // out of range: discarded
        sender.send((now + Duration::from_millis(5), 1, 9)).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap(), 9);
        assert!(rx.try_recv().is_err());
        drop(sender);
        line.stop();
    }

    #[test]
    fn link_shim_applies_the_plan_relative_to_its_start() {
        use fireledger_types::{FaultWindow, LinkSelector};
        // A drop-everything fault active from the very start.
        let plan = fireledger_types::FaultPlan::named("all-drop").drop(
            LinkSelector::All,
            FaultWindow::ALWAYS,
            1.0,
        );
        let mut shim = LinkShim::new(plan, Instant::now());
        assert_eq!(shim.decide(NodeId(0), NodeId(1)), LinkDecision::Drop);
        // A fault windowed far in the future decides Deliver now.
        let later = fireledger_types::FaultPlan::named("later").drop(
            LinkSelector::All,
            FaultWindow::starting_at(Duration::from_secs(3600)),
            1.0,
        );
        let mut shim = LinkShim::new(later, Instant::now());
        assert_eq!(shim.decide(NodeId(0), NodeId(1)), LinkDecision::Deliver);
    }
}
