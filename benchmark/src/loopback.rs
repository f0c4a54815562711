//! The traced run: a workload's nodes driven on **one thread** from a FIFO
//! queue with virtual timers, every call into a layer wrapped in a span.
//!
//! Every message goes encode → `write_frame` → `read_frame_into` → decode →
//! `on_message`, exactly the bytes the socket runtime would move, without
//! the sockets; each block node 0 delivers goes through `merkle_root`, and on
//! a `pipeline` workload through `append_block`, `execute_block` and the
//! state root. Time is virtual: handling a message costs a fixed
//! [`EVENT_COST`], and when the queue runs dry the clock jumps to the next
//! armed timer — so the 250 ms WRB timers fire when a crashed proposer
//! leaves the survivors waiting and never in a healthy cluster. With one
//! thread, one queue and no real clock the counts (messages, bytes,
//! signatures, timer fires) are a pure function of the workload and the
//! seed.

use crate::spans::{Span, Tracer};
use crate::workload::Workload;
use fireledger::{FloMsg, WorkerMsg};
use fireledger_crypto::{
    hash_header, merkle_root, CostModel, CryptoPool, CryptoProvider, SharedCrypto, SimKeyStore,
};
use fireledger_exec::{execute_block, StateMachine};
use fireledger_net::frame::{read_frame_into, write_frame};
use fireledger_runtime::FloCluster;
use fireledger_store::{FsyncPolicy, NodeStore};
use fireledger_types::{
    Action, Bytes, Delivery, Hash, NodeId, Observation, Outbox, Protocol, Receipt, Signature,
    TimerId, Transaction, WireCodec,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual time one message costs its recipient — the order of the measured
/// cost (3 µs per event at n=16, 20 µs at n=4). Without it a worker waiting
/// on a timer would wait forever while its sibling worker keeps the queue
/// busy.
const EVENT_COST: Duration = Duration::from_micros(10);

/// Events the loop may handle per target block before it is declared
/// livelocked (a healthy n=16 round is ~260 events).
const MAX_EVENTS_PER_BLOCK: u64 = 100_000;

/// The injected crypto provider: the cluster's `SimKeyStore` with a span
/// and a count around every signature and verification.
struct TracedCrypto {
    inner: SimKeyStore,
    tracer: Tracer,
    signs: AtomicU64,
    verifies: AtomicU64,
}

impl CryptoProvider for TracedCrypto {
    fn sign(&self, node: NodeId, msg: &[u8]) -> Signature {
        self.signs.fetch_add(1, Ordering::Relaxed);
        self.tracer
            .span("crypto.sign", || self.inner.sign(node, msg))
    }
    fn verify(&self, node: NodeId, msg: &[u8], sig: &Signature) -> bool {
        self.verifies.fetch_add(1, Ordering::Relaxed);
        self.tracer
            .span("crypto.verify", || self.inner.verify(node, msg, sig))
    }
    fn cluster_size(&self) -> usize {
        self.inner.cluster_size()
    }
    fn cost_model(&self) -> CostModel {
        self.inner.cost_model()
    }
    fn scheme(&self) -> &'static str {
        self.inner.scheme()
    }
}

/// What a message is, for the per-kind counts and `on_message` spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// A block body (`BlockData`, `PullBlockReply`).
    Body,
    /// A WRB/OBBC vote, with or without a piggybacked header.
    Vote,
    Other,
}

impl Kind {
    fn of(msg: &FloMsg) -> Kind {
        match msg.inner {
            WorkerMsg::BlockData { .. } | WorkerMsg::PullBlockReply { .. } => Kind::Body,
            WorkerMsg::Vote { .. } => Kind::Vote,
            _ => Kind::Other,
        }
    }

    fn on_message_span(self) -> &'static str {
        match self {
            Kind::Body => "core.on_message.body",
            Kind::Vote => "core.on_message.vote",
            Kind::Other => "core.on_message.other",
        }
    }
}

/// A message in flight: framed bytes between nodes, the value itself for a
/// self-send (which the socket runtime loops back without a socket too).
enum Wire {
    Frame(Arc<Vec<u8>>),
    Local(Box<FloMsg>),
}

struct InFlight {
    from: NodeId,
    to: usize,
    kind: Kind,
    wire: Wire,
}

/// The exact counts of one loop run. They must repeat across runs of one
/// workload and seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Blocks (transactions) node 0 delivered.
    pub blocks: u64,
    pub txs: u64,
    /// Frames handed to a live recipient, by kind.
    pub msgs_body: u64,
    pub msgs_vote: u64,
    pub msgs_other: u64,
    /// Bytes of those frames, headers included.
    pub wire_bytes: u64,
    pub signs: u64,
    pub verifies: u64,
    pub timer_fires: u64,
    pub fallbacks: u64,
    /// Record payload bytes node 0 appended to its store.
    pub store_bytes: u64,
    /// Transactions node 0 executed, and those that applied.
    pub executed: u64,
    pub applied: u64,
}

/// One run of the loop.
pub struct LoopRun {
    pub counts: Counts,
    /// Wall time of the whole loop.
    pub wall: Duration,
    /// The part of `wall` spent applying node 0's delivered blocks (merkle
    /// root, store append, execution, state root) — timed with one clock
    /// pair per block whether or not spans are on.
    pub app: Duration,
    /// Empty when spans were off.
    pub spans: Vec<Span>,
}

/// Node 0's application of a delivered block on a `pipeline` workload.
struct Pipeline {
    store: NodeStore,
    /// One state machine per worker stream, as in the real engine.
    states: Vec<StateMachine>,
    pool: CryptoPool,
    tx_scratch: Vec<Transaction>,
    hash_scratch: Vec<Hash>,
}

struct Loop {
    nodes: Vec<FloCluster>,
    /// A crashed node: its events and timers are dropped.
    down: Vec<bool>,
    queue: VecDeque<InFlight>,
    /// Armed timers in firing order, and the deadline of each for re-arming.
    timer_order: BTreeSet<(Duration, usize, TimerId)>,
    timer_deadline: BTreeMap<(usize, TimerId), Duration>,
    now: Duration,
    tracer: Tracer,
    counts: Counts,
    app: Duration,
    /// Header hash of every delivery, per node: the ledgers the gate compares.
    ledgers: Vec<Vec<Hash>>,
    pipeline: Option<Pipeline>,
    /// Reused buffers of the codec and framing path.
    payload: Vec<u8>,
    read_buf: Vec<u8>,
}

impl Loop {
    fn frame(&mut self, msg: &FloMsg) -> Arc<Vec<u8>> {
        let payload = &mut self.payload;
        self.tracer
            .span("types.encode", || msg.encode_into(payload));
        let mut frame = Vec::new();
        self.tracer.span("net.frame_write", || {
            write_frame(&mut frame, payload).expect("writing to a Vec cannot fail")
        });
        Arc::new(frame)
    }

    /// Applies the actions `node` queued while handling one event.
    fn apply(&mut self, node: usize, out: &mut Outbox<FloMsg>) -> Result<(), String> {
        for action in out.drain() {
            match action {
                Action::Send { to, msg } => {
                    let kind = Kind::of(&msg);
                    let wire = if to.as_usize() == node {
                        Wire::Local(Box::new(msg))
                    } else {
                        Wire::Frame(self.frame(&msg))
                    };
                    self.queue.push_back(InFlight {
                        from: NodeId(node as u32),
                        to: to.as_usize(),
                        kind,
                        wire,
                    });
                }
                Action::Broadcast { msg } => {
                    // Encoded and framed once, shared by every recipient —
                    // what the socket runtime's egress does.
                    let kind = Kind::of(&msg);
                    let frame = self.frame(&msg);
                    for to in (0..self.nodes.len()).filter(|to| *to != node) {
                        self.queue.push_back(InFlight {
                            from: NodeId(node as u32),
                            to,
                            kind,
                            wire: Wire::Frame(frame.clone()),
                        });
                    }
                }
                Action::SetTimer { id, delay } => {
                    self.cancel_timer(node, id);
                    let deadline = self.now + delay;
                    self.timer_order.insert((deadline, node, id));
                    self.timer_deadline.insert((node, id), deadline);
                }
                Action::CancelTimer { id } => self.cancel_timer(node, id),
                Action::Deliver(delivery) => self.on_delivery(node, delivery)?,
                Action::Observe(Observation::FallbackInvoked { .. }) => self.counts.fallbacks += 1,
                Action::Observe(_) | Action::Cpu(_) => {}
            }
        }
        Ok(())
    }

    fn cancel_timer(&mut self, node: usize, id: TimerId) {
        if let Some(deadline) = self.timer_deadline.remove(&(node, id)) {
            self.timer_order.remove(&(deadline, node, id));
        }
    }

    fn on_delivery(&mut self, node: usize, d: Delivery) -> Result<(), String> {
        self.ledgers[node].push(hash_header(&d.block.header));
        if node != 0 {
            return Ok(());
        }
        let started = Instant::now();
        let tracer = &self.tracer;
        let root = tracer.span("crypto.merkle", || merkle_root(&d.block.txs));
        if root != d.block.header.payload_hash {
            return Err(format!(
                "node 0 delivered round {} of worker {} whose body does not hash to its header",
                d.round, d.worker
            ));
        }
        if let Some(p) = &mut self.pipeline {
            // The stored-block layout (worker, header, body) minus the
            // proposer signature, which a `Delivery` does not carry.
            let bytes = tracer.span("store.append", || {
                let mut record = Vec::new();
                d.worker.encode_to(&mut record);
                d.block.encode_to(&mut record);
                let len = record.len() as u64;
                p.store.append_block(record).map(|()| len)
            });
            self.counts.store_bytes += bytes.map_err(|e| format!("node 0 store append: {e}"))?;
            let state = &mut p.states[d.worker.0 as usize];
            let receipts = tracer.span("exec.apply", || execute_block(state, &d.block.txs, 1));
            self.counts.executed += receipts.len() as u64;
            self.counts.applied +=
                receipts.iter().filter(|r| **r == Receipt::Applied).count() as u64;
            std::hint::black_box(tracer.span("exec.root", || {
                state.root_with_pool(&p.pool, &mut p.tx_scratch, &mut p.hash_scratch)
            }));
        }
        self.counts.blocks += 1;
        self.counts.txs += d.block.len() as u64;
        self.app += started.elapsed();
        Ok(())
    }

    /// Handles the next event — a due timer first, else the oldest message,
    /// else the next timer; `Ok(false)` when nothing is left to do.
    fn step(&mut self, out: &mut Outbox<FloMsg>) -> Result<bool, String> {
        let timer_due = self
            .timer_order
            .first()
            .is_some_and(|(deadline, ..)| *deadline <= self.now);
        let next = if timer_due {
            None
        } else {
            self.queue.pop_front()
        };
        if let Some(event) = next {
            self.now += EVENT_COST;
            let to = event.to;
            if self.down[to] {
                return Ok(true);
            }
            let msg = match event.wire {
                Wire::Local(msg) => *msg,
                Wire::Frame(frame) => {
                    *match event.kind {
                        Kind::Body => &mut self.counts.msgs_body,
                        Kind::Vote => &mut self.counts.msgs_vote,
                        Kind::Other => &mut self.counts.msgs_other,
                    } += 1;
                    self.counts.wire_bytes += frame.len() as u64;
                    let read_buf = &mut self.read_buf;
                    let len = self
                        .tracer
                        .span("net.frame_read", || {
                            read_frame_into(&mut frame.as_slice(), read_buf)
                        })
                        .map_err(|e| format!("frame to node {to}: {e}"))?
                        .ok_or_else(|| format!("empty frame to node {to}"))?;
                    // One shared backing per frame, decoded zero-copy: the
                    // reactor's receive path.
                    self.tracer
                        .span("types.decode", || {
                            FloMsg::decode_shared(&Bytes::copy_from_slice(&read_buf[..len]))
                        })
                        .map_err(|e| format!("undecodable frame to node {to}: {e}"))?
                }
            };
            let node = &mut self.nodes[to];
            self.tracer.span(event.kind.on_message_span(), || {
                node.on_message(event.from, msg, out)
            });
            self.apply(to, out)?;
            return Ok(true);
        }
        // A timer is due, or the queue ran dry and the clock jumps to one.
        let Some((deadline, node, id)) = self.timer_order.pop_first() else {
            return Ok(false);
        };
        self.timer_deadline.remove(&(node, id));
        self.now = self.now.max(deadline);
        self.counts.timer_fires += 1;
        let protocol = &mut self.nodes[node];
        self.tracer
            .span("core.on_timer", || protocol.on_timer(id, out));
        self.apply(node, out)?;
        Ok(true)
    }
}

/// Runs `workload`'s cluster in the loop until node 0 has delivered
/// `blocks` blocks. `store_dir` hosts node 0's store on `pipeline`
/// workloads and is removed afterwards.
pub fn run(
    workload: &Workload,
    seed: u64,
    blocks: u64,
    spans_on: bool,
    store_dir: &Path,
) -> Result<LoopRun, String> {
    let n = workload.n;
    let tracer = Tracer::new(spans_on);
    let crypto = Arc::new(TracedCrypto {
        inner: SimKeyStore::generate(n, seed),
        tracer: tracer.clone(),
        signs: AtomicU64::new(0),
        verifies: AtomicU64::new(0),
    });
    let shared: SharedCrypto = crypto.clone();
    let nodes = workload
        .loop_builder(seed, shared.clone())
        .build_inline()
        .map_err(|e| format!("build: {e}"))?;
    let pipeline = if workload.pipeline {
        let (store, _) = NodeStore::open(store_dir, FsyncPolicy::EveryN(64))
            .map_err(|e| format!("node 0 store open: {e}"))?;
        let genesis = workload.exec_config();
        Some(Pipeline {
            store,
            states: (0..workload.workers)
                .map(|_| {
                    StateMachine::with_genesis(genesis.genesis_accounts, genesis.genesis_balance)
                })
                .collect(),
            pool: CryptoPool::inline(shared),
            tx_scratch: Vec::new(),
            hash_scratch: Vec::new(),
        })
    } else {
        None
    };
    let mut lp = Loop {
        nodes,
        down: vec![false; n],
        queue: VecDeque::new(),
        timer_order: BTreeSet::new(),
        timer_deadline: BTreeMap::new(),
        now: Duration::ZERO,
        tracer: tracer.clone(),
        counts: Counts::default(),
        app: Duration::ZERO,
        ledgers: vec![Vec::new(); n],
        pipeline,
        payload: Vec::new(),
        read_buf: Vec::new(),
    };
    // The crash lands a third of the way in, so both the healthy rounds
    // before it and the timer-driven rounds after it are in the profile.
    let mut crash = workload.crash.map(|node| (node.as_usize(), blocks / 3));

    let started = Instant::now();
    let mut out = Outbox::new();
    for node in 0..n {
        let protocol = &mut lp.nodes[node];
        tracer.span("core.on_start", || protocol.on_start(&mut out));
        lp.apply(node, &mut out)?;
    }
    let mut events = 0u64;
    while lp.counts.blocks < blocks {
        if let Some((node, at)) = crash {
            if lp.counts.blocks >= at {
                lp.down[node] = true;
                let dead: Vec<_> = lp
                    .timer_deadline
                    .keys()
                    .filter(|(owner, _)| *owner == node)
                    .copied()
                    .collect();
                for (owner, id) in dead {
                    lp.cancel_timer(owner, id);
                }
                crash = None;
            }
        }
        if !lp.step(&mut out)? {
            return Err(format!(
                "loop stalled after {} blocks: no message in flight and no timer armed",
                lp.counts.blocks
            ));
        }
        events += 1;
        if events > blocks * MAX_EVENTS_PER_BLOCK {
            return Err(format!(
                "loop livelocked: {events} events for {} blocks",
                lp.counts.blocks
            ));
        }
    }
    if let Some(p) = &lp.pipeline {
        let store = &p.store;
        let flush = Instant::now();
        tracer.span("store.flush", || store.flush());
        lp.app += flush.elapsed();
    }
    let wall = started.elapsed();

    // The gate: node 0's ledger equals every other live node's.
    for node in (1..n).filter(|i| !lp.down[*i]) {
        let (a, b) = (&lp.ledgers[0], &lp.ledgers[node]);
        if b.is_empty() {
            return Err(format!("node {node} delivered nothing in the loop"));
        }
        if let Some(i) = a.iter().zip(b).position(|(x, y)| x != y) {
            return Err(format!(
                "node {node} diverges from node 0 at block {i} in the loop"
            ));
        }
    }
    lp.counts.signs = crypto.signs.load(Ordering::Relaxed);
    lp.counts.verifies = crypto.verifies.load(Ordering::Relaxed);
    let (counts, app) = (lp.counts, lp.app);
    drop(lp);
    if workload.pipeline {
        let _ = std::fs::remove_dir_all(store_dir);
    }
    Ok(LoopRun {
        counts,
        wall,
        app,
        spans: tracer.take(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn scratch(name: &str) -> std::path::PathBuf {
        crate::data_dir().join(format!("test-{name}-{}", std::process::id()))
    }

    #[test]
    fn healthy_loop_is_exact_and_never_fires_a_timer() {
        let w = workload::by_name("order-n4").unwrap();
        let dir = scratch("order");
        let a = run(&w, 11, 60, true, &dir).unwrap();
        let b = run(&w, 11, 60, false, &dir).unwrap();
        assert_eq!(a.counts, b.counts, "counts must not depend on spans");
        assert_eq!(a.counts.blocks, 60);
        assert_eq!(a.counts.txs, 60 * 100);
        assert_eq!(a.counts.timer_fires, 0);
        assert_eq!(a.counts.fallbacks, 0);
        assert!(a.counts.msgs_body > 0 && a.counts.msgs_vote > 0);
        assert!(a.counts.signs > 0 && a.counts.verifies > 0);
        assert!(!a.spans.is_empty() && b.spans.is_empty());
    }

    #[test]
    fn crashed_proposer_drives_timers_and_the_survivors_agree() {
        let w = workload::by_name("crash-n4").unwrap();
        let run = run(&w, 5, 90, false, &scratch("crash")).unwrap();
        // One event may release several blocks, so the loop can overshoot.
        assert!(run.counts.blocks >= 90);
        assert!(
            run.counts.timer_fires > 0,
            "a silent proposer must time out"
        );
    }

    #[test]
    fn pipeline_loop_stores_and_executes_node_zero_blocks() {
        let w = workload::by_name("pipeline-n4").unwrap();
        let dir = scratch("pipeline");
        let run = run(&w, 3, 30, true, &dir).unwrap();
        assert_eq!(run.counts.executed, run.counts.txs);
        assert!(run.counts.applied > 0 && run.counts.applied <= run.counts.executed);
        assert!(run.counts.store_bytes > 0);
        assert!(!dir.exists(), "the store directory is removed afterwards");
        assert!(run.spans.iter().any(|s| s.name == "exec.root"));
    }
}
