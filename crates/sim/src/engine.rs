//! The discrete-event simulation engine.
//!
//! [`Simulation`] owns one [`Protocol`] instance per node and an event queue
//! ordered by virtual time. Handling an event produces actions; actions turn
//! into new events:
//!
//! * `Send`/`Broadcast` — the message is charged against the sender's NIC
//!   (egress bandwidth), a per-link latency is sampled, FIFO per-link order is
//!   enforced, and the adversary hook may drop/replace/delay it;
//! * `SetTimer`/`CancelTimer` — generation-counted timers;
//! * `Cpu` — the charge is translated into time with the
//!   [`fireledger_crypto::CostModel`] and scheduled on the node's
//!   earliest-free core; subsequent actions of the same handler (including the
//!   messages it sends) start only after the CPU work completes, which is how
//!   signing cost shows up in the end-to-end latency of a round;
//! * `Deliver`/`Observe` — recorded for tests and metrics.
//!
//! With a fixed seed the whole execution is deterministic.

use crate::adversary::{Adversary, Fate, PassThrough};
use crate::latency::LatencyModel;
use crate::metrics::{Metrics, RunSummary};
use crate::time::SimTime;
use fireledger_crypto::CostModel;
use fireledger_types::{
    framed_len, Action, Delivery, DetRng, NodeId, Outbox, Protocol, TimerId, Transaction, WireCodec,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Duration;

/// Static configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Link latency model.
    pub latency: LatencyModel,
    /// Per-node egress bandwidth in bytes per second (`None` = unlimited).
    pub bandwidth_bytes_per_sec: Option<u64>,
    /// CPU cost model used to charge `CpuCharge` actions.
    pub cost: CostModel,
    /// Whether CPU charges are applied at all (disable to isolate network
    /// effects in ablations).
    pub charge_cpu: bool,
    /// RNG seed; equal seeds give bit-identical executions.
    pub seed: u64,
}

impl SimConfig {
    /// A single data-center cluster: ≈250 µs links, 10 Gbps NICs, m5.xlarge
    /// CPU model (the paper's default deployment, §7).
    pub fn single_dc() -> Self {
        SimConfig {
            latency: LatencyModel::single_dc(),
            bandwidth_bytes_per_sec: Some(1_250_000_000), // 10 Gbps
            cost: CostModel::m5_xlarge(),
            charge_cpu: true,
            seed: 1,
        }
    }

    /// The ten-region geo-distributed deployment of §7.5.
    pub fn geo_distributed() -> Self {
        SimConfig {
            latency: LatencyModel::geo_distributed(),
            bandwidth_bytes_per_sec: Some(250_000_000), // ≈2 Gbps effective WAN egress
            cost: CostModel::m5_xlarge(),
            charge_cpu: true,
            seed: 1,
        }
    }

    /// An idealized network for unit tests: 1 ms constant latency, no
    /// bandwidth limit, free CPU.
    pub fn ideal() -> Self {
        SimConfig {
            latency: LatencyModel::Constant(Duration::from_millis(1)),
            bandwidth_bytes_per_sec: None,
            cost: CostModel::free(),
            charge_cpu: false,
            seed: 1,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style latency override.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Builder-style cost-model override.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self.charge_cpu = true;
        self
    }

    /// Builder-style bandwidth override (bytes per second).
    pub fn with_bandwidth(mut self, bytes_per_sec: Option<u64>) -> Self {
        self.bandwidth_bytes_per_sec = bytes_per_sec;
        self
    }
}

#[derive(Debug)]
enum EventKind<M> {
    Message { from: NodeId, msg: M },
    Timer { id: TimerId, generation: u64 },
    Inject { tx: Transaction },
}

#[derive(Debug)]
struct Event<M> {
    time: SimTime,
    seq: u64,
    node: NodeId,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A deterministic discrete-event simulation over a set of protocol nodes.
pub struct Simulation<P: Protocol> {
    config: SimConfig,
    nodes: Vec<P>,
    queue: BinaryHeap<Reverse<Event<P::Msg>>>,
    seq: u64,
    now: SimTime,
    nic_free: Vec<SimTime>,
    cores: Vec<Vec<SimTime>>,
    timers: HashMap<(NodeId, TimerId), u64>,
    link_order: HashMap<(NodeId, NodeId), SimTime>,
    deliveries: Vec<Vec<Delivery>>,
    delivery_times: Vec<Vec<SimTime>>,
    metrics: Metrics,
    adversary: Box<dyn Adversary<P::Msg>>,
    rng: DetRng,
    started: bool,
    events_processed: u64,
}

impl<P> Simulation<P>
where
    P: Protocol,
    P::Msg: WireCodec,
{
    /// Creates a simulation over `nodes` with the no-fault adversary.
    pub fn new(config: SimConfig, nodes: Vec<P>) -> Self {
        Self::with_adversary(config, nodes, Box::new(PassThrough))
    }

    /// Creates a simulation with an explicit fault-injection hook.
    pub fn with_adversary(
        config: SimConfig,
        nodes: Vec<P>,
        adversary: Box<dyn Adversary<P::Msg>>,
    ) -> Self {
        let n = nodes.len();
        let cores = config.cost.cores.max(1);
        Simulation {
            rng: DetRng::seed_from_u64(config.seed),
            nodes,
            queue: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            nic_free: vec![SimTime::ZERO; n],
            cores: vec![vec![SimTime::ZERO; cores]; n],
            timers: HashMap::new(),
            link_order: HashMap::new(),
            deliveries: vec![Vec::new(); n],
            delivery_times: vec![Vec::new(); n],
            metrics: Metrics::new(n),
            adversary,
            config,
            started: false,
            events_processed: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the simulation has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Shared access to a node's protocol state (for assertions in tests).
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.as_usize()]
    }

    /// Mutable access to a node's protocol state.
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        &mut self.nodes[id.as_usize()]
    }

    /// Blocks delivered (definitively decided, in order) at `node`.
    pub fn deliveries(&self, node: NodeId) -> &[Delivery] {
        &self.deliveries[node.as_usize()]
    }

    /// Virtual timestamps of `node`'s deliveries, parallel to
    /// [`Simulation::deliveries`] — the raw series behind the per-node
    /// delivery-timeline metrics (stall/recovery detection) in run reports.
    pub fn delivery_times(&self, node: NodeId) -> &[SimTime] {
        &self.delivery_times[node.as_usize()]
    }

    /// The metrics collector.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics access (to set measurement windows).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Convenience: build the run summary over all nodes for the elapsed time.
    pub fn summary(&mut self) -> RunSummary {
        self.metrics.set_window_end(self.now);
        self.metrics.summary(None)
    }

    /// Convenience: build the run summary restricted to `nodes`.
    pub fn summary_for(&mut self, nodes: &[NodeId]) -> RunSummary {
        self.metrics.set_window_end(self.now);
        self.metrics.summary(Some(nodes))
    }

    /// Schedules a client transaction to arrive at `node` at absolute time
    /// `at`.
    pub fn inject_transaction_at(&mut self, node: NodeId, tx: Transaction, at: SimTime) {
        self.push_event(at, node, EventKind::Inject { tx });
    }

    /// Schedules a client transaction to arrive at `node` `delay` from now.
    pub fn inject_transaction(&mut self, node: NodeId, tx: Transaction, delay: Duration) {
        self.inject_transaction_at(node, tx, self.now + delay);
    }

    /// Calls `on_start` on every node (idempotent; called automatically by the
    /// run methods if needed).
    ///
    /// `on_start` runs even for a node the adversary reports as crashed at
    /// t = 0: its outputs are suppressed anyway (sends are intercepted and
    /// dropped, its timer events are skipped while it is down), but a node
    /// with a crash-*recover* window covering the start must come back with
    /// initialized state — the real-time runtimes behave the same way, as
    /// their node threads always run `on_start` before any pause or crash
    /// event lands.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let node_id = NodeId(i as u32);
            let mut out = Outbox::new();
            self.nodes[i].on_start(&mut out);
            self.apply_actions(node_id, self.now, out);
        }
    }

    /// Kill-restarts `node` at the current virtual time: the old protocol
    /// state machine is handed to `rebuild`, which must drop it (closing
    /// its durable store, if any) and return the restarted node — typically
    /// reconstructed from disk. The node's delivery log is cleared (a
    /// killed process's history is whatever its disk can prove), every
    /// pending timer of the node is invalidated through the generation
    /// counters, and the new state machine's `on_start` runs at `now`.
    ///
    /// Determinism is preserved: the restart is itself a deterministic
    /// function of the virtual time it runs at, and store I/O never feeds
    /// back into event timing.
    pub fn restart_node(&mut self, id: NodeId, rebuild: impl FnOnce(P) -> P) {
        let i = id.as_usize();
        // Invalidate the old node's pending timers: bump every generation
        // counter so in-flight timer events arrive stale and are skipped.
        for ((node, _), generation) in self.timers.iter_mut() {
            if *node == id {
                *generation += 1;
            }
        }
        self.deliveries[i].clear();
        self.delivery_times[i].clear();
        // Replace the state machine in place. `rebuild` receives the old
        // value by move so it can drop it *before* reopening the store
        // directory (the swap-remove / push / swap dance moves it out of
        // the vector without needing a placeholder value).
        let old = self.nodes.swap_remove(i);
        self.nodes.push(rebuild(old));
        let last = self.nodes.len() - 1;
        self.nodes.swap(i, last);
        let mut out = Outbox::new();
        self.nodes[i].on_start(&mut out);
        self.apply_actions(id, self.now, out);
    }

    fn push_event(&mut self, time: SimTime, node: NodeId, kind: EventKind<P::Msg>) {
        self.seq += 1;
        self.queue.push(Reverse(Event {
            time,
            seq: self.seq,
            node,
            kind,
        }));
    }

    fn schedule_cpu(&mut self, node: NodeId, ready: SimTime, work: Duration) -> SimTime {
        let cores = &mut self.cores[node.as_usize()];
        // Earliest-available core.
        let (idx, _) = cores
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .expect("at least one core");
        let start = cores[idx].max(ready);
        let end = start + work;
        cores[idx] = end;
        end
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: P::Msg, ready: SimTime) {
        if from == to {
            // Self-sends short-circuit the network.
            self.push_event(ready, to, EventKind::Message { from, msg });
            return;
        }
        match self.adversary.intercept(from, to, msg, ready) {
            Fate::Deliver(m) => self.transmit(from, to, m, ready, Duration::ZERO, true),
            Fate::DeliverDelayed(m, d) => self.transmit(from, to, m, ready, d, true),
            // Reordered messages skip the per-link FIFO clamp, so later
            // sends on the same link can overtake them.
            Fate::DeliverReordered(m, d) => self.transmit(from, to, m, ready, d, false),
            Fate::DeliverDuplicated(m, d) => {
                self.transmit(from, to, m.clone(), ready, Duration::ZERO, true);
                // The duplicate is a real second copy: it pays NIC bandwidth
                // and is counted in the send metrics like any message. It is
                // FIFO-exempt like a reordered message — on the real-time
                // runtimes the copy rides the delay line past the writer
                // queue, so it must not ratchet the link's FIFO clamp here
                // and lag every subsequent message behind it.
                self.transmit(from, to, m, ready, d, false);
            }
            Fate::Drop => {}
        }
    }

    /// Charges one wire copy — its framed size, the bytes the TCP runtime
    /// writes for it — against the sender's NIC, samples the link latency, applies `extra_delay`, optionally enforces per-link FIFO
    /// order, and schedules the arrival.
    fn transmit(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: P::Msg,
        ready: SimTime,
        extra_delay: Duration,
        fifo: bool,
    ) {
        let size = framed_len(&msg);
        let departure = self.nic_free[from.as_usize()].max(ready);
        let tx_time = match self.config.bandwidth_bytes_per_sec {
            Some(bw) if bw > 0 => Duration::from_secs_f64(size as f64 / bw as f64),
            _ => Duration::ZERO,
        };
        let sent = departure + tx_time;
        self.nic_free[from.as_usize()] = sent;
        let latency = self.config.latency.sample(from, to, &mut self.rng);
        let mut arrival = sent + latency + extra_delay;
        if fifo {
            // Enforce per-link FIFO (reliable ordered links, §3.1).
            let last = self.link_order.entry((from, to)).or_insert(SimTime::ZERO);
            arrival = arrival.max(*last);
            *last = arrival;
        }
        self.metrics.record_send(from, size, ready);
        self.push_event(arrival, to, EventKind::Message { from, msg });
    }

    fn apply_actions(&mut self, node: NodeId, start: SimTime, mut out: Outbox<P::Msg>) {
        let mut eff = start;
        let actions: Vec<Action<P::Msg>> = out.drain().collect();
        for action in actions {
            match action {
                Action::Cpu(charge) => {
                    if self.config.charge_cpu {
                        let work = self.config.cost.charge_time(
                            charge.signs,
                            charge.verifies,
                            charge.hashed_bytes,
                        );
                        if !work.is_zero() {
                            eff = self.schedule_cpu(node, eff, work);
                        }
                    }
                    self.metrics
                        .record_cpu(node, charge.signs, charge.verifies, eff);
                }
                Action::Send { to, msg } => self.send(node, to, msg, eff),
                Action::Broadcast { msg } => {
                    let n = self.nodes.len();
                    for i in 0..n {
                        let to = NodeId(i as u32);
                        if to != node {
                            self.send(node, to, msg.clone(), eff);
                        }
                    }
                }
                Action::SetTimer { id, delay } => {
                    let generation = self.timers.entry((node, id)).or_insert(0);
                    *generation += 1;
                    let generation = *generation;
                    self.push_event(eff + delay, node, EventKind::Timer { id, generation });
                }
                Action::CancelTimer { id } => {
                    if let Some(generation) = self.timers.get_mut(&(node, id)) {
                        *generation += 1;
                    }
                }
                Action::Deliver(delivery) => {
                    self.deliveries[node.as_usize()].push(delivery);
                    self.delivery_times[node.as_usize()].push(eff);
                }
                Action::Observe(obs) => {
                    self.metrics.record(node, eff, &obs);
                }
            }
        }
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start();
        let Some(Reverse(event)) = self.queue.pop() else {
            return false;
        };
        self.now = self.now.max(event.time);
        self.events_processed += 1;
        let node = event.node;
        if self.adversary.is_crashed(node, self.now) {
            return true;
        }
        match event.kind {
            EventKind::Message { from, msg } => {
                let mut out = Outbox::new();
                self.nodes[node.as_usize()].on_message(from, msg, &mut out);
                self.apply_actions(node, event.time, out);
            }
            EventKind::Timer { id, generation } => {
                let current = self.timers.get(&(node, id)).copied().unwrap_or(0);
                if current == generation {
                    let mut out = Outbox::new();
                    self.nodes[node.as_usize()].on_timer(id, &mut out);
                    self.apply_actions(node, event.time, out);
                }
            }
            EventKind::Inject { tx } => {
                let mut out = Outbox::new();
                self.nodes[node.as_usize()].on_transaction(tx, &mut out);
                self.apply_actions(node, event.time, out);
            }
        }
        true
    }

    /// Runs until virtual time `deadline` (or the queue drains).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start();
        while let Some(Reverse(event)) = self.queue.peek() {
            if event.time > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// Runs for `duration` of virtual time from the current instant.
    pub fn run_for(&mut self, duration: Duration) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireledger_types::Observation;
    use fireledger_types::{CodecError, Reader, Round, WorkerId};

    /// A toy protocol: node 0 broadcasts a counter on start and whenever its
    /// timer fires; every node records what it received and echoes to the
    /// sender. Used to exercise the engine itself.
    #[derive(Debug)]
    struct Echo {
        id: NodeId,
        received: Vec<(NodeId, u64)>,
        rounds: u64,
        max_rounds: u64,
    }

    #[derive(Clone, Debug)]
    struct Num(u64);
    impl WireCodec for Num {
        fn encode_to(&self, out: &mut Vec<u8>) {
            self.0.encode_to(out);
        }
        fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Num(r.u64()?))
        }
        fn encoded_len(&self) -> usize {
            8
        }
    }

    impl Protocol for Echo {
        type Msg = Num;
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn on_start(&mut self, out: &mut Outbox<Num>) {
            if self.id == NodeId(0) {
                out.broadcast(Num(0));
                out.set_timer(TimerId(1), Duration::from_millis(10));
            }
        }
        fn on_message(&mut self, from: NodeId, msg: Num, out: &mut Outbox<Num>) {
            self.received.push((from, msg.0));
            if self.id != NodeId(0) {
                out.send(from, Num(msg.0 + 100));
            }
        }
        fn on_timer(&mut self, _timer: TimerId, out: &mut Outbox<Num>) {
            self.rounds += 1;
            if self.rounds < self.max_rounds {
                out.broadcast(Num(self.rounds));
                out.set_timer(TimerId(1), Duration::from_millis(10));
            }
            out.observe(Observation::TentativeDecision {
                worker: WorkerId(0),
                round: Round(self.rounds),
            });
        }
        fn on_transaction(&mut self, tx: Transaction, out: &mut Outbox<Num>) {
            out.broadcast(Num(1000 + tx.seq));
        }
    }

    fn echo_cluster(n: usize, max_rounds: u64) -> Vec<Echo> {
        (0..n)
            .map(|i| Echo {
                id: NodeId(i as u32),
                received: Vec::new(),
                rounds: 0,
                max_rounds,
            })
            .collect()
    }

    #[test]
    fn messages_flow_and_echo_back() {
        let mut sim = Simulation::new(SimConfig::ideal(), echo_cluster(4, 1));
        sim.run_for(Duration::from_millis(100));
        // Nodes 1..3 received the initial broadcast.
        for i in 1..4u32 {
            assert!(sim
                .node(NodeId(i))
                .received
                .iter()
                .any(|(f, v)| *f == NodeId(0) && *v == 0));
        }
        // Node 0 received echoes from everyone.
        let echoes: Vec<_> = sim
            .node(NodeId(0))
            .received
            .iter()
            .filter(|(_, v)| *v == 100)
            .collect();
        assert_eq!(echoes.len(), 3);
    }

    #[test]
    fn timers_fire_and_can_be_superseded() {
        let mut sim = Simulation::new(SimConfig::ideal(), echo_cluster(4, 5));
        sim.run_for(Duration::from_millis(200));
        assert_eq!(sim.node(NodeId(0)).rounds, 5);
    }

    #[test]
    fn executions_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut sim =
                Simulation::new(SimConfig::single_dc().with_seed(seed), echo_cluster(4, 10));
            sim.run_for(Duration::from_millis(500));
            (
                sim.events_processed(),
                sim.node(NodeId(0)).received.clone(),
                sim.now(),
            )
        };
        assert_eq!(run(7), run(7));
        // A different seed changes latencies and hence (usually) arrival order.
        let (a, _, _) = run(7);
        let (b, _, _) = run(8);
        assert_eq!(a, b, "event counts should match even if order differs");
    }

    #[test]
    fn bandwidth_limits_serialize_broadcasts() {
        // Each copy costs its framed size on the sender's NIC: broadcasting
        // 17-byte frames to 3 peers over a 1 kB/s NIC puts the first copy on
        // the wire after 17 ms and the third only after 51 ms.
        let slow = SimConfig::ideal().with_bandwidth(Some(1_000));
        let mut sim = Simulation::new(slow, echo_cluster(4, 1));
        sim.run_for(Duration::from_millis(40));
        assert!(!sim.node(NodeId(1)).received.is_empty());
        assert!(sim.node(NodeId(3)).received.is_empty());
        sim.run_for(Duration::from_millis(60));
        assert!(!sim.node(NodeId(3)).received.is_empty());
        let m = sim.metrics().node_counters();
        assert_eq!(m[0].msgs_sent, 3);
        assert_eq!(framed_len(&Num(0)), 17);
        assert_eq!(m[0].bytes_sent, 3 * 17);
    }

    #[test]
    fn cpu_charges_delay_subsequent_sends() {
        #[derive(Debug)]
        struct Cpu {
            id: NodeId,
            got_at: Option<SimTime>,
        }
        #[derive(Clone, Debug)]
        struct M;
        impl WireCodec for M {
            fn encode_to(&self, _out: &mut Vec<u8>) {}
            fn decode_from(_r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(M)
            }
            fn encoded_len(&self) -> usize {
                0
            }
        }
        impl Protocol for Cpu {
            type Msg = M;
            fn node_id(&self) -> NodeId {
                self.id
            }
            fn on_start(&mut self, out: &mut Outbox<M>) {
                if self.id == NodeId(0) {
                    // 10 signatures at 900 µs each ≈ 9 ms of CPU before the send.
                    out.cpu(fireledger_types::runtime::CpuCharge {
                        signs: 10,
                        verifies: 0,
                        hashed_bytes: 0,
                    });
                    out.broadcast(M);
                }
            }
            fn on_message(&mut self, _from: NodeId, _msg: M, _out: &mut Outbox<M>) {
                self.got_at = Some(SimTime::ZERO); // marker; real time checked via sim.now()
            }
            fn on_timer(&mut self, _t: TimerId, _o: &mut Outbox<M>) {}
        }
        let nodes = vec![
            Cpu {
                id: NodeId(0),
                got_at: None,
            },
            Cpu {
                id: NodeId(1),
                got_at: None,
            },
            Cpu {
                id: NodeId(2),
                got_at: None,
            },
            Cpu {
                id: NodeId(3),
                got_at: None,
            },
        ];
        let cfg = SimConfig {
            latency: LatencyModel::Constant(Duration::from_millis(1)),
            bandwidth_bytes_per_sec: None,
            cost: CostModel::m5_xlarge(),
            charge_cpu: true,
            seed: 1,
        };
        let mut sim = Simulation::new(cfg, nodes);
        sim.start();
        for _ in 0..100 {
            if !sim.step() {
                break;
            }
        }
        // The broadcast could only arrive after ~9 ms CPU + 1 ms latency.
        assert!(sim.now() >= SimTime::from_millis(9));
        assert_eq!(sim.metrics().node_counters()[0].signatures, 10);
    }

    #[test]
    fn injected_transactions_reach_protocols() {
        let mut sim = Simulation::new(SimConfig::ideal(), echo_cluster(4, 1));
        sim.inject_transaction(
            NodeId(2),
            Transaction::zeroed(9, 77, 8),
            Duration::from_millis(5),
        );
        sim.run_for(Duration::from_millis(50));
        // Node 2 broadcast 1000 + 77; everyone else received it.
        assert!(sim
            .node(NodeId(0))
            .received
            .iter()
            .any(|(f, v)| *f == NodeId(2) && *v == 1077));
    }

    #[test]
    fn crashed_nodes_neither_send_nor_receive() {
        use crate::adversary::CrashSchedule;
        let adv = CrashSchedule::new().crash(NodeId(0), SimTime::ZERO);
        let mut sim =
            Simulation::with_adversary(SimConfig::ideal(), echo_cluster(4, 3), Box::new(adv));
        sim.run_for(Duration::from_millis(100));
        // Node 0 crashed before start: nobody received anything from it.
        for i in 1..4u32 {
            assert!(sim.node(NodeId(i)).received.is_empty());
        }
    }

    #[test]
    fn crash_recover_window_covering_start_still_initializes_the_node() {
        use crate::adversary::PlanAdversary;
        use fireledger_types::FaultPlan;
        // Node 0 is down from t = 0 to t = 5 ms. Its on_start broadcast is
        // suppressed (it is down when it would send), but the timer armed in
        // on_start fires at 10 ms — after recovery — so its round-1
        // broadcast must reach everyone. Before the fix, a downtime window
        // covering t = 0 skipped on_start entirely and the node stayed
        // inert forever.
        let plan = FaultPlan::named("boot-churn").crash_recover(
            NodeId(0),
            Duration::ZERO,
            Duration::from_millis(5),
        );
        let adv = PlanAdversary::new(plan, crate::adversary::CrashSchedule::new());
        let mut sim =
            Simulation::with_adversary(SimConfig::ideal(), echo_cluster(4, 3), Box::new(adv));
        sim.run_for(Duration::from_millis(100));
        // The start broadcast (value 0) was lost to the downtime...
        for i in 1..4u32 {
            assert!(
                !sim.node(NodeId(i)).received.iter().any(|(_, v)| *v == 0),
                "node {i} received a broadcast sent while the sender was down"
            );
        }
        // ...but the post-recovery timer broadcasts arrived.
        for i in 1..4u32 {
            assert!(
                sim.node(NodeId(i)).received.iter().any(|(_, v)| *v >= 1),
                "node {i} never heard from the recovered node"
            );
        }
    }

    #[test]
    fn observations_reach_metrics() {
        let mut sim = Simulation::new(SimConfig::ideal(), echo_cluster(4, 2));
        sim.run_for(Duration::from_millis(100));
        // Timer observations were recorded as tentative decisions.
        assert!(!sim.metrics().lifecycles().is_empty());
        let s = sim.summary();
        assert!(s.msgs_sent > 0);
    }

    #[test]
    fn run_until_advances_time_even_without_events() {
        let mut sim = Simulation::new(SimConfig::ideal(), echo_cluster(4, 1));
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }
}
