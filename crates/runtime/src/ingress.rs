//! The ingress soak harness: an open-loop client fleet driving the §11 RPC
//! sub-protocol against a cluster's admission gates.
//!
//! Three pieces, each runtime-agnostic:
//!
//! * [`IngressLoad`] — the scenario knob ([`crate::Scenario::with_ingress`]):
//!   client count, think time, payload size, retry budget and the
//!   [`AdmissionConfig`] every node's gate runs.
//! * [`ClusterIngress`] — one [`IngressGate`] per node behind a single
//!   [`RpcHandler`], so the TCP runtime's socket listeners and the
//!   simulator's sliced driver both dispatch into identical admission
//!   state.
//! * [`ClientFleet`] — a deterministic, sans-IO fleet of open-loop clients:
//!   every client submits on a seeded lane mix, backs off with jittered
//!   exponential delays on retryable refusals ([`SubmitStatus::Busy`] /
//!   [`SubmitStatus::RateLimited`]), fails over to the next node on
//!   [`SubmitStatus::Syncing`], and accounts every accepted transaction
//!   until it is observed committed. The fleet never reads a clock — the
//!   driver passes `now_nanos` — so the simulator replays it bit-identically.
//!
//! The accounting the soak exists for is **accepted-then-lost**: a
//! transaction the gate acked `Accepted` but no node ever delivered. Under
//! the supported fault plans (partitions, crash-recover pauses) that count
//! must end at zero — the admission pipeline's whole contract is that work
//! it cannot see through gets *refused*, visibly, instead of accepted and
//! dropped.

use fireledger::{AdmissionConfig, Availability, IngressGate};
use fireledger_net::{NodeStatus, RealtimeCluster, RpcHandler};
use fireledger_types::rpc::{Lane, RpcMsg, SubmitStatus};
use fireledger_types::{Delivery, NodeId, Transaction, TxOp};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::report::{IngressLaneReport, IngressReport};
use crate::scenario::Scenario;

/// Client-side retry ceiling on the per-attempt back-off delay.
const MAX_BACKOFF: Duration = Duration::from_millis(200);

/// Size of the shared hot account set a conflicting transfer credits
/// ([`PayloadKind::Transfers`]): small enough that conflicting transfers
/// genuinely collide on the same accounts.
const HOT_ACCOUNTS: u64 = 4;

/// What the client fleet puts inside each submitted transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadKind {
    /// Zero-filled bytes of the load's `tx_size` — ordered and charged,
    /// executed as a no-op (`Receipt::Opaque`). The default.
    Opaque,
    /// §12.1 `Transfer` ops against the executor's genesis accounts, for
    /// exec-enabled clusters (`ClusterBuilder::with_execution` with at
    /// least `accounts` genesis accounts).
    ///
    /// Client *i* debits its private account `i mod accounts` with a
    /// fleet-tracked nonce. With probability `conflict_pct`% the transfer
    /// credits one of the `HOT_ACCOUNTS` (4) top accounts — a key conflict
    /// with every other client's hot credits — otherwise it is a self-transfer,
    /// whose footprint stays inside the client's own account and conflicts
    /// with nobody. `tx_size` is ignored: an encoded transfer is 34 bytes.
    Transfers {
        /// Account id space (keep ≥ the client count so private accounts
        /// stay private, and ≤ the exec genesis account count so every
        /// account exists from round 0).
        accounts: u64,
        /// Percent (0–100) of transfers aimed at the hot account set.
        conflict_pct: u8,
    },
}

/// Open-loop ingress load riding on a [`Scenario`] (see
/// [`Scenario::with_ingress`]).
///
/// The snippet below is the `docs/SCENARIOS.md` "ingress under
/// partition-heal" entry — a client fleet submitting straight through a
/// split-and-heal, with the zero accepted-then-lost contract asserted on
/// the report:
///
/// ```
/// use fireledger_runtime::prelude::*;
/// use fireledger_runtime::catalog;
/// use std::time::Duration;
///
/// let plan = catalog::partition_heal(4, Duration::from_millis(300), Duration::from_millis(600));
/// let scenario = Scenario::new("ingress-soak")
///     .ideal()
///     .with_faults(plan)
///     .run_for(Duration::from_millis(1200))
///     .with_warmup(Duration::ZERO)
///     .with_ingress(IngressLoad::new(8, Duration::from_millis(10), 64));
/// let params = ProtocolParams::new(4)
///     .with_batch_size(8)
///     .with_tx_size(64)
///     .with_fill_blocks(false);
/// let report = Simulator
///     .run(&ClusterBuilder::<FloCluster>::new(params), &scenario)
///     .unwrap();
/// assert!(report.ingress.enabled);
/// assert_eq!(report.ingress.lost(), 0, "accepted work must commit");
/// assert_eq!(report.ingress.accepted(), report.ingress.committed());
/// ```
#[derive(Clone, Debug)]
pub struct IngressLoad {
    /// Number of open-loop clients.
    pub clients: usize,
    /// Mean think time between a client's submissions (±25% jitter).
    pub think_time: Duration,
    /// Transaction payload size in bytes.
    pub tx_size: usize,
    /// Retries a client spends on one submission before abandoning it.
    pub max_retries: u32,
    /// Tail of the run during which clients stop submitting, so everything
    /// accepted has time to commit before the loss accounting closes.
    pub drain: Duration,
    /// The admission policy installed on every node's gate.
    pub admission: AdmissionConfig,
    /// What each submitted transaction carries ([`PayloadKind::Opaque`] by
    /// default; [`PayloadKind::Transfers`] drives the execution engine).
    pub payload: PayloadKind,
}

impl IngressLoad {
    /// A fleet of `clients` submitting `tx_size`-byte payloads every
    /// `think_time` (default admission policy, 6 retries, 400 ms drain).
    pub fn new(clients: usize, think_time: Duration, tx_size: usize) -> Self {
        IngressLoad {
            clients,
            think_time,
            tx_size,
            max_retries: 6,
            drain: Duration::from_millis(400),
            admission: AdmissionConfig::default(),
            payload: PayloadKind::Opaque,
        }
    }

    /// Overrides what each submitted transaction carries.
    pub fn with_payload(mut self, payload: PayloadKind) -> Self {
        self.payload = payload;
        self
    }

    /// Overrides the admission policy.
    ///
    /// The snippet below is the `docs/SCENARIOS.md` "ingress-overload"
    /// entry — shrunken budgets against an aggressive fleet must produce
    /// typed sheds, never silent loss:
    ///
    /// ```
    /// use fireledger_runtime::prelude::*;
    /// use fireledger::AdmissionConfig;
    /// use std::time::Duration;
    ///
    /// let admission = AdmissionConfig {
    ///     capacity: 4,      // tiny per-lane queues
    ///     rate_per_sec: 50, // and a tight token bucket
    ///     burst: 5,
    ///     ..Default::default()
    /// };
    /// let scenario = Scenario::new("ingress-overload")
    ///     .ideal()
    ///     .run_for(Duration::from_millis(800))
    ///     .with_ingress(
    ///         IngressLoad::new(24, Duration::from_millis(2), 64)
    ///             .with_admission(admission)
    ///             .with_max_retries(1),
    ///     );
    /// let params = ProtocolParams::new(4)
    ///     .with_batch_size(8)
    ///     .with_tx_size(64)
    ///     .with_fill_blocks(false);
    /// let report = Simulator
    ///     .run(&ClusterBuilder::<FloCluster>::new(params), &scenario)
    ///     .unwrap();
    /// assert!(report.ingress.shed() > 0, "overload must shed, visibly");
    /// assert_eq!(report.ingress.lost(), 0, "…but never lose accepted work");
    /// ```
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// Overrides the per-submission retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Overrides the no-new-submissions drain tail.
    pub fn with_drain(mut self, drain: Duration) -> Self {
        self.drain = drain;
        self
    }
}

/// xorshift64*: tiny, seedable, good enough for think-time jitter and lane
/// mixing — and fully deterministic, which the simulator requires.
#[derive(Clone, Debug)]
struct DetRng(u64);

impl DetRng {
    fn new(seed: u64) -> Self {
        DetRng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One admission gate per node behind a single [`RpcHandler`]: the piece a
/// runtime plugs its client front end into ([`RealtimeCluster::serve_rpc`]),
/// and the driver mirrors availability into.
#[derive(Debug)]
pub struct ClusterIngress {
    gates: Vec<Arc<IngressGate>>,
    /// Wall-clock origin for listener-driven calls (the sim path passes its
    /// own virtual time through [`ClusterIngress::handle_at`] instead).
    origin: Instant,
}

impl ClusterIngress {
    /// One gate per node, all running `cfg`, all initially `Up`.
    pub fn new(n: usize, cfg: AdmissionConfig) -> Self {
        ClusterIngress {
            gates: (0..n)
                .map(|_| Arc::new(IngressGate::new(cfg.clone())))
                .collect(),
            origin: Instant::now(),
        }
    }

    /// The per-node gates, index-aligned with node ids.
    pub fn gates(&self) -> &[Arc<IngressGate>] {
        &self.gates
    }

    /// Mirrors `node`'s availability into its gate.
    pub fn set_availability(&self, node: usize, a: Availability) {
        self.gates[node].set_availability(a);
    }

    /// Dispatches one client message against `node`'s gate at an explicit
    /// time — the simulator's entry point.
    pub fn handle_at(
        &self,
        node: usize,
        msg: &RpcMsg,
        now_nanos: u64,
    ) -> (RpcMsg, Option<Transaction>) {
        self.gates[node].handle(msg, now_nanos)
    }
}

impl RpcHandler for ClusterIngress {
    fn handle(&self, node: NodeId, msg: &RpcMsg) -> (RpcMsg, Option<Transaction>) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.handle_at(node.as_usize(), msg, now)
    }
}

/// Per-node downtime windows `(node, from_nanos, to_nanos)` compiled from a
/// scenario's fault plan, each opened `guard` early: the
/// driver flips the node's gate to `Down` *before* the fault lands, so no
/// submission is accepted into a pool that is about to stop listening —
/// the knowable half of the accepted-then-lost contract. (The gate mirror
/// of the node's own loop covers the unplanned half: state-sync phases.)
pub(crate) fn planned_down_windows(scenario: &Scenario, guard: Duration) -> Vec<(usize, u64, u64)> {
    let nanos = |d: Duration| d.as_nanos() as u64;
    let lead = |d: Duration| nanos(d.saturating_sub(guard));
    let mut windows: Vec<(usize, u64, u64)> = Vec::new();
    if let Some(plan) = &scenario.faults {
        for nf in &plan.node_faults {
            let to = nf.recover_at.map_or(u64::MAX, nanos);
            windows.push((nf.node.as_usize(), lead(nf.crash_at), to));
        }
        for kf in &plan.kill_faults {
            let to = kf.restart_at.map_or(u64::MAX, nanos);
            windows.push((kf.node.as_usize(), lead(kf.kill_at), to));
        }
    }
    windows
}

/// True when `node` sits inside a planned downtime window at `now_nanos`.
pub(crate) fn planned_down(windows: &[(usize, u64, u64)], node: usize, now_nanos: u64) -> bool {
    windows
        .iter()
        .any(|(w, from, to)| *w == node && (*from..*to).contains(&now_nanos))
}

/// The real-time ingress driver: owns the fleet and its commit cursors and
/// is stepped (every ~2 ms) by `drive_realtime`'s wait loops. Each step
/// mirrors availability into the gates — worst of the *planned* downtime
/// window and the node's own live status — serves every due client through
/// [`RealtimeCluster::rpc_call`], and feeds newly observed deliveries back into
/// the commit accounting.
pub(crate) struct IngressDrive {
    ci: Arc<ClusterIngress>,
    fleet: ClientFleet,
    /// Per-node count of deliveries already fed into the accounting.
    cursors: Vec<usize>,
    windows: Vec<(usize, u64, u64)>,
}

impl IngressDrive {
    pub(crate) fn new(
        ci: Arc<ClusterIngress>,
        load: &IngressLoad,
        n: usize,
        seed: u64,
        duration: Duration,
        windows: Vec<(usize, u64, u64)>,
    ) -> Self {
        let deadline = duration.saturating_sub(load.drain).as_nanos() as u64;
        IngressDrive {
            ci,
            fleet: ClientFleet::new(load, n, seed, deadline),
            cursors: vec![0; n],
            windows,
        }
    }

    pub(crate) fn step<M>(&mut self, running: &RealtimeCluster<M>, now: Duration)
    where
        M: Send + Sync + 'static,
    {
        let now_nanos = now.as_nanos() as u64;
        for node in 0..self.cursors.len() {
            let planned = planned_down(&self.windows, node, now_nanos);
            let a = match running.node_status(NodeId(node as u32)) {
                _ if planned => Availability::Down,
                NodeStatus::Down => Availability::Down,
                NodeStatus::Syncing => Availability::Syncing,
                NodeStatus::Up => Availability::Up,
            };
            self.ci.set_availability(node, a);
        }
        self.fleet.poll(now_nanos, &mut |node, msg| {
            running.rpc_call(NodeId(node as u32), msg)
        });
        for (i, cursor) in self.cursors.iter_mut().enumerate() {
            let ds = running.deliveries(NodeId(i as u32));
            if ds.len() < *cursor {
                // A kill cleared this node's delivery log; rescan from the
                // start (note_commits is idempotent per transaction).
                *cursor = 0;
            }
            for d in &ds[*cursor..] {
                self.ci.gates()[i].note_commit(d.round, d.block.txs.iter());
                self.fleet.note_commits(now_nanos, d.block.txs.iter());
            }
            *cursor = ds.len();
        }
    }

    /// Accepted transactions not yet observed committed.
    pub(crate) fn outstanding(&self) -> u64 {
        self.fleet.lost()
    }

    /// Final scan over the post-shutdown delivery logs — closes the race
    /// between the last step and the shutdown snapshot — then the report.
    pub(crate) fn finish(mut self, deliveries: &[Vec<Delivery>], end_nanos: u64) -> IngressReport {
        for (i, ds) in deliveries.iter().enumerate() {
            let from = match self.cursors.get(i) {
                Some(&c) if c <= ds.len() => c,
                _ => 0,
            };
            for d in &ds[from..] {
                self.fleet.note_commits(end_nanos, d.block.txs.iter());
            }
        }
        self.fleet.finish()
    }
}

/// Client-side per-lane outcome counters (the client's view — the gates
/// keep their own, which match under a lossless transport).
#[derive(Clone, Copy, Debug, Default)]
struct LaneCounts {
    accepted: u64,
    committed: u64,
    shed_busy: u64,
    shed_rate_limited: u64,
    rejected_syncing: u64,
    duplicate: u64,
}

#[derive(Clone, Debug)]
struct Client {
    id: u64,
    /// Current target node (rotates on `Syncing` and transport failure).
    node: usize,
    /// Next sequence number to submit.
    seq: u64,
    /// Lane of the in-flight submission (chosen fresh per sequence, stable
    /// across its retries).
    lane: Lane,
    /// Retry attempt for the current sequence (0 = fresh).
    attempt: u32,
    /// Earliest `now_nanos` at which this client acts again; `u64::MAX`
    /// once drained.
    next_at: u64,
    /// Payload of the in-flight submission — built once per sequence so
    /// retries resubmit identical bytes (the dedup key is `(client, seq)`,
    /// but two gates admitting different bytes under one id would make the
    /// executed ledger depend on which admission won).
    pending: Vec<u8>,
    /// This client's transfer nonce ([`PayloadKind::Transfers`]): advanced
    /// on every admitted submission, mirroring the state machine's
    /// per-account nonce as long as the client's account is private to it.
    nonce: u64,
    rng: DetRng,
}

impl Client {
    /// Builds the payload for this client's next fresh submission.
    fn build_payload(&mut self, kind: &PayloadKind, tx_size: usize) -> Vec<u8> {
        match kind {
            PayloadKind::Opaque => vec![0u8; tx_size],
            PayloadKind::Transfers {
                accounts,
                conflict_pct,
            } => {
                let accounts = (*accounts).max(1);
                let from = (self.id - 1) % accounts;
                let to = if self.rng.below(100) < *conflict_pct as u64 {
                    // Credit the shared hot set: a key conflict with
                    // every other client's hot credits.
                    accounts - 1 - self.rng.below(HOT_ACCOUNTS.min(accounts))
                } else {
                    // Self-transfer: valid, consumes the nonce, and its
                    // footprint never leaves this client's own account.
                    from
                };
                TxOp::Transfer {
                    from,
                    to,
                    amount: 1,
                    nonce: self.nonce,
                }
                .encode_payload()
                .to_vec()
            }
        }
    }
}

/// A deterministic open-loop client fleet (see the module docs).
#[derive(Debug)]
pub struct ClientFleet {
    cfg: IngressLoad,
    n_nodes: usize,
    clients: Vec<Client>,
    /// Accepted-but-unobserved submissions: id → (lane, accept time).
    /// Whatever is left here when the run closes is accepted-then-lost.
    outstanding: HashMap<(u64, u64), (Lane, u64)>,
    counts: [LaneCounts; 3],
    /// Per-lane submit→commit latency samples in seconds.
    samples: [Vec<f64>; 3],
    retries: u64,
    abandoned: u64,
    transport_errors: u64,
    /// No new submissions at or past this time (the drain tail).
    deadline_nanos: u64,
}

impl ClientFleet {
    /// A fleet for an `n_nodes` cluster, seeded deterministically;
    /// submissions stop at `deadline_nanos`.
    pub fn new(cfg: &IngressLoad, n_nodes: usize, seed: u64, deadline_nanos: u64) -> Self {
        let mut boot = DetRng::new(seed ^ 0x1A9E_55ED);
        let think = cfg.think_time.as_nanos() as u64;
        let clients = (0..cfg.clients)
            .map(|i| Client {
                id: i as u64 + 1,
                node: i % n_nodes.max(1),
                seq: 0,
                lane: Lane::Normal,
                attempt: 0,
                // Stagger starts across one think interval so the fleet
                // does not arrive as a single synchronized burst.
                next_at: boot.below(think.max(1)),
                pending: Vec::new(),
                nonce: 0,
                rng: DetRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + 1)),
            })
            .collect();
        ClientFleet {
            cfg: cfg.clone(),
            n_nodes: n_nodes.max(1),
            clients,
            outstanding: HashMap::new(),
            counts: Default::default(),
            samples: Default::default(),
            retries: 0,
            abandoned: 0,
            transport_errors: 0,
            deadline_nanos,
        }
    }

    /// Runs every due client once against `port` (node index + request →
    /// reply; `None` is a transport failure). Call at a steady cadence with
    /// monotonically non-decreasing `now_nanos`.
    pub fn poll(&mut self, now_nanos: u64, port: &mut dyn FnMut(usize, &RpcMsg) -> Option<RpcMsg>) {
        let think = self.cfg.think_time.as_nanos() as u64;
        let max_retries = self.cfg.max_retries;
        let tx_size = self.cfg.tx_size;
        for ci in 0..self.clients.len() {
            if self.clients[ci].next_at > now_nanos {
                continue;
            }
            if now_nanos >= self.deadline_nanos {
                // Drained: pending unaccepted work is abandoned, not lost.
                if self.clients[ci].attempt > 0 {
                    self.abandoned += 1;
                }
                self.clients[ci].next_at = u64::MAX;
                continue;
            }
            let (id, seq, lane, msg) = {
                let payload_kind = self.cfg.payload;
                let c = &mut self.clients[ci];
                if c.attempt == 0 {
                    // Fresh submission: roll the lane — 1/8 probe, 5/8
                    // normal, 2/8 bulk — and build the payload once.
                    c.lane = match c.rng.below(8) {
                        0 => Lane::Probe,
                        6 | 7 => Lane::Bulk,
                        _ => Lane::Normal,
                    };
                    c.pending = c.build_payload(&payload_kind, tx_size);
                }
                let msg = RpcMsg::Submit {
                    client: c.id,
                    seq: c.seq,
                    lane: c.lane,
                    payload: c.pending.clone(),
                };
                (c.id, c.seq, c.lane, msg)
            };
            let reply = port(self.clients[ci].node, &msg);
            let counts = &mut self.counts[lane.index()];
            match reply {
                Some(RpcMsg::SubmitAck { status, .. }) => match status {
                    SubmitStatus::Accepted { .. } => {
                        counts.accepted += 1;
                        self.outstanding.insert((id, seq), (lane, now_nanos));
                        self.clients[ci].nonce += 1;
                        Self::advance(&mut self.clients[ci], now_nanos, think);
                    }
                    SubmitStatus::Busy { retry_after_ms } => {
                        counts.shed_busy += 1;
                        // First Busy: same node after the hinted back-off
                        // (transient overload). Repeated Busy: fail over —
                        // the node may be down, and a client cannot tell.
                        let rotate = self.clients[ci].attempt >= 1;
                        self.back_off(ci, now_nanos, think, retry_after_ms, max_retries, rotate);
                    }
                    SubmitStatus::RateLimited { retry_after_ms } => {
                        counts.shed_rate_limited += 1;
                        self.back_off(ci, now_nanos, think, retry_after_ms, max_retries, false);
                    }
                    SubmitStatus::Syncing => {
                        counts.rejected_syncing += 1;
                        // Fail over: a syncing node told us to go elsewhere.
                        self.back_off(ci, now_nanos, think, 5, max_retries, true);
                    }
                    SubmitStatus::Duplicate => {
                        // Terminal: the id is already admitted or committed
                        // — move on, never retry. It was admitted, so the
                        // transfer nonce advances like an accept.
                        counts.duplicate += 1;
                        self.clients[ci].nonce += 1;
                        Self::advance(&mut self.clients[ci], now_nanos, think);
                    }
                },
                Some(_) => {
                    // A §11 violation from the server side; treat like a
                    // torn connection.
                    self.transport_errors += 1;
                    self.back_off(ci, now_nanos, think, 10, max_retries, true);
                }
                None => {
                    self.transport_errors += 1;
                    self.back_off(ci, now_nanos, think, 10, max_retries, true);
                }
            }
        }
    }

    /// Moves `c` to its next fresh sequence after `now`.
    fn advance(c: &mut Client, now: u64, think: u64) {
        c.seq += 1;
        c.attempt = 0;
        // Think time ±25% jitter.
        let jitter = if think >= 4 {
            let half = think / 2;
            c.rng.below(half.max(1)).wrapping_sub(half / 2)
        } else {
            0
        };
        c.next_at = now + think.wrapping_add(jitter).max(1);
    }

    /// Books one retry (or the abandonment) of `ci`'s current submission:
    /// jittered exponential back-off seeded from the server's hint.
    fn back_off(
        &mut self,
        ci: usize,
        now: u64,
        think: u64,
        hint_ms: u32,
        max_retries: u32,
        rotate: bool,
    ) {
        let c = &mut self.clients[ci];
        if rotate {
            c.node = (c.node + 1) % self.n_nodes;
        }
        if c.attempt >= max_retries {
            self.abandoned += 1;
            Self::advance(c, now, think);
            return;
        }
        self.retries += 1;
        c.attempt += 1;
        let base = Duration::from_millis(hint_ms.max(1) as u64)
            .saturating_mul(1 << (c.attempt - 1).min(4))
            .min(MAX_BACKOFF)
            .as_nanos() as u64;
        c.next_at = now + base + c.rng.below(base / 2 + 1);
    }

    /// Marks every transaction of a committed block as observed: each one
    /// still outstanding books a commit and a latency sample for its lane.
    /// Feed every node's deliveries — the map makes duplicates idempotent.
    pub fn note_commits<'a>(
        &mut self,
        now_nanos: u64,
        txs: impl IntoIterator<Item = &'a Transaction>,
    ) {
        for tx in txs {
            if let Some((lane, submitted)) = self.outstanding.remove(&tx.id()) {
                self.counts[lane.index()].committed += 1;
                self.samples[lane.index()].push(now_nanos.saturating_sub(submitted) as f64 / 1e9);
            }
        }
    }

    /// Total accepted-but-never-observed-committed submissions so far.
    pub fn lost(&self) -> u64 {
        self.outstanding.len() as u64
    }

    /// Closes the accounting and produces the report's `ingress` section.
    pub fn finish(mut self) -> IngressReport {
        if std::env::var_os("FIRELEDGER_INGRESS_DEBUG").is_some() {
            for ((client, seq), (lane, at)) in &self.outstanding {
                eprintln!(
                    "LOST client={client} seq={seq} lane={} accepted_at={:.3}s",
                    lane.name(),
                    *at as f64 / 1e9
                );
            }
        }
        let mut lanes: [IngressLaneReport; 3] = Default::default();
        let mut lost_by_lane = [0u64; 3];
        for (lane, _) in self.outstanding.values() {
            lost_by_lane[lane.index()] += 1;
        }
        for (i, lane) in lanes.iter_mut().enumerate() {
            let c = self.counts[i];
            let samples = &mut self.samples[i];
            samples.sort_by(f64::total_cmp);
            let pct = |p: f64| -> f64 {
                if samples.is_empty() {
                    return 0.0;
                }
                let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
                samples[rank.clamp(1, samples.len()) - 1]
            };
            *lane = IngressLaneReport {
                accepted: c.accepted,
                committed: c.committed,
                lost: lost_by_lane[i],
                shed_busy: c.shed_busy,
                shed_rate_limited: c.shed_rate_limited,
                rejected_syncing: c.rejected_syncing,
                duplicate: c.duplicate,
                p50_latency_secs: pct(50.0),
                p95_latency_secs: pct(95.0),
                p99_latency_secs: pct(99.0),
            };
        }
        IngressReport {
            enabled: true,
            lanes,
            retries: self.retries,
            abandoned: self.abandoned,
            transport_errors: self.transport_errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireledger_types::Round;

    fn load() -> IngressLoad {
        IngressLoad::new(4, Duration::from_millis(10), 32).with_drain(Duration::from_millis(0))
    }

    #[test]
    fn fleet_is_deterministic_for_a_fixed_seed() {
        let run = || {
            let ingress = ClusterIngress::new(4, AdmissionConfig::default());
            let mut fleet = ClientFleet::new(&load(), 4, 7, u64::MAX);
            let mut admitted: Vec<Transaction> = Vec::new();
            for step in 0..200u64 {
                let now = step * 2_000_000; // 2 ms cadence
                let mut port = |node: usize, msg: &RpcMsg| {
                    let (reply, tx) = ingress.handle_at(node, msg, now);
                    admitted.extend(tx);
                    Some(reply)
                };
                fleet.poll(now, &mut port);
            }
            (
                admitted.iter().map(|t| t.id()).collect::<Vec<_>>(),
                fleet.lost(),
            )
        };
        assert_eq!(run(), run());
        assert!(run().0.len() > 10, "fleet submitted almost nothing");
    }

    #[test]
    fn commits_balance_accepts_and_latency_is_sampled() {
        let ingress = ClusterIngress::new(1, AdmissionConfig::default());
        let mut fleet = ClientFleet::new(&load(), 1, 3, u64::MAX);
        let mut admitted: Vec<Transaction> = Vec::new();
        for step in 0..100u64 {
            let now = step * 5_000_000;
            let mut port = |node: usize, msg: &RpcMsg| {
                let (reply, tx) = ingress.handle_at(node, msg, now);
                admitted.extend(tx);
                Some(reply)
            };
            fleet.poll(now, &mut port);
        }
        assert!(fleet.lost() > 0);
        let commit_at = 600_000_000u64;
        ingress.gates()[0].note_commit(Round(0), admitted.iter());
        fleet.note_commits(commit_at, admitted.iter());
        assert_eq!(fleet.lost(), 0, "every admitted tx was committed");
        let report = fleet.finish();
        assert!(report.enabled);
        assert_eq!(report.accepted(), report.committed());
        assert_eq!(report.lost(), 0);
        assert!(report.lanes.iter().any(|l| l.p99_latency_secs > 0.0));
    }

    #[test]
    fn refused_clients_back_off_and_eventually_abandon() {
        let ingress = ClusterIngress::new(2, AdmissionConfig::default());
        // Both nodes down: every submission is refused Busy.
        ingress.set_availability(0, Availability::Down);
        ingress.set_availability(1, Availability::Syncing);
        let cfg = load().with_max_retries(2);
        let mut fleet = ClientFleet::new(&cfg, 2, 9, u64::MAX);
        for step in 0..400u64 {
            let now = step * 2_000_000;
            let mut port = |node: usize, msg: &RpcMsg| Some(ingress.handle_at(node, msg, now).0);
            fleet.poll(now, &mut port);
        }
        let lost = fleet.lost();
        let report = fleet.finish();
        assert_eq!(lost, 0, "nothing was accepted, nothing can be lost");
        assert_eq!(report.accepted(), 0);
        assert!(report.retries > 0, "refusals must be retried");
        assert!(report.abandoned > 0, "retry budgets must expire");
        let shed: u64 = report
            .lanes
            .iter()
            .map(|l| l.shed_busy + l.rejected_syncing)
            .sum();
        assert!(shed > 0);
    }

    #[test]
    fn transfer_payloads_decode_and_mix_conflicting_and_disjoint_targets() {
        use fireledger_types::DecodedOp;
        let cfg = IngressLoad::new(8, Duration::from_millis(5), 64).with_payload(
            PayloadKind::Transfers {
                accounts: 64,
                conflict_pct: 50,
            },
        );
        let ingress = ClusterIngress::new(1, AdmissionConfig::default());
        let mut fleet = ClientFleet::new(&cfg, 1, 21, u64::MAX);
        let mut admitted: Vec<Transaction> = Vec::new();
        for step in 0..300u64 {
            let now = step * 2_000_000;
            let mut port = |node: usize, msg: &RpcMsg| {
                let (reply, tx) = ingress.handle_at(node, msg, now);
                admitted.extend(tx);
                Some(reply)
            };
            fleet.poll(now, &mut port);
        }
        assert!(admitted.len() > 20, "fleet admitted almost nothing");
        let (mut hot, mut disjoint) = (0u64, 0u64);
        let mut nonces: HashMap<u64, u64> = HashMap::new();
        for tx in &admitted {
            match TxOp::classify_payload(&tx.payload) {
                DecodedOp::Op(TxOp::Transfer {
                    from,
                    to,
                    amount,
                    nonce,
                }) => {
                    assert_eq!(amount, 1);
                    assert!(from < 64 && to < 64);
                    if to == from {
                        disjoint += 1;
                    } else {
                        assert!(to >= 64 - HOT_ACCOUNTS, "non-self target must be hot");
                        hot += 1;
                    }
                    // Per private account, nonces are exactly the admission
                    // order: 0, 1, 2, …
                    let expected = nonces.entry(from).or_insert(0);
                    assert_eq!(nonce, *expected, "nonce gap for account {from}");
                    *expected += 1;
                }
                other => panic!("expected a transfer payload, got {other:?}"),
            }
        }
        assert!(hot > 0, "a 50% conflict ratio produced no hot transfers");
        assert!(
            disjoint > 0,
            "a 50% conflict ratio produced only hot transfers"
        );
    }

    #[test]
    fn planned_windows_open_early_and_close_on_recovery() {
        use fireledger_types::FaultPlan;
        let s = Scenario::new("w").with_faults(
            FaultPlan::named("cr")
                .crash_recover(
                    NodeId(1),
                    Duration::from_millis(100),
                    Duration::from_millis(200),
                )
                .crash(NodeId(2), Duration::from_millis(300)),
        );
        let windows = planned_down_windows(&s, Duration::from_millis(20));
        assert!(planned_down(
            &windows,
            1,
            Duration::from_millis(81).as_nanos() as u64
        ));
        assert!(planned_down(
            &windows,
            1,
            Duration::from_millis(150).as_nanos() as u64
        ));
        assert!(!planned_down(
            &windows,
            1,
            Duration::from_millis(79).as_nanos() as u64
        ));
        assert!(!planned_down(
            &windows,
            1,
            Duration::from_millis(200).as_nanos() as u64
        ));
        assert!(!planned_down(
            &windows,
            0,
            Duration::from_millis(150).as_nanos() as u64
        ));
        // A permanent crash opens its window early and never closes it.
        assert!(!planned_down(
            &windows,
            2,
            Duration::from_millis(279).as_nanos() as u64
        ));
        assert!(planned_down(
            &windows,
            2,
            Duration::from_millis(281).as_nanos() as u64
        ));
        assert!(planned_down(&windows, 2, u64::MAX - 1));
        assert!(windows.contains(&(2, Duration::from_millis(280).as_nanos() as u64, u64::MAX)));
    }
}
