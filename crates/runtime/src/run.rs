//! The runtimes: one trait, two drivers.
//!
//! [`Runtime::run`] takes a [`ClusterBuilder`] and a [`Scenario`] and returns
//! a [`RunReport`]; [`Runtime::run_full`] additionally returns every node's
//! delivered blocks, which is what lets experiment code prove that two
//! runtimes produced the *same ledger*, not merely similar rates.
//!
//! * [`Simulator`] executes the scenario on the deterministic discrete-event
//!   simulator;
//! * [`Tcp`] runs one thread per node with wall-clock time and a real
//!   `TcpStream` mesh over localhost — every message is serialized through
//!   the binary wire format (`docs/WIRE_FORMAT.md`) and framed onto a
//!   socket.
//!
//! The same two values drive both — which is the point: a scenario debugged
//! deterministically in the simulator can be re-run unchanged on real
//! sockets.

use crate::builder::{ClusterBuilder, ClusterProtocol};
use crate::ingress::{
    planned_down, planned_down_windows, ClientFleet, ClusterIngress, IngressDrive,
};
use crate::report::{ExecutionReport, NodeDeliveries, RunReport};
use crate::scenario::Scenario;
use fireledger::Availability;
use fireledger_net::RealtimeCluster;
use fireledger_sim::{Adversary, LateJoinAdversary, PlanAdversary, SimTime, Simulation};
use fireledger_types::{Delivery, DiskFault, Error, FaultPlan, NodeId, Result, Transaction};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// How early an ingress gate is flipped `Down` ahead of a *planned* node
/// fault. Work accepted inside the guard window could still sit unproposed
/// in the node's pool when the fault lands, so the gate refuses (`Busy`)
/// early and clients fail over — the knowable half of the zero
/// accepted-then-lost contract.
const INGRESS_GUARD: Duration = Duration::from_millis(50);

/// Bounded extra wall-clock window a real-time run keeps stepping past its
/// scheduled end while accepted ingress work is still uncommitted. The
/// zero accepted-then-lost contract is about *eventual* commitment, and
/// the tail is genuinely long: after a heal-then-pause soak the resumed
/// node must detect its lag, range-fetch the gap, and only then propose
/// the transactions pooled while it was down — ~2s on an otherwise idle
/// host, more under load. The loop below exits the moment nothing is
/// outstanding, so a healthy run pays only the actual recovery time; the
/// bound exists so work that truly never commits is reported lost, not
/// waited on forever.
const INGRESS_QUIESCE_GRACE: Duration = Duration::from_secs(10);

/// Drives a cluster through a scenario.
pub trait Runtime {
    /// Short runtime name recorded in reports (`"sim"`, `"tcp"`).
    fn name(&self) -> &'static str;

    /// Builds the cluster, runs the scenario to completion, and returns the
    /// report together with every node's delivered blocks in delivery order.
    fn run_full<P: ClusterProtocol>(
        &self,
        cluster: &ClusterBuilder<P>,
        scenario: &Scenario,
    ) -> Result<(RunReport, Vec<Vec<Delivery>>)>;

    /// Builds the cluster and runs the scenario to completion.
    fn run<P: ClusterProtocol>(
        &self,
        cluster: &ClusterBuilder<P>,
        scenario: &Scenario,
    ) -> Result<RunReport> {
        self.run_full(cluster, scenario).map(|(report, _)| report)
    }
}

/// The nodes to average rate metrics over: correct by role and not faulted
/// (crashed or crash-recovered) by the scenario or its fault plan. A
/// late-join node is excluded too — it was down for most of the window.
fn measured_nodes<P: ClusterProtocol>(
    cluster: &ClusterBuilder<P>,
    scenario: &Scenario,
) -> Vec<NodeId> {
    let faulted = scenario.faulted_nodes();
    let late = cluster.late_join().map(|(node, _)| node);
    cluster
        .correct_nodes()
        .into_iter()
        .filter(|id| !faulted.contains(id) && late != Some(*id))
        .collect()
}

/// Enforces the fault-budget invariant across *both* fault surfaces: the
/// builder's role map and the scenario's crash events / fault-plan node
/// faults together must not schedule more than `f` faulty nodes. The
/// builder re-checks its own half in `build()`; this check sees the union
/// (a node that is both role-crashed and scenario-crashed counts once).
fn validate_fault_budget<P: ClusterProtocol>(
    cluster: &ClusterBuilder<P>,
    scenario: &Scenario,
) -> Result<()> {
    let mut faulty: HashSet<NodeId> = cluster
        .roles()
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_faulty())
        .map(|(i, _)| NodeId(i as u32))
        .collect();
    faulty.extend(scenario.faulted_nodes());
    // A late-join node is down until its join round: it spends part of the
    // run as a faulty node and must fit in the same budget.
    if let Some((node, _)) = cluster.late_join() {
        faulty.insert(node);
    }
    let f = cluster.params().f();
    if faulty.len() > f {
        return Err(Error::FaultBudgetExceeded {
            faulty: faulty.len(),
            f,
        });
    }
    Ok(())
}

/// Checks that two runs of the same scenario produced the *same ledger*:
/// for every node, the shorter of the two delivery logs must be a prefix of
/// the longer one, and no node's common prefix may be empty.
///
/// Real-time runs cover a different amount of protocol time than simulated
/// runs of the same scenario, so the logs legitimately differ in *length*;
/// any divergence in *content* (a different block, a different transaction
/// order) is a wire-format or protocol bug. Returns the total number of
/// blocks compared, or a description of the first divergence.
///
/// **Precondition: fault-free scenarios only.** The empty-prefix rule is
/// deliberate strictness — it catches a node whose transport silently died
/// (delivering nothing looks "consistent" under pure prefix comparison).
/// The flip side is that a scenario with crashed or Byzantine nodes can
/// legitimately produce a node with blocks in one run and none in the
/// other, which this function reports as a divergence. Compare fault-free
/// runs (as `tests/tests/runtime_equivalence.rs` does), or restrict the
/// slices to the correct nodes first.
pub fn check_delivery_prefixes(
    a: &[Vec<Delivery>],
    b: &[Vec<Delivery>],
) -> std::result::Result<usize, String> {
    if a.len() != b.len() {
        return Err(format!("node counts differ: {} vs {}", a.len(), b.len()));
    }
    let mut compared = 0;
    for (node, (da, db)) in a.iter().zip(b).enumerate() {
        let common = da.len().min(db.len());
        if common == 0 {
            return Err(format!(
                "node {node} has an empty common prefix ({} vs {} blocks)",
                da.len(),
                db.len()
            ));
        }
        for (i, (x, y)) in da.iter().zip(db).take(common).enumerate() {
            if x != y {
                // Full Delivery debug on both sides: the divergence can be in
                // the delivery metadata, the header, or the block summary.
                return Err(format!("node {node} diverges at block {i}: {x:?} vs {y:?}"));
            }
        }
        compared += common;
    }
    Ok(compared)
}

/// Applies an injected disk fault to a (closed) node store directory, best
/// effort: a missing directory or empty log simply leaves nothing to
/// corrupt, which the recovery path treats as a fresh store anyway.
fn apply_disk_fault(dir: &Path, fault: DiskFault) {
    match fault {
        DiskFault::TornWrite { cut } => {
            let _ = fireledger_store::inject::torn_write(dir, cut);
        }
        DiskFault::CorruptTail => {
            let _ = fireledger_store::inject::corrupt_tail(dir);
        }
        DiskFault::DiskFull { after_bytes } => {
            let _ = fireledger_store::inject::set_disk_full(dir, after_bytes);
        }
    }
}

/// The fault plan's kill-restart schedule as `(restart_at, node, disk_fault)`
/// triples in time order — kills with no restart never rebuild and need no
/// driving beyond the adversary's traffic suppression.
fn restart_schedule(scenario: &Scenario) -> Vec<(Duration, NodeId, Option<DiskFault>)> {
    let mut restarts: Vec<(Duration, NodeId, Option<DiskFault>)> = scenario
        .faults
        .iter()
        .flat_map(|plan| &plan.kill_faults)
        .filter_map(|kf| kf.restart_at.map(|at| (at, kf.node, kf.disk_fault)))
        .collect();
    restarts.sort_by_key(|(at, node, _)| (*at, node.0));
    restarts
}

/// The rebuild hook a real-time cluster installs: the builder's rebuilder,
/// additionally putting a rebuilt late-join node into state-sync mode so it
/// range-fetches the prefix it missed instead of rejoining blind. (A node
/// rebuilt from a durable store already starts syncing; this covers the
/// volatile late joiner, which has nothing on disk either.)
fn realtime_rebuilder<P: ClusterProtocol>(
    cluster: &ClusterBuilder<P>,
) -> std::sync::Arc<dyn Fn(NodeId) -> P + Send + Sync> {
    let inner = cluster.rebuilder();
    match cluster.late_join() {
        None => inner,
        Some((late, _)) => std::sync::Arc::new(move |me: NodeId| {
            let mut node = inner(me);
            if me == late {
                node.begin_state_sync();
            }
            node
        }),
    }
}

/// The nodes to spawn dormant (late join) on a real-time runtime.
fn dormant_nodes<P: ClusterProtocol>(cluster: &ClusterBuilder<P>) -> Vec<NodeId> {
    cluster
        .late_join()
        .map(|(node, _)| node)
        .into_iter()
        .collect()
}

/// Spawns `nodes` on the socket mesh with the builder's rebuild hook and
/// dormant late joiner.
fn spawn_realtime<P: ClusterProtocol>(
    cluster: &ClusterBuilder<P>,
    nodes: Vec<P>,
    faults: Option<FaultPlan>,
) -> Result<RealtimeCluster<P::Msg>> {
    let rebuild = Some(realtime_rebuilder(cluster));
    let dormant = dormant_nodes(cluster);
    RealtimeCluster::spawn_engine(nodes, faults, None, rebuild, &dormant, cluster.tcp_engine())
        .map_err(|e| Error::Io(format!("tcp mesh setup: {e}")))
}

/// Per-node counters plus the delivery-timeline (stall/recovery) metrics.
/// `times_secs[i]` holds node `i`'s delivery offsets in seconds, in
/// delivery order; an empty slice leaves that node's timeline fields zero.
fn delivery_counters(deliveries: &[Vec<Delivery>], times_secs: &[Vec<f64>]) -> Vec<NodeDeliveries> {
    deliveries
        .iter()
        .enumerate()
        .map(|(i, ds)| {
            NodeDeliveries {
                node: i as u32,
                blocks: ds.len() as u64,
                txs: ds.iter().map(|d| d.block.len() as u64).sum(),
                ..Default::default()
            }
            .timeline_from(times_secs.get(i).map(|t| t.as_slice()).unwrap_or(&[]))
        })
        .collect()
}

/// The report's `execution` section: the engine counters of the measured
/// nodes' shards, summed, with the applied-transition rate averaged across
/// the measured nodes the same way as `tps`. Every shard is drained first
/// (`ExecShared::finish`), so stage-thread lag at shutdown never
/// under-reports a run. All-zero, `enabled: false` when the cluster ran
/// without [`ClusterBuilder::with_execution`].
fn execution_section<P: ClusterProtocol>(
    cluster: &ClusterBuilder<P>,
    measured: &[NodeId],
    window_secs: f64,
) -> ExecutionReport {
    let Some(shards) = cluster.exec_shards() else {
        return ExecutionReport::default();
    };
    let mut section = ExecutionReport {
        enabled: true,
        ..Default::default()
    };
    for (i, node_shards) in shards.iter().enumerate() {
        let counted = measured.contains(&NodeId(i as u32));
        for shard in node_shards {
            shard.finish();
            if !counted {
                continue;
            }
            let s = shard.stats();
            section.executed_blocks += s.executed_blocks;
            section.executed_txs += s.executed_txs;
            section.applied_transitions += s.applied_transitions();
            for (dst, src) in section.receipts.iter_mut().zip(s.receipts) {
                *dst += src;
            }
            section.root_checks += s.root_checks;
            section.root_mismatches += s.root_mismatches;
            section.resets += s.resets;
        }
    }
    let k = measured.len().max(1) as f64;
    section.transitions_per_sec = section.applied_transitions as f64 / k / window_secs.max(1e-9);
    section
}

/// The deterministic discrete-event runtime.
#[derive(Clone, Copy, Debug, Default)]
pub struct Simulator;

impl Runtime for Simulator {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run_full<P: ClusterProtocol>(
        &self,
        cluster: &ClusterBuilder<P>,
        scenario: &Scenario,
    ) -> Result<(RunReport, Vec<Vec<Delivery>>)> {
        validate_fault_budget(cluster, scenario)?;
        let nodes = cluster.build()?;
        let n = nodes.len();
        // The scenario's crash events and builder crash roles always apply;
        // a fault plan layers the full drop/delay/reorder/duplicate +
        // partition + crash-recover adversity on top through the same hook.
        let crashes = scenario.crash_schedule(&cluster.crash_times());
        let mut adversary: Box<dyn Adversary<P::Msg>> = match scenario.faults.clone() {
            Some(plan) => Box::new(PlanAdversary::new(plan, crashes)),
            None => Box::new(crashes),
        };
        // A late-join node is gated off the network (and reported crashed)
        // until the driver flips the join flag at its join round.
        let mut join_flag = None;
        if let Some((node, _)) = cluster.late_join() {
            let gated = LateJoinAdversary::new(adversary, node);
            join_flag = Some(gated.handle());
            adversary = Box::new(gated);
        }
        let mut sim = Simulation::with_adversary(scenario.sim_config(), nodes, adversary);
        for (at, node, tx) in scenario.injection_schedule(n) {
            sim.inject_transaction_at(node, tx, at);
        }
        sim.metrics_mut()
            .set_window_start(SimTime::ZERO + scenario.warmup);
        // A late join segments the drive first: run in short slices until a
        // reference node has delivered the join round, then flip the gated
        // node onto the network and rebuild it fresh in state-sync mode —
        // it starts at the join point with nothing and must range-fetch the
        // whole prefix through the block-fetch sub-protocol.
        if let Some((node, at_round)) = cluster.late_join() {
            let reference = measured_nodes(cluster, scenario)
                .into_iter()
                .next()
                .or_else(|| (0..n as u32).map(NodeId).find(|id| *id != node))
                .expect("a late join needs at least one other node");
            let slice = Duration::from_millis(10);
            let mut now = Duration::ZERO;
            while now < scenario.duration && (sim.deliveries(reference).len() as u64) < at_round {
                now = (now + slice).min(scenario.duration);
                sim.run_until(SimTime::ZERO + now);
            }
            join_flag
                .expect("late join implies a gated adversary")
                .store(true, std::sync::atomic::Ordering::SeqCst);
            let rebuild = cluster.rebuilder();
            sim.restart_node(node, move |old| {
                drop(old);
                let mut fresh = rebuild(node);
                fresh.begin_state_sync();
                fresh
            });
        }
        // Kill-restart faults segment the drive: the adversary already
        // suppresses the killed node's traffic inside its down window, so
        // the kill itself needs no driving — but at each restart point the
        // node's state machine must be torn down and rebuilt from its store
        // (total amnesia without one), which only the driver can do.
        let restarts = restart_schedule(scenario);
        let ingress_report = if let Some(load) = &scenario.ingress {
            if cluster.late_join().is_some() {
                return Err(Error::Config(
                    "an ingress load cannot be combined with a late join (both slice the drive)"
                        .into(),
                ));
            }
            // Ingress slices the whole drive: each 2 ms slice serves the
            // client fleet against the per-node gates (virtual time, fully
            // deterministic), injects what was admitted, advances simulated
            // time, then feeds newly delivered blocks back into the gates'
            // and the fleet's commit accounting.
            let slice = Duration::from_millis(2);
            let gates = ClusterIngress::new(n, load.admission.clone());
            let deadline = scenario.duration.saturating_sub(load.drain).as_nanos() as u64;
            let mut fleet = ClientFleet::new(load, n, scenario.seed, deadline);
            let windows = planned_down_windows(scenario, INGRESS_GUARD);
            let mut cursors = vec![0usize; n];
            let rebuild = cluster.rebuilder();
            let mut restarts = restarts.into_iter().peekable();
            let mut now = Duration::ZERO;
            while now < scenario.duration {
                let now_nanos = now.as_nanos() as u64;
                for node in 0..n {
                    gates.set_availability(
                        node,
                        if planned_down(&windows, node, now_nanos) {
                            Availability::Down
                        } else {
                            Availability::Up
                        },
                    );
                }
                while restarts.peek().is_some_and(|(at, _, _)| *at <= now) {
                    let (_, node, fault) = restarts.next().expect("peeked");
                    let dir = cluster.node_store_dir(node);
                    let rebuild = &rebuild;
                    sim.restart_node(node, move |old| {
                        drop(old);
                        if let (Some(dir), Some(fault)) = (dir.as_deref(), fault) {
                            apply_disk_fault(dir, fault);
                        }
                        rebuild(node)
                    });
                }
                let mut port = |node: usize, msg: &fireledger_types::rpc::RpcMsg| {
                    let (reply, tx) = gates.handle_at(node, msg, now_nanos);
                    if let Some(tx) = tx {
                        sim.inject_transaction_at(NodeId(node as u32), tx, SimTime::ZERO + now);
                    }
                    Some(reply)
                };
                fleet.poll(now_nanos, &mut port);
                now = (now + slice).min(scenario.duration);
                sim.run_until(SimTime::ZERO + now);
                let end_nanos = now.as_nanos() as u64;
                for (i, cursor) in cursors.iter_mut().enumerate() {
                    let ds = sim.deliveries(NodeId(i as u32));
                    for d in &ds[*cursor..] {
                        gates.gates()[i].note_commit(d.round, d.block.txs.iter());
                        fleet.note_commits(end_nanos, d.block.txs.iter());
                    }
                    *cursor = ds.len();
                }
            }
            Some(fleet.finish())
        } else if restarts.is_empty() {
            // Absolute deadline, not run_for: a late join may already have
            // consumed part of the run in slices above.
            sim.run_until(SimTime::ZERO + scenario.duration);
            None
        } else {
            let rebuild = cluster.rebuilder();
            for (at, node, fault) in restarts {
                if at >= scenario.duration {
                    break;
                }
                sim.run_until(SimTime::ZERO + at);
                let dir = cluster.node_store_dir(node);
                let rebuild = &rebuild;
                sim.restart_node(node, move |old| {
                    // Drop the old state machine first: that closes its
                    // store, so the disk fault hits settled files and the
                    // reopen below sees a consistent (if corrupted)
                    // directory.
                    drop(old);
                    if let (Some(dir), Some(fault)) = (dir.as_deref(), fault) {
                        apply_disk_fault(dir, fault);
                    }
                    rebuild(node)
                });
            }
            sim.run_until(SimTime::ZERO + scenario.duration);
            None
        };

        let measured = measured_nodes(cluster, scenario);
        let summary = sim.summary_for(&measured);
        let deliveries: Vec<Vec<Delivery>> = (0..n)
            .map(|i| sim.deliveries(NodeId(i as u32)).to_vec())
            .collect();
        let times_secs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                sim.delivery_times(NodeId(i as u32))
                    .iter()
                    .map(|t| t.as_secs_f64())
                    .collect()
            })
            .collect();
        let report = RunReport {
            protocol: P::NAME.to_string(),
            scenario: scenario.name.clone(),
            runtime: self.name().to_string(),
            fault_plan: scenario.fault_plan_name(),
            durability: cluster.durability_label(),
            n,
            workers: cluster.params().workers,
            // The simulator is single-threaded by construction; 0 means
            // "not measured" rather than "ran on zero threads".
            threads: 0,
            duration_secs: summary.duration_secs,
            tps: summary.tps,
            bps: summary.bps,
            avg_latency_secs: summary.avg_latency_secs,
            p50_latency_secs: summary.p50_latency_secs,
            p95_latency_secs: summary.p95_latency_secs,
            p99_latency_secs: summary.p99_latency_secs,
            recoveries_per_sec: summary.recoveries_per_sec,
            fallbacks: summary.fallbacks,
            msgs_sent: summary.msgs_sent,
            bytes_sent: summary.bytes_sent,
            signatures: summary.signatures,
            verifications: summary.verifications,
            latency_cdf: sim.metrics().latency_cdf(20),
            phase_breakdown: sim.metrics().phase_breakdown(),
            per_node: delivery_counters(&deliveries, &times_secs),
            ingress: ingress_report.unwrap_or_default(),
            execution: execution_section(cluster, &measured, summary.duration_secs),
        };
        Ok((report, deliveries))
    }
}

enum TimelineEvent {
    Crash(NodeId),
    Pause(NodeId),
    Resume(NodeId),
    Kill(NodeId),
    Restart(NodeId, Option<DiskFault>),
    Inject(NodeId, Transaction),
}

/// Drives an already-spawned real-time cluster through the scenario's
/// timeline (crashes, crash-recover pauses and injections at wall-clock
/// offsets), honours the warm-up window, and assembles the report. Link
/// faults and partitions are *not* driven from
/// here: they were compiled into the cluster's link shim at spawn time; this
/// timeline carries only the node-level events.
fn drive_realtime<P: ClusterProtocol>(
    running: RealtimeCluster<P::Msg>,
    cluster: &ClusterBuilder<P>,
    scenario: &Scenario,
    runtime_name: &str,
    ingress: Option<std::sync::Arc<ClusterIngress>>,
) -> (RunReport, Vec<Vec<Delivery>>) {
    // Sleeping towards a deadline is replaced by short stepped waits when
    // an ingress fleet rides the run: each ~2 ms step serves due clients
    // and feeds observed deliveries back into the commit accounting.
    fn wait_stepping<M: Send + Sync + 'static>(
        running: &RealtimeCluster<M>,
        start: Instant,
        target: Duration,
        drive: &mut Option<IngressDrive>,
    ) {
        if drive.is_none() {
            let now = start.elapsed();
            if target > now {
                std::thread::sleep(target - now);
            }
            return;
        }
        loop {
            let now = start.elapsed();
            if let Some(d) = drive.as_mut() {
                d.step(running, now);
            }
            if now >= target {
                return;
            }
            std::thread::sleep((target - now).min(Duration::from_millis(2)));
        }
    }

    let n = cluster.params().n();
    let mut timeline: Vec<(Duration, TimelineEvent)> = Vec::new();
    for fault in &scenario.crashes {
        timeline.push((fault.at, TimelineEvent::Crash(fault.node)));
    }
    for (node, at) in cluster.crash_times() {
        timeline.push((at, TimelineEvent::Crash(node)));
    }
    if let Some(plan) = &scenario.faults {
        for nf in &plan.node_faults {
            match nf.recover_at {
                // A crash-recover fault pauses (state kept) and resumes;
                // a plain plan crash is as permanent as a scenario crash.
                Some(recover) => {
                    timeline.push((nf.crash_at, TimelineEvent::Pause(nf.node)));
                    timeline.push((recover, TimelineEvent::Resume(nf.node)));
                }
                None => timeline.push((nf.crash_at, TimelineEvent::Crash(nf.node))),
            }
        }
        // Kill-restart faults: the kill destroys the node's protocol state
        // (its store closes with it); the restart optionally injects a disk
        // fault into the settled store directory, then rebuilds the node
        // from whatever the disk can prove.
        for kf in &plan.kill_faults {
            timeline.push((kf.kill_at, TimelineEvent::Kill(kf.node)));
            if let Some(at) = kf.restart_at {
                timeline.push((at, TimelineEvent::Restart(kf.node, kf.disk_fault)));
            }
        }
    }
    for (at, node, tx) in scenario.injection_schedule(n) {
        timeline.push((at.as_duration(), TimelineEvent::Inject(node, tx)));
    }
    timeline.sort_by_key(|(at, _)| *at);

    // A warm-up as long as the run would leave an empty measurement
    // window; fall back to measuring the whole run.
    let warmup = if scenario.warmup < scenario.duration {
        scenario.warmup
    } else {
        Duration::ZERO
    };
    let snapshot = |running: &RealtimeCluster<P::Msg>| -> Vec<(u64, u64)> {
        (0..n)
            .map(|i| {
                let ds = running.deliveries(NodeId(i as u32));
                (
                    ds.len() as u64,
                    ds.iter().map(|d| d.block.len() as u64).sum(),
                )
            })
            .collect()
    };

    let start = Instant::now();
    // The cluster's own clock origin: delivery timestamps are offsets from
    // it, so submit stamps must be taken against the *same* instant —
    // measuring them from `start` would inflate every latency by the
    // spawn→drive gap (mesh dialing, stage-thread spawning).
    let cluster_start = running.start();
    let mut ingress_drive = match (&scenario.ingress, ingress) {
        (Some(load), Some(ci)) => Some(IngressDrive::new(
            ci,
            load,
            n,
            scenario.seed,
            scenario.duration,
            planned_down_windows(scenario, INGRESS_GUARD),
        )),
        _ => None,
    };
    // A late join is driven by delivery progress, not time: poll a
    // reference node until it has delivered the join round, then restart
    // the dormant node — the rebuild hook brings it up in state-sync mode
    // and it range-fetches the prefix it missed. Timeline events keep
    // their absolute offsets; any whose offset passes during the wait fire
    // immediately after it.
    if let Some((node, at_round)) = cluster.late_join() {
        let reference = measured_nodes(cluster, scenario)
            .into_iter()
            .next()
            .or_else(|| (0..n as u32).map(NodeId).find(|id| *id != node))
            .expect("a late join needs at least one other node");
        while start.elapsed() < scenario.duration
            && (running.deliveries(reference).len() as u64) < at_round
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        running.restart(node);
    }
    let mut warmup_counts: Option<Vec<(u64, u64)>> = None;
    let mut warmup_at = Duration::ZERO;
    // Submit-time stamps of every injected transaction, keyed by identity:
    // matching them against delivery timestamps below yields real
    // submit→commit latency percentiles for the real-time runtimes.
    let mut submit_times: HashMap<(u64, u64), f64> = HashMap::new();
    for (at, event) in timeline {
        if at >= scenario.duration {
            break;
        }
        // Snapshot delivery counters at the warm-up boundary, before any
        // event scheduled after it is applied.
        if warmup_counts.is_none() && at >= warmup {
            wait_stepping(&running, start, warmup, &mut ingress_drive);
            warmup_at = start.elapsed();
            warmup_counts = Some(snapshot(&running));
        }
        wait_stepping(&running, start, at, &mut ingress_drive);
        match event {
            TimelineEvent::Crash(node) => running.crash(node),
            TimelineEvent::Pause(node) => running.pause(node),
            TimelineEvent::Resume(node) => running.resume(node),
            TimelineEvent::Kill(node) => running.kill(node),
            TimelineEvent::Restart(node, fault) => {
                if let (Some(dir), Some(fault)) = (cluster.node_store_dir(node), fault) {
                    apply_disk_fault(&dir, fault);
                }
                running.restart(node);
            }
            TimelineEvent::Inject(node, tx) => {
                submit_times.insert(tx.id(), cluster_start.elapsed().as_secs_f64());
                running.submit(node, tx);
            }
        }
    }
    if warmup_counts.is_none() {
        wait_stepping(&running, start, warmup, &mut ingress_drive);
        warmup_at = start.elapsed();
        warmup_counts = Some(snapshot(&running));
    }
    wait_stepping(&running, start, scenario.duration, &mut ingress_drive);
    // Quiesce: work the gates accepted near the drain deadline may still be
    // committing; give it a bounded grace before declaring it lost.
    if let Some(d) = ingress_drive.as_mut() {
        let grace_deadline = scenario.duration + INGRESS_QUIESCE_GRACE;
        while d.outstanding() > 0 && start.elapsed() < grace_deadline {
            std::thread::sleep(Duration::from_millis(2));
            d.step(&running, start.elapsed());
        }
    }
    // Snapshot the delivery timeline just before shutdown (the cluster's
    // clock dies with it). A delivery racing this snapshot at most loses
    // its timestamp, never its count.
    let times_secs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            running
                .delivery_times(NodeId(i as u32))
                .iter()
                .map(|t| t.as_secs_f64())
                .collect()
        })
        .collect();
    let threads = running.thread_count();
    let deliveries = running.shutdown();
    let elapsed = start.elapsed();
    let window_secs = (elapsed - warmup_at).as_secs_f64().max(1e-9);
    // Close the commit-observation race: a block delivered between the last
    // ingress step and the shutdown snapshot is only in `deliveries`.
    let ingress_report = ingress_drive
        .map(|d| d.finish(&deliveries, elapsed.as_nanos() as u64))
        .unwrap_or_default();

    let per_node = delivery_counters(&deliveries, &times_secs);
    let at_warmup = warmup_counts.unwrap_or_else(|| vec![(0, 0); n]);
    let measured = measured_nodes(cluster, scenario);
    let k = measured.len().max(1) as f64;
    let (blocks, txs) = measured.iter().fold((0u64, 0u64), |(b, t), id| {
        let d = &per_node[id.as_usize()];
        let (wb, wt) = at_warmup[id.as_usize()];
        (
            b + d.blocks.saturating_sub(wb),
            t + d.txs.saturating_sub(wt),
        )
    });

    // Submit→commit latency over the injected transactions: for each
    // measured node, an injected transaction's latency is the wall-clock
    // offset of the delivery containing it minus its submit offset. Empty
    // (fields stay zero) under a purely saturated workload, where there is
    // nothing with a submit time to measure.
    let mut samples: Vec<f64> = Vec::new();
    if !submit_times.is_empty() {
        for id in &measured {
            let node = id.as_usize();
            for (delivery, at) in deliveries[node].iter().zip(&times_secs[node]) {
                for tx in &delivery.block.txs {
                    if let Some(submitted) = submit_times.get(&tx.id()) {
                        samples.push((at - submitted).max(0.0));
                    }
                }
            }
        }
        samples.sort_by(f64::total_cmp);
    }
    let percentile = |pct: f64| -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let rank = ((pct / 100.0) * samples.len() as f64).ceil() as usize;
        samples[rank.clamp(1, samples.len()) - 1]
    };
    let latency_cdf: Vec<(f64, f64)> = if samples.is_empty() {
        Vec::new()
    } else {
        let points = 20usize.min(samples.len());
        (1..=points)
            .map(|i| {
                let frac = i as f64 / points as f64;
                (percentile(frac * 100.0), frac)
            })
            .collect()
    };

    let report = RunReport {
        protocol: P::NAME.to_string(),
        scenario: scenario.name.clone(),
        runtime: runtime_name.to_string(),
        fault_plan: scenario.fault_plan_name(),
        durability: cluster.durability_label(),
        n,
        workers: cluster.params().workers,
        threads,
        duration_secs: window_secs,
        tps: txs as f64 / k / window_secs,
        bps: blocks as f64 / k / window_secs,
        avg_latency_secs: if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        },
        p50_latency_secs: percentile(50.0),
        p95_latency_secs: percentile(95.0),
        p99_latency_secs: percentile(99.0),
        latency_cdf,
        per_node,
        ingress: ingress_report,
        execution: execution_section(cluster, &measured, window_secs),
        ..Default::default()
    };
    (report, deliveries)
}

/// The per-node ingress gate assembly for a real-time run, or `None` when
/// the scenario carries no ingress load.
fn realtime_ingress(scenario: &Scenario, n: usize) -> Option<std::sync::Arc<ClusterIngress>> {
    scenario
        .ingress
        .as_ref()
        .map(|load| std::sync::Arc::new(ClusterIngress::new(n, load.admission.clone())))
}

/// The body of [`Tcp`]: builds the cluster, spawns it on the socket mesh,
/// serves the scenario's ingress, and drives it to completion.
fn run_realtime<P: ClusterProtocol>(
    cluster: &ClusterBuilder<P>,
    scenario: &Scenario,
    runtime_name: &str,
) -> Result<(RunReport, Vec<Vec<Delivery>>)> {
    validate_fault_budget(cluster, scenario)?;
    let nodes = cluster.build()?;
    // With execution enabled, every shard gets a dedicated stage thread so
    // delivered blocks are executed off the consensus loops. Held until the
    // run is over (drained and joined on drop).
    let _exec_stages = cluster.spawn_exec_stages();
    let mut running = spawn_realtime(cluster, nodes, scenario.faults.clone())?;
    let ingress = realtime_ingress(scenario, cluster.params().n());
    if let Some(ci) = &ingress {
        running
            .serve_rpc(ci.clone())
            .map_err(|e| Error::Io(format!("rpc listeners: {e}")))?;
    }
    Ok(drive_realtime(
        running,
        cluster,
        scenario,
        runtime_name,
        ingress,
    ))
}

/// The real-time runtime: one OS thread per node on a real localhost
/// socket mesh.
///
/// The scenario's duration is wall-clock time here: a 2-second scenario takes
/// 2 real seconds. The warm-up window is honoured the same way as on the
/// simulator: deliveries are snapshotted once the warm-up elapses, and rates
/// cover only the measurement window. Latency fields are real wall-clock
/// submit→commit measurements over the scenario's *injected* transactions
/// (each submit is stamped, and matched against the delivery timestamps of
/// the blocks that include it); under a purely saturated workload there is
/// nothing with a submit time and they stay zero. Message counters and the
/// lifecycle breakdown are not instrumented on this runtime (protocols pay
/// real CPU instead of reporting observations), so those report fields are
/// zero — the schema is unchanged.
///
/// Every message is encoded through its `WireCodec` layout, framed per
/// `docs/WIRE_FORMAT.md`, written to a real `TcpStream`, and decoded on the
/// receiving node — so a run on this runtime validates the entire wire
/// format under protocol load, not just the protocol logic. Socket setup
/// failures surface as [`Error::Io`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Tcp;

impl Runtime for Tcp {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn run_full<P: ClusterProtocol>(
        &self,
        cluster: &ClusterBuilder<P>,
        scenario: &Scenario,
    ) -> Result<(RunReport, Vec<Vec<Delivery>>)> {
        run_realtime(cluster, scenario, self.name())
    }
}
