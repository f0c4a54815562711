//! One measured segment: a fresh FLO cluster on the `Tcp` runtime under
//! open-loop client load, measured from outside, then checked.
//!
//! Timeline of a segment (`t` = seconds of load):
//!
//! ```text
//!  build + spawn + listeners + first delivery | load ............................ | grace | shutdown, match, gate
//!  `-------------- setup_s ------------------'  0    ramp                      L
//!                                                    `------- window ---------'
//! ```
//!
//! Nothing is polled while the load runs: the generator thread sends on its
//! schedule, the main thread sleeps to the window boundaries (reading `/proc`
//! at each), and submissions are matched against the cluster's own
//! `delivery_times` stamps after `shutdown()`.

use crate::load::{self, Outcome, Submission};
use crate::procfs::{self, ProcSample};
use crate::stats::percentile_with_failures;
use crate::workload::Workload;
use fireledger::{AdmissionConfig, FloMsg};
use fireledger_exec::{ExecShared, ExecStage};
use fireledger_net::{RpcClient, TcpCluster};
use fireledger_runtime::{ClusterBuilder, ClusterIngress, FloCluster};
use fireledger_types::{Delivery, Hash, NodeId};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Admission capacity of every gate. The gates free capacity only when a
/// driver feeds commits back through `IngressGate::note_commit`, and the
/// only public way to learn commits mid-run is cloning a node's whole
/// delivery log — which is what made the in-repo fleet miss its schedule.
/// So nothing is fed back and the cap is sized to hold a whole segment's
/// submissions: admission (dedup, lanes, counters) runs, shedding never does.
const ADMISSION_CAPACITY: usize = 65_536;

/// How long a segment's cluster may take to deliver its first block.
const FIRST_DELIVERY_TIMEOUT: Duration = Duration::from_secs(20);

/// The lengths of one segment's phases.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plan {
    /// Load before the window opens: excluded from every metric.
    pub ramp: Duration,
    /// The measured window.
    pub window: Duration,
    /// How long after the last due time a submission may still commit.
    pub grace: Duration,
    /// Offset into the load at which `crash-n4` crashes its node; the
    /// `service_gap_ms` interval of every workload opens at the same instant.
    pub crash_at: Duration,
}

impl Plan {
    /// Length of the load: ramp plus window.
    pub fn load(&self) -> Duration {
        self.ramp + self.window
    }
}

/// Everything one segment measured.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    pub setup_s: f64,
    /// Transactions (blocks) delivered inside the window per second, mean
    /// over correct nodes.
    pub tps: f64,
    pub bps: f64,
    /// Submissions due inside the window.
    pub due: usize,
    /// … of which refused on every attempt, errored, or not committed by the
    /// end of the grace period.
    pub failed: usize,
    /// … of which refused on every attempt.
    pub refused: usize,
    /// Due → delivery at the acking node, ascending, committed ones only.
    pub latency_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    pub rtt_us: Vec<f64>,
    /// Longest no-delivery interval at a correct node inside the window.
    pub max_gap_ms: f64,
    /// The same, from the plan's crash instant to the end of the window.
    pub service_gap_ms: f64,
    pub threads: f64,
    /// Process CPU seconds per wall second inside the window.
    pub cpu_cores_busy: f64,
    pub cpu_us_per_tx: f64,
    pub cpu_us_per_block: f64,
    pub ctx_switches_per_block: f64,
    pub rss_bytes_per_tx: f64,
    pub disk_bytes_per_tx: f64,
    /// Applied transitions per second inside the window, mean over nodes.
    pub exec_tps: f64,
    /// Applied ÷ executed transactions over the whole segment.
    pub exec_applied_share: f64,
}

impl Measured {
    /// Latency percentile in ms; a failed submission misses every
    /// percentile. `None` when no submission was due.
    pub fn latency_percentile(&self, pct: f64) -> Option<f64> {
        percentile_with_failures(&self.latency_ms, self.failed, pct)
    }
}

/// Longest interval inside `[from, to]` without an entry of `times`
/// (ascending), in the unit of the inputs.
pub fn longest_gap(times: &[f64], from: f64, to: f64) -> f64 {
    let mut last = from;
    let mut longest: f64 = 0.0;
    for &t in times.iter().filter(|t| (from..=to).contains(*t)) {
        longest = longest.max(t - last);
        last = t;
    }
    longest.max(to - last)
}

/// Matches submissions against their acking node's ledger: the latency (ms,
/// due → delivery stamp) of each committed one, `None` for the rest.
/// `commit_times[node]` maps a transaction id to the stamp (seconds from
/// the cluster's start) of the block that delivered it.
pub fn match_latencies(
    subs: &[Submission],
    outcomes: &[Outcome],
    load_start_secs: f64,
    commit_times: &[HashMap<(u64, u64), f64>],
) -> Vec<Option<f64>> {
    subs.iter()
        .zip(outcomes)
        .map(|(sub, outcome)| {
            let node = outcome.acked_by?;
            let at = commit_times[node].get(&(sub.client, sub.seq))?;
            let due = load_start_secs + sub.due.as_secs_f64();
            Some(((at - due) * 1e3).max(0.0))
        })
        .collect()
}

/// Bytes under `dir`, recursively.
fn dir_size(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_size(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Checks that the `correct` nodes' ledgers are prefix-identical.
fn check_prefixes(deliveries: &[Vec<Delivery>], correct: &[usize]) -> Result<(), String> {
    let reference = correct[0];
    for &node in &correct[1..] {
        let (a, b) = (&deliveries[reference], &deliveries[node]);
        if let Some(i) = a.iter().zip(b).position(|(x, y)| x != y) {
            return Err(format!(
                "node {node} diverges from node {reference} at block {i}: {:?} vs {:?}",
                b[i].block.header, a[i].block.header
            ));
        }
        if a.is_empty() || b.is_empty() {
            return Err(format!("node {node} or node {reference} delivered nothing"));
        }
    }
    Ok(())
}

/// The execution half of the gate: no root mismatch on any correct node's
/// shard, and for every worker stream the same state root on every node
/// after the longest prefix all of them executed. Returns applied ÷ executed
/// transactions over the segment.
fn check_execution(
    all: &[Vec<ExecShared>],
    correct: &[usize],
    workers: usize,
) -> Result<f64, String> {
    let (mut executed, mut applied) = (0u64, 0u64);
    let shards_of =
        |worker: usize| -> Vec<_> { correct.iter().map(|&i| &all[i][worker]).collect() };
    for worker in 0..workers {
        let shards = shards_of(worker);
        for shard in &shards {
            // Drain what the stage thread had not reached at shutdown.
            shard.finish();
        }
        let stats: Vec<_> = shards.iter().map(|s| s.stats()).collect();
        for (s, &node) in stats.iter().zip(correct) {
            if s.root_mismatches > 0 {
                return Err(format!(
                    "node {node} worker {worker}: {} execution root mismatches",
                    s.root_mismatches
                ));
            }
            executed += s.executed_txs;
            applied += s.applied_transitions();
        }
        // `None` (someone executed nothing) compares the genesis roots.
        let common = stats.iter().map(|s| s.last_round).min().flatten();
        let roots: Vec<Option<Hash>> = shards.iter().map(|s| s.prefix_root(common)).collect();
        if let Some(i) = roots.iter().position(|r| r.is_none() || *r != roots[0]) {
            return Err(format!(
                "node {} worker {worker}: state root after round {common:?} is {:?}, node {} has {:?}",
                correct[i], roots[i], correct[0], roots[0]
            ));
        }
    }
    Ok(applied as f64 / executed.max(1) as f64)
}

/// A cluster that has delivered its first block, with its clients connected.
struct SetUp {
    builder: ClusterBuilder<FloCluster>,
    cluster: TcpCluster<FloMsg>,
    /// Joined on drop, after the cluster they serve has shut down.
    exec_stages: Vec<ExecStage>,
    clients: Vec<RpcClient>,
    /// Wall time from the first line of [`set_up`] to the first delivery.
    setup_s: f64,
}

/// Set-up, timed: build the nodes (keys, stores, execution genesis), dial
/// the socket mesh, start the client listeners, connect the clients, and
/// wait for node 0's first delivery.
fn set_up(workload: &Workload, seed: u64, conns: usize, store_dir: &Path) -> Result<SetUp, String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let started = Instant::now();
    let builder = workload.socket_builder(seed, store_dir);
    let nodes = builder.build().map_err(|e| format!("build: {e}"))?;
    let exec_stages = builder.spawn_exec_stages();
    let mut cluster = TcpCluster::spawn_engine(nodes, None, None, None, &[], builder.tcp_engine())
        .map_err(|e| io("tcp mesh", e))?;
    let ingress = Arc::new(ClusterIngress::new(
        workload.n,
        AdmissionConfig {
            capacity: ADMISSION_CAPACITY,
            ..AdmissionConfig::default()
        },
    ));
    let addrs = cluster
        .serve_rpc(ingress)
        .map_err(|e| io("rpc listeners", e))?;
    let clients = addrs[..conns]
        .iter()
        .map(|addr| RpcClient::connect(*addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| io("client connect", e))?;
    while cluster.delivery_times(NodeId(0)).is_empty() {
        if started.elapsed() > FIRST_DELIVERY_TIMEOUT {
            cluster.shutdown();
            return Err("node 0 delivered nothing during set-up".into());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(SetUp {
        setup_s: started.elapsed().as_secs_f64(),
        builder,
        cluster,
        exec_stages,
        clients,
    })
}

/// Sets a cluster up, takes it straight down again, and returns the set-up
/// time: extra samples for `setup_s`, which a few milliseconds of scheduler
/// noise would otherwise dominate.
pub fn set_up_only(
    workload: &Workload,
    seed: u64,
    conns: usize,
    store_dir: &Path,
) -> Result<f64, String> {
    let SetUp {
        cluster,
        exec_stages,
        clients,
        setup_s,
        ..
    } = set_up(workload, seed, conns, store_dir)?;
    drop(clients);
    cluster.shutdown();
    drop(exec_stages);
    let _ = std::fs::remove_dir_all(store_dir);
    Ok(setup_s)
}

/// Runs one segment of `workload` and returns what it measured, or a
/// description of the correctness violation (naming the node).
pub fn run(
    workload: &Workload,
    seed: u64,
    plan: Plan,
    conns: usize,
    store_dir: &Path,
) -> Result<Measured, String> {
    let n = workload.n;
    let correct: Vec<usize> = (0..n)
        .filter(|i| workload.crash != Some(NodeId(*i as u32)))
        .collect();
    let subs = load::schedule(
        seed,
        workload.client_rate,
        plan.load(),
        conns,
        workload.client_payload(),
    );

    let SetUp {
        builder,
        cluster,
        exec_stages,
        mut clients,
        setup_s,
    } = set_up(workload, seed, conns, store_dir)?;

    // ---- load: the generator sends, this thread only keeps time ----
    let load_start = Instant::now();
    let load_start_secs = load_start.duration_since(cluster.start()).as_secs_f64();
    let sleep_until = |offset: Duration| {
        if let Some(wait) = (load_start + offset).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    };
    let exec_applied = || -> Vec<u64> {
        builder
            .exec_shards()
            .map(|all| {
                all.iter()
                    .map(|shards| shards.iter().map(|s| s.stats().applied_transitions()).sum())
                    .collect()
            })
            .unwrap_or_default()
    };
    let (outcomes, at_open, at_close, applied_open, applied_close) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| load::run(&mut clients, load_start, &subs));
        sleep_until(plan.ramp);
        let at_open = procfs::sample();
        let applied_open = exec_applied();
        if let Some(node) = workload.crash {
            sleep_until(plan.crash_at);
            cluster.crash(node);
        }
        sleep_until(plan.load());
        let at_close = procfs::sample();
        let applied_close = exec_applied();
        sleep_until(plan.load() + plan.grace);
        let outcomes = generator.join().expect("load generator panicked");
        (outcomes, at_open, at_close, applied_open, applied_close)
    });
    drop(clients);
    let times: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            cluster
                .delivery_times(NodeId(i as u32))
                .iter()
                .map(Duration::as_secs_f64)
                .collect()
        })
        .collect();
    let deliveries = cluster.shutdown();
    drop(exec_stages);

    // ---- the correctness gate ----
    check_prefixes(&deliveries, &correct)?;
    let client_lo = subs.first().map_or(u64::MAX, |s| s.client);
    let commit_times: Vec<HashMap<(u64, u64), f64>> = (0..conns)
        .map(|node| {
            deliveries[node]
                .iter()
                .zip(&times[node])
                .flat_map(|(d, at)| d.block.txs.iter().map(move |tx| (tx, *at)))
                .filter(|(tx, _)| (client_lo..client_lo + conns as u64).contains(&tx.client))
                .map(|(tx, at)| (tx.id(), at))
                .collect()
        })
        .collect();
    let latencies = match_latencies(&subs, &outcomes, load_start_secs, &commit_times);
    for ((sub, outcome), latency) in subs.iter().zip(&outcomes).zip(&latencies) {
        if let (Some(node), None) = (outcome.acked_by, latency) {
            return Err(format!(
                "accepted then lost: node {node} acked client {:#x} seq {} (due {:.3} s) and had not \
                 delivered it {:.1} s after the last submission",
                sub.client,
                sub.seq,
                sub.due.as_secs_f64(),
                plan.grace.as_secs_f64()
            ));
        }
    }
    let mut measured = Measured {
        setup_s,
        ..Measured::default()
    };
    if let Some(all) = builder.exec_shards() {
        measured.exec_applied_share = check_execution(all, &correct, workload.workers)?;
    }

    // ---- metrics ----
    let window_secs = plan.window.as_secs_f64();
    let open = load_start_secs + plan.ramp.as_secs_f64();
    let close = load_start_secs + plan.load().as_secs_f64();
    let k = correct.len() as f64;
    let (mut blocks, mut txs) = (0u64, 0u64);
    for &node in &correct {
        for (d, _) in deliveries[node]
            .iter()
            .zip(&times[node])
            .filter(|(_, at)| (open..close).contains(*at))
        {
            blocks += 1;
            txs += d.block.len() as u64;
        }
        measured.max_gap_ms = measured
            .max_gap_ms
            .max(longest_gap(&times[node], open, close) * 1e3);
        measured.service_gap_ms = measured.service_gap_ms.max(
            longest_gap(
                &times[node],
                load_start_secs + plan.crash_at.as_secs_f64(),
                close,
            ) * 1e3,
        );
    }
    let (blocks_per_node, txs_per_node) = (blocks as f64 / k, txs as f64 / k);
    measured.tps = txs_per_node / window_secs;
    measured.bps = blocks_per_node / window_secs;

    for ((sub, outcome), latency) in subs.iter().zip(&outcomes).zip(&latencies) {
        if sub.due < plan.ramp {
            continue;
        }
        measured.due += 1;
        measured
            .lateness_ms
            .push(outcome.lateness.as_secs_f64() * 1e3);
        measured.rtt_us.push(outcome.rtt.as_secs_f64() * 1e6);
        match latency {
            Some(ms) => measured.latency_ms.push(*ms),
            None => {
                measured.failed += 1;
                measured.refused += usize::from(outcome.acked_by.is_none());
            }
        }
    }
    for samples in [
        &mut measured.latency_ms,
        &mut measured.lateness_ms,
        &mut measured.rtt_us,
    ] {
        samples.sort_by(f64::total_cmp);
    }

    let ProcSample {
        cpu_us,
        rss_bytes,
        ctx_switches,
        ..
    } = at_close;
    let cpu_us = cpu_us - at_open.cpu_us;
    measured.threads = at_open.threads as f64;
    measured.cpu_cores_busy = cpu_us / (window_secs * 1e6);
    measured.cpu_us_per_tx = cpu_us / txs_per_node.max(1.0);
    measured.cpu_us_per_block = cpu_us / blocks_per_node.max(1.0);
    measured.ctx_switches_per_block =
        ctx_switches.saturating_sub(at_open.ctx_switches) as f64 / blocks_per_node.max(1.0);
    // Every node keeps its own copy of every transaction it delivers.
    measured.rss_bytes_per_tx =
        rss_bytes.saturating_sub(at_open.rss_bytes) as f64 / (txs as f64).max(1.0);
    let applied_in_window: u64 = correct
        .iter()
        .filter_map(|&i| Some(applied_close.get(i)? - applied_open.get(i)?))
        .sum();
    measured.exec_tps = applied_in_window as f64 / k / window_secs;
    if workload.pipeline {
        let delivered: u64 = deliveries
            .iter()
            .flatten()
            .map(|d| d.block.len() as u64)
            .sum();
        measured.disk_bytes_per_tx = dir_size(store_dir) as f64 / (delivered as f64).max(1.0);
        // The next segment starts from an empty disk.
        let _ = std::fs::remove_dir_all(store_dir);
    }
    Ok(measured)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_gap_includes_both_window_edges() {
        // Deliveries at 1.0, 1.1, 1.5 inside a [1.0, 2.0] window: the
        // longest silence is from 1.5 to the window's end.
        assert!((longest_gap(&[0.2, 1.0, 1.1, 1.5, 2.4], 1.0, 2.0) - 0.5).abs() < 1e-12);
        // Nothing delivered in the window at all.
        assert_eq!(longest_gap(&[0.5, 3.0], 1.0, 2.0), 1.0);
        // The first delivery is late.
        assert!((longest_gap(&[1.7, 1.8, 1.9, 2.0], 1.0, 2.0) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn latency_runs_from_due_time_and_unmatched_is_missing() {
        use std::time::Duration;
        let sub = |due_ms: u64, seq: u64| Submission {
            due: Duration::from_millis(due_ms),
            conn: 0,
            client: 9,
            seq,
            payload: Vec::new(),
        };
        let outcome = |acked_by| Outcome {
            // Sent 40 ms late: the latency must not shrink by that.
            lateness: Duration::from_millis(40),
            rtt: Duration::ZERO,
            acked_by,
        };
        let subs = [sub(100, 0), sub(200, 1), sub(300, 2)];
        let outcomes = [outcome(Some(0)), outcome(Some(0)), outcome(None)];
        // Load started 2 s into the cluster's clock; seq 0 was delivered at
        // 2.150 s, seq 1 never, seq 2 was refused (but is in the ledger of
        // another submission path — still counts as missing for this one).
        let commits = [HashMap::from([((9, 0), 2.150), ((9, 2), 2.4)])];
        let got = match_latencies(&subs, &outcomes, 2.0, &commits);
        assert!((got[0].unwrap() - 50.0).abs() < 1e-9);
        assert_eq!(got[1], None);
        assert_eq!(got[2], None);
    }
}
