//! The canonical fault-plan catalog.
//!
//! One constructor per named adversity shape of `docs/SCENARIOS.md` — the
//! normative catalog document quotes exactly these builders, and every
//! doctest below is the compile-checked form of the corresponding catalog
//! snippet. All of them return a plain [`FaultPlan`]; attach one to a
//! [`Scenario`](crate::Scenario) with
//! [`Scenario::with_faults`](crate::Scenario::with_faults) and it drives
//! the simulator and the TCP runtime identically.
//!
//! Byzantine behaviours (equivocating / silent proposers) are *roles*, not
//! plans — they change what a node says, not what the network does — and
//! are assigned through
//! [`ClusterBuilder::with_role`](crate::ClusterBuilder::with_role); the
//! catalog document covers them alongside the plans.

use fireledger_types::{FaultPlan, FaultWindow, LinkSelector, NodeId};
use std::time::Duration;

/// **lossy-link** — every link drops each message with probability `prob`
/// during `[from, until)`. FLO's pull machinery and β-fallback keep the
/// ledger live and identical across runtimes (timeout decisions converge on
/// the proposer's block whenever any quorum member holds its header).
///
/// ```
/// use fireledger_runtime::prelude::*;
/// use fireledger_runtime::catalog;
/// use std::time::Duration;
///
/// let plan = catalog::lossy_link(0.10, Duration::from_millis(100), Duration::from_millis(400));
/// let scenario = Scenario::new("lossy")
///     .ideal()
///     .run_for(Duration::from_millis(800))
///     .with_faults(plan);
/// let params = ProtocolParams::new(4).with_batch_size(8).with_tx_size(64);
/// let report = Simulator
///     .run(&ClusterBuilder::<FloCluster>::new(params), &scenario)
///     .unwrap();
/// assert_eq!(report.fault_plan, "lossy-link");
/// assert!(report.tps > 0.0, "the cluster must stay live through 10% loss");
/// ```
pub fn lossy_link(prob: f64, from: Duration, until: Duration) -> FaultPlan {
    FaultPlan::named("lossy-link").drop(LinkSelector::All, FaultWindow::between(from, until), prob)
}

/// **delay-reorder** — every message gets an extra uniform delay in
/// `[min, max]`, and a `reorder_prob` fraction is additionally released out
/// of FIFO order. With delays well under the protocol timeout this is
/// content-preserving adversity: the ledger stays byte-identical to the
/// fault-free run's prefix on every runtime.
///
/// ```
/// use fireledger_runtime::prelude::*;
/// use fireledger_runtime::catalog;
/// use std::time::Duration;
///
/// let plan = catalog::delay_reorder(Duration::from_millis(1), Duration::from_millis(4), 0.25);
/// let scenario = Scenario::new("jitter")
///     .ideal()
///     .run_for(Duration::from_millis(600))
///     .with_faults(plan);
/// let params = ProtocolParams::new(4).with_batch_size(8).with_tx_size(64);
/// let report = Simulator
///     .run(&ClusterBuilder::<FloCluster>::new(params), &scenario)
///     .unwrap();
/// assert!(report.tps > 0.0);
/// ```
pub fn delay_reorder(min: Duration, max: Duration, reorder_prob: f64) -> FaultPlan {
    FaultPlan::named("delay-reorder")
        .delay(LinkSelector::All, FaultWindow::ALWAYS, min, max)
        .reorder(
            LinkSelector::All,
            FaultWindow::ALWAYS,
            reorder_prob,
            min,
            max,
        )
}

/// **duplicate-flood** — each message is delivered twice with probability
/// `prob`, the copy lagging up to `max_lag`. Exercises every protocol's
/// idempotence (votes, echoes and consensus messages must all dedupe).
///
/// ```
/// use fireledger_runtime::prelude::*;
/// use fireledger_runtime::catalog;
/// use std::time::Duration;
///
/// let plan = catalog::duplicate_flood(0.5, Duration::from_millis(5));
/// let scenario = Scenario::new("dupes")
///     .ideal()
///     .run_for(Duration::from_millis(600))
///     .with_faults(plan);
/// let params = ProtocolParams::new(4).with_batch_size(8).with_tx_size(64);
/// let report = Simulator
///     .run(&ClusterBuilder::<FloCluster>::new(params), &scenario)
///     .unwrap();
/// assert!(report.tps > 0.0);
/// ```
pub fn duplicate_flood(prob: f64, max_lag: Duration) -> FaultPlan {
    FaultPlan::named("duplicate-flood").duplicate(
        LinkSelector::All,
        FaultWindow::ALWAYS,
        prob,
        Duration::ZERO,
        max_lag,
    )
}

/// **partition-heal** — the cluster splits into two halves (`0..⌈n/2⌉` vs
/// the rest) at `at` and heals at `heal`. With an even split neither side
/// holds a quorum, so FLO's commits stall for the whole window — visible as
/// `max_gap_secs` spanning the split in the run report — and resume after
/// the heal (`last_delivery_secs > heal`).
///
/// ```
/// use fireledger_runtime::prelude::*;
/// use fireledger_runtime::catalog;
/// use std::time::Duration;
///
/// let split = Duration::from_millis(300);
/// let heal = Duration::from_millis(700);
/// let plan = catalog::partition_heal(4, split, heal);
/// let scenario = Scenario::new("split-brain")
///     .ideal()
///     .run_for(Duration::from_millis(1500))
///     .with_faults(plan);
/// let params = ProtocolParams::new(4).with_batch_size(8).with_tx_size(64);
/// let report = Simulator
///     .run(&ClusterBuilder::<FloCluster>::new(params), &scenario)
///     .unwrap();
/// // Commit stall across the split, recovery after the heal.
/// assert!(report.per_node[0].max_gap_secs >= (heal - split).as_secs_f64() * 0.9);
/// assert!(report.per_node[0].last_delivery_secs > heal.as_secs_f64());
/// ```
pub fn partition_heal(n: usize, at: Duration, heal: Duration) -> FaultPlan {
    let mid = n.div_ceil(2);
    let left: Vec<NodeId> = (0..mid as u32).map(NodeId).collect();
    let right: Vec<NodeId> = (mid as u32..n as u32).map(NodeId).collect();
    FaultPlan::named("partition-heal").partition(vec![left, right], at, Some(heal))
}

/// **partition-lossy** — the last node is split off from the majority at
/// `at` and the *route* heals at `heal`, but unlike [`partition_heal`] the
/// traffic queued during the split is **lost**, never redelivered. The
/// isolated node cannot catch up from buffered history; once healed, its
/// lag detector notices votes far ahead of its round and it closes the gap
/// through the state-sync block fetch (ARCHITECTURE.md, "State sync").
/// The majority side holds a quorum throughout, so it never stalls.
///
/// ```
/// use fireledger_runtime::prelude::*;
/// use fireledger_runtime::catalog;
/// use std::time::Duration;
///
/// let split = Duration::from_millis(300);
/// let heal = Duration::from_millis(900);
/// let plan = catalog::partition_lossy_minority(4, split, heal);
/// let scenario = Scenario::new("lossy-split")
///     .ideal()
///     .run_for(Duration::from_millis(2500))
///     .with_faults(plan);
/// let params = ProtocolParams::new(4)
///     .with_batch_size(8)
///     .with_tx_size(64)
///     .with_base_timeout(Duration::from_millis(20));
/// let report = Simulator
///     .run(&ClusterBuilder::<FloCluster>::new(params), &scenario)
///     .unwrap();
/// assert_eq!(report.fault_plan, "partition-lossy");
/// // The majority never stalled, and the re-synced minority node fetched
/// // its way back to the cluster's ledger.
/// assert!(report.per_node[0].blocks > 0);
/// assert!(report.per_node[3].blocks as f64 > report.per_node[0].blocks as f64 * 0.8);
/// ```
pub fn partition_lossy_minority(n: usize, at: Duration, heal: Duration) -> FaultPlan {
    let majority: Vec<NodeId> = (0..n as u32 - 1).map(NodeId).collect();
    let minority = vec![NodeId(n as u32 - 1)];
    FaultPlan::named("partition-lossy").partition_lossy(vec![majority, minority], at, Some(heal))
}

/// **crash-recover** — the last node of the cluster goes down at `at` and
/// comes back at `recover` with its protocol state intact (an
/// unreachability window). The cluster keeps deciding around it (it is
/// within the `f` budget) and the node rejoins afterwards.
///
/// ```
/// use fireledger_runtime::prelude::*;
/// use fireledger_runtime::catalog;
/// use std::time::Duration;
///
/// let plan = catalog::crash_recover_last(4, Duration::from_millis(200), Duration::from_millis(500));
/// let scenario = Scenario::new("churn-1")
///     .ideal()
///     .run_for(Duration::from_millis(1000))
///     .with_faults(plan);
/// let params = ProtocolParams::new(4).with_batch_size(8).with_tx_size(64);
/// let report = Simulator
///     .run(&ClusterBuilder::<FloCluster>::new(params), &scenario)
///     .unwrap();
/// // The three untouched nodes never stop delivering.
/// assert!(report.per_node[0].blocks > 0);
/// assert_eq!(report.fault_plan, "crash-recover");
/// ```
pub fn crash_recover_last(n: usize, at: Duration, recover: Duration) -> FaultPlan {
    FaultPlan::named("crash-recover").crash_recover(NodeId(n as u32 - 1), at, recover)
}

/// **kill-restart** — the last node of the cluster is killed -9 at `at`:
/// unlike the pause of [`crash_recover_last`], its protocol state is
/// destroyed outright, and at `restart` the node is rebuilt from its
/// durable store (configure one with
/// [`ClusterBuilder::with_store`](crate::ClusterBuilder::with_store) — a
/// kill without a disk is total amnesia). The restarted node re-emits its
/// recovered ledger prefix from round 0 and resumes consensus at the round
/// after it, while the other `n − 1` nodes never stop deciding.
///
/// ```
/// use fireledger_runtime::prelude::*;
/// use fireledger_runtime::catalog;
/// use std::time::Duration;
///
/// let dir = std::env::temp_dir().join(format!("fl-kill-restart-{}", std::process::id()));
/// std::fs::remove_dir_all(&dir).ok();
/// let plan = catalog::kill_restart_last(4, Duration::from_millis(300), Duration::from_millis(600));
/// let scenario = Scenario::new("kill-9")
///     .ideal()
///     .run_for(Duration::from_millis(1000))
///     .with_faults(plan);
/// let params = ProtocolParams::new(4).with_batch_size(8).with_tx_size(64);
/// let cluster = ClusterBuilder::<FloCluster>::new(params)
///     .with_store(&dir, FsyncPolicy::EveryN(8));
/// let report = Simulator.run(&cluster, &scenario).unwrap();
/// assert_eq!(report.fault_plan, "kill-restart");
/// assert_eq!(report.durability, "fsync-every8");
/// // The untouched nodes never stop; the killed node rebuilt its ledger
/// // from disk (its delivery log restarts from round 0 at the restart).
/// assert!(report.per_node[0].blocks > 0);
/// assert!(report.per_node[3].blocks > 0, "recovery re-emitted no prefix");
/// std::fs::remove_dir_all(&dir).ok();
/// ```
pub fn kill_restart_last(n: usize, at: Duration, restart: Duration) -> FaultPlan {
    FaultPlan::named("kill-restart").kill_restart(NodeId(n as u32 - 1), at, restart)
}

/// **churn** — `node` flaps: starting at `first_down`, it repeats `cycles`
/// rounds of `down` unreachable then `up` reachable. The rolling-restart /
/// flaky-machine shape of adversity.
///
/// ```
/// use fireledger_runtime::prelude::*;
/// use fireledger_runtime::catalog;
/// use std::time::Duration;
///
/// let plan = catalog::churn(
///     NodeId(3),
///     Duration::from_millis(200), // first outage starts
///     Duration::from_millis(100), // each outage lasts
///     Duration::from_millis(150), // each recovery lasts
///     3,                          // outages
/// );
/// assert_eq!(plan.node_faults.len(), 3);
/// let scenario = Scenario::new("flappy")
///     .ideal()
///     .run_for(Duration::from_millis(1200))
///     .with_faults(plan);
/// let params = ProtocolParams::new(4).with_batch_size(8).with_tx_size(64);
/// let report = Simulator
///     .run(&ClusterBuilder::<FloCluster>::new(params), &scenario)
///     .unwrap();
/// assert!(report.per_node[0].blocks > 0);
/// ```
pub fn churn(
    node: NodeId,
    first_down: Duration,
    down: Duration,
    up: Duration,
    cycles: usize,
) -> FaultPlan {
    let mut plan = FaultPlan::named("churn");
    let mut at = first_down;
    for _ in 0..cycles {
        plan = plan.crash_recover(node, at, at + down);
        at += down + up;
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_heal_splits_evenly_and_heals() {
        let plan = partition_heal(4, Duration::from_millis(100), Duration::from_millis(200));
        assert!(plan.partitioned(NodeId(0), NodeId(2), Duration::from_millis(150)));
        assert!(!plan.partitioned(NodeId(0), NodeId(1), Duration::from_millis(150)));
        assert!(!plan.partitioned(NodeId(0), NodeId(2), Duration::from_millis(250)));
        // Odd n: the larger half is the first group.
        let odd = partition_heal(5, Duration::ZERO, Duration::from_millis(1));
        assert!(odd.partitioned(NodeId(2), NodeId(3), Duration::ZERO));
        assert!(!odd.partitioned(NodeId(1), NodeId(2), Duration::ZERO));
    }

    #[test]
    fn churn_cycles_alternate_down_and_up() {
        let plan = churn(
            NodeId(1),
            Duration::from_millis(100),
            Duration::from_millis(50),
            Duration::from_millis(50),
            2,
        );
        assert!(!plan.node_down(NodeId(1), Duration::from_millis(90)));
        assert!(plan.node_down(NodeId(1), Duration::from_millis(120))); // 1st outage
        assert!(!plan.node_down(NodeId(1), Duration::from_millis(160))); // recovered
        assert!(plan.node_down(NodeId(1), Duration::from_millis(220))); // 2nd outage
        assert!(!plan.node_down(NodeId(1), Duration::from_millis(260))); // done
    }

    #[test]
    fn catalog_names_are_stable() {
        // SCENARIOS.md and the fault-matrix CI job key off these names.
        assert_eq!(
            lossy_link(0.1, Duration::ZERO, Duration::from_secs(1)).name,
            "lossy-link"
        );
        assert_eq!(
            delay_reorder(Duration::ZERO, Duration::from_millis(1), 0.5).name,
            "delay-reorder"
        );
        assert_eq!(
            duplicate_flood(0.5, Duration::from_millis(1)).name,
            "duplicate-flood"
        );
        assert_eq!(
            partition_heal(4, Duration::ZERO, Duration::from_secs(1)).name,
            "partition-heal"
        );
        assert_eq!(
            partition_lossy_minority(4, Duration::ZERO, Duration::from_secs(1)).name,
            "partition-lossy"
        );
        assert_eq!(
            crash_recover_last(4, Duration::ZERO, Duration::from_secs(1)).name,
            "crash-recover"
        );
        assert_eq!(
            kill_restart_last(4, Duration::ZERO, Duration::from_secs(1)).name,
            "kill-restart"
        );
        assert_eq!(
            churn(
                NodeId(0),
                Duration::ZERO,
                Duration::from_millis(1),
                Duration::from_millis(1),
                1
            )
            .name,
            "churn"
        );
    }
}
