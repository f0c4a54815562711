//! The adversity acceptance suite: one declarative `FaultPlan` value drives
//! the simulator and the TCP runtime, and FireLedger keeps its guarantees
//! under every catalog plan.
//!
//! What is provable differs by plan, and the assertions here are exactly the
//! guarantees `docs/SCENARIOS.md` documents:
//!
//! * **Agreement (every plan, every runtime)** — within a run, all correct
//!   (non-faulted) nodes deliver prefix-identical ledgers. This is the BFT
//!   safety property and must survive arbitrary network adversity.
//! * **Cross-runtime ledger identity (content-preserving plans)** — plans
//!   that cannot change protocol *decisions* (bounded delay/reorder well
//!   under the timeout, duplication, mild loss recovered by FLO's pull +
//!   evidence-carrying fallback) must produce the *same* ledger on sim and
//!   tcp. Plans that stall quorums (partition, crash-recover)
//!   legitimately resolve rounds differently per timing, so cross-runtime
//!   identity is not asserted for them — within-run agreement is.
//! * **β-fallback liveness** — under quorum-stalling plans the cluster keeps
//!   delivering: commits stall during the adversity window and resume after
//!   it, visible in the `RunReport` delivery-timeline metrics.
//! * **Corrupt signer (Byzantine spot-check)** — a node that mis-signs every
//!   header is rejected on the consensus loop: the honest majority keeps
//!   deciding and never delivers one of its blocks.

use fireledger::{AcceptAll, FloNode};
use fireledger_crypto::{CostModel, CryptoProvider, SharedCrypto, SimKeyStore};
use fireledger_net::{RealtimeCluster, TcpEngine};
use fireledger_runtime::catalog;
use fireledger_runtime::prelude::*;
use fireledger_types::{Error, Signature};
use std::sync::Arc;
use std::time::Duration;

fn params() -> ProtocolParams {
    ProtocolParams::new(4)
        .with_workers(1)
        .with_batch_size(8)
        .with_tx_size(64)
        .with_base_timeout(Duration::from_millis(250))
}

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// The four catalog plans of the acceptance matrix, with the run length
/// each needs (wall-clock on the real-time runtimes).
fn acceptance_plans() -> Vec<(FaultPlan, Duration)> {
    vec![
        (catalog::lossy_link(0.10, ms(100), ms(400)), ms(900)),
        (catalog::delay_reorder(ms(1), ms(4), 0.25), ms(700)),
        (catalog::partition_heal(4, ms(250), ms(600)), ms(1100)),
        (catalog::crash_recover_last(4, ms(200), ms(500)), ms(1000)),
    ]
}

fn scenario_for(plan: &FaultPlan, duration: Duration) -> Scenario {
    Scenario::new(format!("fault-{}", plan.name))
        .ideal()
        .with_seed(7)
        .with_warmup(Duration::ZERO)
        .run_for(duration)
        .with_faults(plan.clone())
}

fn run_on<R: Runtime>(
    runtime: &R,
    plan: &FaultPlan,
    duration: Duration,
) -> (RunReport, Vec<Vec<Delivery>>) {
    runtime
        .run_full(
            &ClusterBuilder::<FloCluster>::new(params()).with_seed(7),
            &scenario_for(plan, duration),
        )
        .unwrap_or_else(|e| panic!("plan {} failed on {}: {e}", plan.name, runtime.name()))
}

/// Asserts that the given nodes' delivery logs are pairwise prefix-identical
/// and non-empty — BBFC-Agreement over the correct nodes of one run.
fn assert_agreement(deliveries: &[Vec<Delivery>], nodes: &[usize], context: &str) {
    let reference = &deliveries[nodes[0]];
    assert!(
        !reference.is_empty(),
        "{context}: node {} delivered nothing",
        nodes[0]
    );
    for &i in &nodes[1..] {
        let other = &deliveries[i];
        assert!(!other.is_empty(), "{context}: node {i} delivered nothing");
        let common = reference.len().min(other.len());
        assert_eq!(
            other[..common],
            reference[..common],
            "{context}: node {i} diverged from node {}",
            nodes[0]
        );
    }
}

/// The nodes a plan leaves untouched (no node fault) — the set agreement
/// and progress are asserted over.
fn unaffected(plan: &FaultPlan, n: usize) -> Vec<usize> {
    let faulted = plan.faulted_nodes();
    (0..n)
        .filter(|i| !faulted.contains(&NodeId(*i as u32)))
        .collect()
}

#[test]
fn every_plan_preserves_agreement_on_the_simulator() {
    for (plan, duration) in acceptance_plans() {
        let (report, deliveries) = run_on(&Simulator, &plan, duration);
        assert_eq!(report.fault_plan, plan.name);
        assert_agreement(
            &deliveries,
            &unaffected(&plan, 4),
            &format!("sim/{}", plan.name),
        );
        assert!(report.tps > 0.0, "{}: no throughput on sim", plan.name);
    }
}

#[test]
fn every_plan_preserves_agreement_on_tcp() {
    // The same plans at the same full length as on the simulator.
    for (plan, duration) in acceptance_plans() {
        let (report, deliveries) = run_on(&Tcp, &plan, duration);
        assert_eq!(report.fault_plan, plan.name);
        assert_agreement(
            &deliveries,
            &unaffected(&plan, 4),
            &format!("tcp/{}", plan.name),
        );
        assert!(report.tps > 0.0, "{}: no throughput on tcp", plan.name);
    }
}

#[test]
fn content_preserving_plans_deliver_identical_ledgers_on_all_three_runtimes() {
    // Bounded delay/reorder (well under the 250 ms timeout) and duplication
    // cannot change what the protocol decides — so the *contents* of the
    // ledger must match across sim and tcp, exactly like the
    // fault-free equivalence suite. Loss is deliberately absent here: a
    // dropped header can turn a round's fallback into "skip and rotate the
    // proposer", and *which* runs skip depends on timing, so lossy runs on
    // different runtimes legitimately commit different (each internally
    // agreed) blocks — see docs/SCENARIOS.md, "What each plan guarantees".
    let content_preserving = vec![
        (catalog::delay_reorder(ms(1), ms(4), 0.25), ms(700)),
        (catalog::duplicate_flood(0.5, ms(5)), ms(700)),
    ];
    for (plan, duration) in content_preserving {
        let (_, sim) = run_on(&Simulator, &plan, duration);
        let (_, tcp) = run_on(&Tcp, &plan, duration);
        let compared = check_delivery_prefixes(&sim, &tcp)
            .unwrap_or_else(|why| panic!("{}: sim vs tcp diverged: {why}", plan.name));
        assert!(compared > 0, "{}: empty comparison", plan.name);
    }
}

#[test]
fn partition_stalls_commits_and_heals_visibly_in_the_report() {
    // The headline FireLedger behaviour: an even split starves every quorum,
    // the optimistic path stalls, and the heal restores progress — all
    // visible in the new per-node delivery-timeline metrics.
    let split = ms(250);
    let heal = ms(600);
    let plan = catalog::partition_heal(4, split, heal);
    let (report, _) = run_on(&Simulator, &plan, ms(1100));
    let gap = (heal - split).as_secs_f64();
    for d in &report.per_node {
        assert!(
            d.max_gap_secs >= gap * 0.9,
            "node {}: max_gap {:.3}s does not span the {:.3}s split",
            d.node,
            d.max_gap_secs,
            gap
        );
        assert!(
            d.last_delivery_secs > heal.as_secs_f64(),
            "node {}: no delivery after the heal (last at {:.3}s)",
            d.node,
            d.last_delivery_secs
        );
        assert!(
            d.first_delivery_secs < split.as_secs_f64(),
            "node {}: no delivery before the split",
            d.node
        );
    }

    // The same stall/recovery shape on a wall-clock runtime (with generous
    // tolerances: scheduling noise moves the edges, not the shape).
    let (report, _) = run_on(&Tcp, &plan, ms(1100));
    let d = &report.per_node[0];
    assert!(
        d.max_gap_secs >= gap * 0.5,
        "tcp: max_gap {:.3}s shows no stall across the split",
        d.max_gap_secs
    );
    assert!(
        d.last_delivery_secs > heal.as_secs_f64() * 0.9,
        "tcp: no recovery after the heal (last at {:.3}s)",
        d.last_delivery_secs
    );
}

#[test]
fn crash_recover_keeps_the_cluster_live_and_invokes_the_fallback() {
    let plan = catalog::crash_recover_last(4, ms(200), ms(500));
    let (report, deliveries) = run_on(&Simulator, &plan, ms(1500));
    // The three untouched nodes never lose liveness: the down node's
    // proposer turns resolve through the β-fallback (timeout → all-false
    // votes → fallback consensus → skip + rotate).
    assert!(
        report.fallbacks > 0,
        "the down proposer's turns must go through the fallback"
    );
    for (i, delivered) in deliveries.iter().enumerate().take(3) {
        assert!(
            delivered.len() > 5,
            "node {i} stalled: {} blocks",
            delivered.len()
        );
    }
    // The recovered node's ledger is a (possibly short) prefix of the
    // others' — it missed rounds while down but never diverges.
    let reference = &deliveries[0];
    let recovered = &deliveries[3];
    let common = reference.len().min(recovered.len());
    assert_eq!(&recovered[..common], &reference[..common]);
}

#[test]
fn same_seed_and_plan_reproduce_byte_identical_reports() {
    // The determinism contract of the whole subsystem: scenario seed + plan
    // seed fix every random choice, so two simulator runs serialize to the
    // same bytes — timeline metrics, per-node counters, everything.
    for (plan, duration) in acceptance_plans() {
        let (a, da) = run_on(&Simulator, &plan, duration);
        let (b, db) = run_on(&Simulator, &plan, duration);
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "{}: non-deterministic report",
            plan.name
        );
        assert_eq!(da, db, "{}: non-deterministic deliveries", plan.name);
    }
    // A different plan seed produces a different faulty execution (the
    // per-link RNG streams move).
    let base = catalog::lossy_link(0.10, ms(100), ms(400));
    let (a, _) = run_on(&Simulator, &base.clone().with_seed(1), ms(900));
    let (b, _) = run_on(&Simulator, &base.with_seed(2), ms(900));
    assert_ne!(
        a.to_json(),
        b.to_json(),
        "plan seed must steer the execution"
    );
}

#[test]
fn fault_budget_is_enforced_across_builder_and_plan() {
    // Two crash-recover faults on n = 4 (f = 1) must be rejected by every
    // runtime before anything runs.
    let over = FaultPlan::named("too-much")
        .crash_recover(NodeId(2), ms(100), ms(200))
        .crash_recover(NodeId(3), ms(100), ms(200));
    let scenario = Scenario::new("over")
        .ideal()
        .run_for(ms(300))
        .with_faults(over);
    let cluster = ClusterBuilder::<FloCluster>::new(params());
    assert!(matches!(
        Simulator.run(&cluster, &scenario),
        Err(Error::FaultBudgetExceeded { faulty: 2, f: 1 })
    ));
    assert!(matches!(
        Tcp.run(&cluster, &scenario),
        Err(Error::FaultBudgetExceeded { .. })
    ));
    // One plan fault plus one Byzantine role on distinct nodes also busts
    // the budget (the union counts).
    let one = FaultPlan::named("one").crash_recover(NodeId(3), ms(100), ms(200));
    let scenario = Scenario::new("mixed")
        .ideal()
        .run_for(ms(300))
        .with_faults(one);
    let cluster =
        ClusterBuilder::<FloCluster>::new(params()).with_role(NodeId(0), NodeRole::Equivocate);
    assert!(matches!(
        Simulator.run(&cluster, &scenario),
        Err(Error::FaultBudgetExceeded { faulty: 2, f: 1 })
    ));
}

/// The generic runner is kept honest: any `ClusterProtocol` runs under a
/// plan, not just FLO.
fn baseline_under_plan<P: ClusterProtocol>(name: &str) {
    let plan = catalog::delay_reorder(ms(1), ms(3), 0.25);
    let scenario = scenario_for(&plan, ms(600));
    let report = Simulator
        .run(&ClusterBuilder::<P>::new(params()).with_seed(7), &scenario)
        .unwrap_or_else(|e| panic!("{name} under delay-reorder failed: {e}"));
    assert!(report.tps > 0.0, "{name}: no progress under delay-reorder");
    assert_eq!(report.fault_plan, "delay-reorder");
}

#[test]
fn baselines_survive_network_adversity_too() {
    baseline_under_plan::<HotStuffNode>("hotstuff");
    baseline_under_plan::<BftSmartNode>("bft-smart");
    baseline_under_plan::<Worker>("wrb-obbc");
}

/// A crypto provider that produces garbage signatures for one node (and
/// verifies honestly): the wrapped node genuinely cannot sign, so *every*
/// avenue its headers could take — fast path, piggyback, fallback
/// evidence, pulled replies — carries an invalid signature.
struct BadSigner {
    inner: SharedCrypto,
    culprit: NodeId,
}

impl CryptoProvider for BadSigner {
    fn sign(&self, node: NodeId, msg: &[u8]) -> Signature {
        let sig = self.inner.sign(node, msg);
        if node == self.culprit {
            let mut bytes = sig.as_bytes().to_vec();
            if bytes.is_empty() {
                bytes = vec![0u8; 32];
            }
            bytes[0] ^= 0xFF;
            return Signature::from(bytes);
        }
        sig
    }
    fn verify(&self, node: NodeId, msg: &[u8], sig: &Signature) -> bool {
        self.inner.verify(node, msg, sig)
    }
    fn cluster_size(&self) -> usize {
        self.inner.cluster_size()
    }
    fn cost_model(&self) -> CostModel {
        self.inner.cost_model()
    }
    fn scheme(&self) -> &'static str {
        "bad-signer"
    }
}

#[test]
fn corrupt_signer_is_rejected_in_loop_and_never_delivered() {
    // A 4-node socket cluster whose node 3 signs through the corrupting
    // provider; everyone (node 3 included) verifies honestly.
    let n = 4;
    let params = ProtocolParams::new(n)
        .with_workers(1)
        .with_batch_size(4)
        .with_tx_size(32)
        .with_base_timeout(ms(60));
    let honest = SimKeyStore::generate(n, 11).shared();
    let corrupt: SharedCrypto = Arc::new(BadSigner {
        inner: honest.clone(),
        culprit: NodeId(3),
    });
    let nodes: Vec<FloNode> = (0..n as u32)
        .map(|i| {
            let crypto = if i == 3 {
                corrupt.clone()
            } else {
                honest.clone()
            };
            FloNode::new(NodeId(i), params.clone(), crypto, Arc::new(AcceptAll))
        })
        .collect();
    let cluster =
        RealtimeCluster::spawn_engine(nodes, None, None, None, &[], TcpEngine).expect("mesh setup");
    std::thread::sleep(ms(1_200));
    let deliveries = cluster.shutdown();
    // Safety: no block proposed by the corrupt signer is ever delivered —
    // its headers never verify.
    for (node, ds) in deliveries.iter().enumerate() {
        for d in ds {
            assert_ne!(
                d.proposer,
                NodeId(3),
                "node {node} delivered a corrupt-signed block"
            );
        }
    }
    // Liveness and agreement: the honest majority keeps deciding (the
    // corrupt node's turns time out and are skipped) on one ledger.
    assert_agreement(&deliveries, &[0, 1, 2], "corrupt signer");
}
