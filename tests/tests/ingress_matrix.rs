//! The ingress matrix: an open-loop client fleet submits through the §11
//! RPC front end while the cluster is partitioned, healed, and
//! crash-recovered — and on every runtime the admission contract holds:
//! **nothing the gates acked `Accepted` is ever lost**, refusals are typed
//! and retryable, and the simulator's run is byte-deterministic.
//!
//! This is the client-visible counterpart of `fault_matrix.rs`: that suite
//! proves the *ledgers* converge under adversity; this one proves the
//! *clients* were either served or told, honestly, to go away.

use fireledger_integration_tests::test_params;
use fireledger_runtime::catalog;
use fireledger_runtime::prelude::*;
use fireledger_runtime::IngressLoad;
use std::time::Duration;

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// Partition the cluster into halves, heal it, then pause-and-resume the
/// last node — the two fault shapes a production ingress must ride out
/// without losing accepted work (a kill-restart genuinely discards pool
/// state and is *supposed* to refuse clients instead; see
/// `docs/SCENARIOS.md`).
fn soak_scenario(n: usize) -> Scenario {
    let plan = catalog::partition_heal(n, ms(300), ms(600)).crash_recover(
        NodeId(n as u32 - 1),
        ms(800),
        ms(1100),
    );
    Scenario::new("ingress-soak")
        .ideal()
        .with_faults(plan)
        .run_for(ms(1600))
        .with_warmup(Duration::ZERO)
        .with_seed(23)
        .with_ingress(IngressLoad::new(8, ms(10), 64).with_drain(ms(400)))
}

/// Runs the soak on `rt` and asserts the admission contract.
fn assert_zero_accepted_then_lost<P: ClusterProtocol, R: Runtime>(
    rt: R,
    cluster: ClusterBuilder<P>,
) -> RunReport {
    let n = cluster.params().cluster.n;
    let scenario = soak_scenario(n);
    let (report, deliveries) = rt.run_full(&cluster, &scenario).expect("ingress soak");
    let ingress = &report.ingress;
    assert!(ingress.enabled, "scenario carried an ingress load");
    assert!(
        ingress.accepted() > 20,
        "fleet barely got through on {}: {ingress:?}",
        report.runtime
    );
    assert_eq!(
        ingress.lost(),
        0,
        "accepted-then-lost on {}: {ingress:?}",
        report.runtime
    );
    assert_eq!(
        ingress.accepted(),
        ingress.committed(),
        "accepted and committed must balance on {}: {ingress:?}",
        report.runtime
    );
    // The pause window must have produced *typed* refusals, not silence.
    let refused: u64 = ingress
        .lanes
        .iter()
        .map(|l| l.shed_busy + l.shed_rate_limited + l.rejected_syncing)
        .sum();
    assert!(
        refused > 0,
        "a paused node must refuse, visibly, on {}: {ingress:?}",
        report.runtime
    );
    assert!(
        ingress.lanes.iter().any(|l| l.p99_latency_secs > 0.0),
        "per-lane latency must be sampled on {}: {ingress:?}",
        report.runtime
    );
    // The fleet rides on top of the usual ledger guarantees, it does not
    // replace them: the unfaulted nodes still agree prefix-wise.
    let reference = &deliveries[0];
    assert!(!reference.is_empty(), "node 0 delivered nothing");
    for (i, other) in deliveries.iter().enumerate().take(n - 1).skip(1) {
        let common = reference.len().min(other.len());
        assert_eq!(
            other[..common],
            reference[..common],
            "node {i} diverged from node 0 under ingress load"
        );
    }
    report
}

#[test]
fn sim_ingress_survives_partition_heal_and_crash_recover() {
    let report = assert_zero_accepted_then_lost(
        Simulator,
        ClusterBuilder::<FloCluster>::new(test_params(4, 1).with_fill_blocks(false)).with_seed(23),
    );
    // And deterministically so: the whole report, ingress section included,
    // is byte-identical on a re-run.
    let again = assert_zero_accepted_then_lost(
        Simulator,
        ClusterBuilder::<FloCluster>::new(test_params(4, 1).with_fill_blocks(false)).with_seed(23),
    );
    assert_eq!(report.to_json(), again.to_json());
}

#[test]
fn tcp_ingress_survives_partition_heal_and_crash_recover() {
    assert_zero_accepted_then_lost(
        Tcp,
        ClusterBuilder::<FloCluster>::new(test_params(4, 1).with_fill_blocks(false)).with_seed(23),
    );
}

#[test]
fn sim_ingress_overload_sheds_but_never_loses() {
    // Aggressive fleet against tiny lane budgets: the gates must shed
    // (typed, with retry hints) and still lose nothing they accepted.
    let admission = fireledger::AdmissionConfig {
        capacity: 4,
        rate_per_sec: 100,
        burst: 8,
        ..Default::default()
    };
    let scenario = Scenario::new("ingress-overload")
        .ideal()
        .run_for(ms(900))
        .with_warmup(Duration::ZERO)
        .with_ingress(
            IngressLoad::new(32, ms(2), 64)
                .with_admission(admission)
                .with_max_retries(2),
        );
    let report = Simulator
        .run(
            &ClusterBuilder::<FloCluster>::new(test_params(4, 1).with_fill_blocks(false)),
            &scenario,
        )
        .expect("overload run");
    assert!(report.ingress.shed() > 0, "{:?}", report.ingress);
    assert_eq!(report.ingress.lost(), 0, "{:?}", report.ingress);
    assert!(report.ingress.retries > 0);
    assert!(report.ingress.abandoned > 0, "{:?}", report.ingress);
}
