//! Integration tests of the failure paths: crashes (benign), omissions and
//! Byzantine equivocation with recovery — crashes as `FaultPlan` entries,
//! Byzantine behaviour as `ClusterBuilder` roles. The key property checked
//! throughout is BBFC-Agreement: correct nodes never diverge on blocks at
//! depth > f + 1.

use fireledger_integration_tests::*;
use fireledger_runtime::prelude::*;
use fireledger_sim::{PlanAdversary, SimConfig, SimTime, Simulation};
use std::time::Duration;

#[test]
fn progress_and_agreement_with_f_crashed_nodes() {
    for (n, f) in [(4usize, 1usize), (7, 2)] {
        let cluster = ClusterBuilder::<FloCluster>::new(test_params(n, 1)).with_seed(3);
        let plan = ((n - f)..n).fold(FaultPlan::named("crash"), |plan, i| {
            plan.crash(NodeId(i as u32), Duration::ZERO)
        });
        let scenario = Scenario::new("crash")
            .ideal()
            .with_faults(plan)
            .run_for(Duration::from_secs(3));
        let report = Simulator.run(&cluster, &scenario).unwrap();
        assert!(
            report.per_node[0].blocks > 3,
            "n={n}: progress must continue with {f} crashed nodes, got {}",
            report.per_node[0].blocks
        );
        // The crashed tail delivered nothing.
        for i in (n - f)..n {
            assert_eq!(report.per_node[i].blocks, 0, "crashed node {i} delivered");
        }
        assert!(report.tps > 0.0);
    }
}

#[test]
fn crash_mid_run_does_not_block_the_cluster() {
    // The plan drives a raw `Simulation` this time — the same adversary the
    // `Simulator` runtime compiles from it.
    let cluster = ClusterBuilder::<FloCluster>::new(test_params(4, 1)).with_seed(8);
    let plan = FaultPlan::named("midcrash").crash(NodeId(2), Duration::from_millis(200));
    let scenario = Scenario::new("midcrash")
        .ideal()
        .run_for(Duration::from_secs(3));
    let nodes = cluster.build().unwrap();
    let mut sim = Simulation::with_adversary(
        scenario.sim_config(),
        nodes,
        Box::new(PlanAdversary::new(plan)),
    );
    sim.run_until(SimTime::ZERO + scenario.duration);
    let len_at_crash_estimate = 5; // it certainly decided a few blocks before 200 ms
    assert!(sim.deliveries(NodeId(0)).len() > len_at_crash_estimate);
    assert_delivery_agreement(&sim, &[0, 1, 3]);
}

#[test]
fn equivocating_proposer_triggers_recovery_but_never_breaks_agreement() {
    let cluster = mixed_cluster(&test_params(4, 1), 1, 4);
    let mut sim = Simulation::new(SimConfig::ideal().with_seed(4), cluster.build().unwrap());
    sim.run_for(Duration::from_secs(3));
    let correct = [0u32, 1, 2];
    // Recoveries happened...
    let s = sim.summary_for(&[NodeId(0), NodeId(1), NodeId(2)]);
    assert!(
        s.recoveries_per_sec > 0.0,
        "the equivocating proposer must trigger at least one recovery"
    );
    // ...progress continued...
    assert!(!definite_prefix(&sim, 0, 0).is_empty());
    // ...and the correct nodes' definite prefixes agree (BBFC-Agreement).
    let reference = definite_prefix(&sim, 0, 0);
    for &i in &correct[1..] {
        let other = definite_prefix(&sim, i, 0);
        let common = reference.len().min(other.len());
        assert_eq!(
            other[..common],
            reference[..common],
            "correct node {i} diverged"
        );
    }
    // Delivered blocks agree as well.
    assert_delivery_agreement(&sim, &correct);
}

#[test]
fn equivocation_with_larger_cluster_and_multiple_workers() {
    let cluster = mixed_cluster(&test_params(7, 2), 1, 6);
    let mut sim = Simulation::new(SimConfig::ideal().with_seed(6), cluster.build().unwrap());
    sim.run_for(Duration::from_secs(3));
    let correct: Vec<u32> = (0..6).collect();
    for w in 0..2 {
        let reference = definite_prefix(&sim, 0, w);
        for &i in &correct[1..] {
            let other = definite_prefix(&sim, i, w);
            let common = reference.len().min(other.len());
            assert_eq!(
                other[..common],
                reference[..common],
                "worker {w}, node {i} diverged"
            );
        }
    }
    assert_delivery_agreement(&sim, &correct);
}

#[test]
fn silent_proposer_forces_fallbacks_without_recoveries() {
    let cluster = ClusterBuilder::<FloCluster>::new(test_params(4, 1))
        .with_seed(10)
        .with_role(NodeId(3), NodeRole::SilentProposer);
    let scenario = Scenario::new("silent")
        .ideal()
        .run_for(Duration::from_secs(2));
    let report = Simulator.run(&cluster, &scenario).unwrap();
    assert!(
        report.tps > 0.0,
        "cluster must keep deciding around the silent node"
    );
    assert!(
        report.fallbacks > 0 || report.per_node[0].blocks > 0,
        "the silent proposer's turns must be resolved"
    );
}

#[test]
fn delivered_blocks_survive_recoveries_definite_prefix_is_monotone() {
    // Run the Byzantine scenario in two phases and check that everything
    // delivered by the first phase is still delivered (same order) later.
    let cluster = mixed_cluster(&test_params(4, 1), 1, 12);
    let mut sim = Simulation::new(SimConfig::ideal().with_seed(12), cluster.build().unwrap());
    sim.run_for(Duration::from_millis(800));
    let early: Vec<_> = sim
        .deliveries(NodeId(1))
        .iter()
        .map(|d| (d.worker, d.round, d.block.header.payload_hash))
        .collect();
    sim.run_for(Duration::from_millis(1500));
    let late: Vec<_> = sim
        .deliveries(NodeId(1))
        .iter()
        .map(|d| (d.worker, d.round, d.block.header.payload_hash))
        .collect();
    assert!(late.len() >= early.len());
    assert_eq!(
        &late[..early.len()],
        &early[..],
        "definite decisions must never be rescinded"
    );
}
