//! Integration tests of the baseline protocols (HotStuff, BFT-SMaRt) and
//! head-to-head sanity checks of the comparison harness — everything
//! assembled through the unified `ClusterBuilder`.

use fireledger_integration_tests::*;
use fireledger_runtime::prelude::*;
use fireledger_sim::{SimConfig, Simulation};
use std::time::Duration;

fn builder<P: ClusterProtocol>(n: usize) -> ClusterBuilder<P> {
    ClusterBuilder::<P>::new(test_params(n, 1)).with_seed(2)
}

#[test]
fn hotstuff_agreement_across_cluster_sizes() {
    for n in [4usize, 7] {
        let mut sim = Simulation::new(
            SimConfig::ideal(),
            builder::<HotStuffNode>(n).build().unwrap(),
        );
        sim.run_for(Duration::from_millis(600));
        let nodes: Vec<u32> = (0..n as u32).collect();
        assert_delivery_agreement(&sim, &nodes);
        assert!(sim.deliveries(NodeId(0)).len() > 5, "n={n}");
    }
}

#[test]
fn bftsmart_agreement_across_cluster_sizes() {
    for n in [4usize, 7] {
        let mut sim = Simulation::new(
            SimConfig::ideal(),
            builder::<BftSmartNode>(n).build().unwrap(),
        );
        sim.run_for(Duration::from_millis(600));
        let nodes: Vec<u32> = (0..n as u32).collect();
        assert_delivery_agreement(&sim, &nodes);
        assert!(sim.deliveries(NodeId(0)).len() > 3, "n={n}");
    }
}

#[test]
fn fireledger_sends_fewer_messages_per_block_than_bftsmart() {
    // The core claim of the paper: in the optimistic case FireLedger decides a
    // block with one block dissemination plus a single bit from every node,
    // while PBFT-style ordering pays the quadratic three-phase exchange.
    let n = 7;
    let scenario = Scenario::new("msgs")
        .ideal()
        .run_for(Duration::from_millis(600));
    let fl = Simulator.run(&builder::<FloCluster>(n), &scenario).unwrap();
    let bs = Simulator
        .run(&builder::<BftSmartNode>(n), &scenario)
        .unwrap();

    let per_block = |r: &RunReport| {
        let blocks = (r.bps * r.duration_secs).max(1.0);
        r.msgs_sent as f64 / (blocks * n as f64)
    };
    assert!(
        per_block(&fl) < per_block(&bs),
        "FireLedger ({:.1} msgs/block/node) must be cheaper than BFT-SMaRt ({:.1})",
        per_block(&fl),
        per_block(&bs)
    );
}

#[test]
fn fireledger_needs_fewer_signatures_per_block_than_hotstuff() {
    let n = 4;
    let cost = fireledger_crypto::CostModel::m5_xlarge();
    let scenario = Scenario::new("sigs")
        .ideal()
        .with_cost(cost)
        .run_for(Duration::from_millis(600));
    let plain = Scenario::new("sigs")
        .ideal()
        .run_for(Duration::from_millis(600));
    let fl = Simulator.run(&builder::<FloCluster>(n), &plain).unwrap();
    let hs = Simulator
        .run(&builder::<HotStuffNode>(n), &scenario)
        .unwrap();

    let per_block = |r: &RunReport| {
        let blocks = (r.bps * r.duration_secs).max(1.0);
        r.signatures as f64 / blocks
    };
    assert!(
        per_block(&fl) < per_block(&hs),
        "FireLedger ({:.1} sigs/block) must sign less than HotStuff ({:.1})",
        per_block(&fl),
        per_block(&hs)
    );
}
