//! Quickstart: run a 4-node FireLedger/FLO cluster on the simulator, load it
//! with client transactions, and watch them come out as definitively
//! decided, totally ordered blocks on every node — all through the unified
//! `ClusterBuilder` / `Scenario` / `Runtime` API.
//!
//! Run with: `cargo run -p fireledger-examples --bin quickstart`

use fireledger_examples::print_report;
use fireledger_runtime::prelude::*;
use fireledger_sim::{SimTime, Simulation};
use std::time::Duration;

fn main() {
    // 1. Configure a 4-node cluster (tolerating f = 1 Byzantine node) with
    //    small blocks so the output stays readable.
    let params = ProtocolParams::new(4)
        .with_batch_size(5)
        .with_tx_size(128)
        .with_fill_blocks(false) // only order real client transactions
        .with_base_timeout(Duration::from_millis(20));
    let cluster = ClusterBuilder::<FloCluster>::new(params).with_seed(42);

    // 2. Describe the experiment: single data-center links, an open-loop
    //    client submitting transactions, two simulated seconds.
    let scenario = Scenario::new("quickstart")
        .single_dc()
        .open_loop(200.0, 128)
        .run_for(Duration::from_secs(2))
        .with_warmup(Duration::ZERO);

    // 3a. The one-call path: run it and read the unified report.
    let report = Simulator.run(&cluster, &scenario).unwrap();

    // 3b. The inspectable path: drive the same pieces by hand to look at the
    //     individual deliveries (the report only carries aggregates).
    let mut sim = Simulation::new(scenario.sim_config(), cluster.build().unwrap());
    for (at, node, tx) in scenario.injection_schedule(4) {
        sim.inject_transaction_at(node, tx, at);
    }
    sim.run_until(SimTime::ZERO + scenario.duration);

    println!("Deliveries at node p0:");
    for d in sim.deliveries(NodeId(0)).iter().take(8) {
        println!(
            "  worker {} round {:>3} proposed by {} : {} txs",
            d.worker,
            d.round,
            d.proposer,
            d.block.len()
        );
    }

    // 4. Every node delivered the same ordered prefix of blocks.
    let reference: Vec<_> = sim
        .deliveries(NodeId(0))
        .iter()
        .map(|d| d.block.header.payload_hash)
        .collect();
    for i in 1..4u32 {
        let other: Vec<_> = sim
            .deliveries(NodeId(i))
            .iter()
            .map(|d| d.block.header.payload_hash)
            .collect();
        let common = reference.len().min(other.len());
        assert_eq!(
            other[..common],
            reference[..common],
            "node {i} must agree with node 0"
        );
    }
    println!("\nAll 4 nodes delivered the same totally ordered chain prefix.");
    print_report("quickstart summary", &report);
}
