//! Partition scenario: split a 4-node FLO cluster down the middle, watch
//! commits stall (no side holds a quorum), heal the split, and watch the
//! optimistic path recover — the README's "Running a partition scenario"
//! walkthrough, and the headline FireLedger behaviour of the paper: fast
//! until faults appear, graceful afterwards.
//!
//! Run with: `cargo run -p fireledger-examples --bin partition_scenario`
//!
//! Add `--tcp` to replay the identical plan over the real localhost TCP
//! mesh (the run then takes ~2 wall-clock seconds).

use fireledger_runtime::{catalog, prelude::*};
use std::time::Duration;

fn main() {
    let split = Duration::from_millis(400);
    let heal = Duration::from_millis(1000);
    let duration = Duration::from_millis(2000);

    // The declarative fault plan: {p0, p1} | {p2, p3} between 0.4s and 1.0s.
    // The same value drives the simulator and the TCP runtime (see
    // docs/SCENARIOS.md for the whole catalog).
    let plan = catalog::partition_heal(4, split, heal);

    let params = ProtocolParams::new(4).with_batch_size(16).with_tx_size(128);
    let cluster = ClusterBuilder::<FloCluster>::new(params).with_seed(42);
    let scenario = Scenario::new("partition-demo")
        .ideal()
        .with_warmup(Duration::ZERO)
        .run_for(duration)
        .with_faults(plan);

    let on_tcp = std::env::args().any(|a| a == "--tcp");
    let report = if on_tcp {
        Tcp.run(&cluster, &scenario).expect("tcp partition run")
    } else {
        Simulator
            .run(&cluster, &scenario)
            .expect("sim partition run")
    };

    println!(
        "plan={} runtime={} | split at {:.1}s, heal at {:.1}s, run {:.1}s",
        report.fault_plan,
        report.runtime,
        split.as_secs_f64(),
        heal.as_secs_f64(),
        duration.as_secs_f64()
    );
    println!(
        "{:<6} {:>8} {:>16} {:>16} {:>12}",
        "node", "blocks", "first delivery", "last delivery", "max gap"
    );
    for d in &report.per_node {
        println!(
            "p{:<5} {:>8} {:>15.3}s {:>15.3}s {:>11.3}s",
            d.node, d.blocks, d.first_delivery_secs, d.last_delivery_secs, d.max_gap_secs
        );
    }
    let gap = (heal - split).as_secs_f64();
    let stalled = report.per_node.iter().all(|d| d.max_gap_secs >= gap * 0.8);
    let recovered = report
        .per_node
        .iter()
        .all(|d| d.last_delivery_secs > heal.as_secs_f64());
    println!(
        "\ncommit stall spans the split on every node: {stalled}\n\
         deliveries resume after the heal on every node: {recovered}"
    );
    println!("JSON: {}", report.to_json());
}
