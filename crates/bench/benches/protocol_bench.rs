//! Benchmarks of the protocol hot paths: a simulated 100 ms of a FireLedger
//! cluster versus each baseline, through the unified runtime API.
//!
//! Run with: `cargo bench -p fireledger-bench --bench protocol_bench`

use fireledger_bench::quickbench::{bench_with_target, section};
use fireledger_bench::*;
use std::time::Duration;

fn main() {
    let scenario = Scenario::new("bench")
        .ideal()
        .run_for(Duration::from_millis(100));
    for n in [4usize, 7] {
        section(&format!("simulated 100 ms, n = {n}"));
        let params = ProtocolParams::new(n)
            .with_batch_size(10)
            .with_tx_size(256)
            .with_base_timeout(Duration::from_millis(20));
        let target = Duration::from_millis(400);
        bench_with_target(&format!("fireledger/{n}"), target, || {
            Simulator
                .run(
                    &ClusterBuilder::<FloCluster>::new(params.clone()),
                    &scenario,
                )
                .unwrap()
                .tps
        });
        bench_with_target(&format!("wrb_obbc/{n}"), target, || {
            Simulator
                .run(&ClusterBuilder::<Worker>::new(params.clone()), &scenario)
                .unwrap()
                .tps
        });
        bench_with_target(&format!("hotstuff/{n}"), target, || {
            Simulator
                .run(
                    &ClusterBuilder::<HotStuffNode>::new(params.clone()),
                    &scenario,
                )
                .unwrap()
                .tps
        });
        bench_with_target(&format!("bftsmart/{n}"), target, || {
            Simulator
                .run(
                    &ClusterBuilder::<BftSmartNode>::new(params.clone()),
                    &scenario,
                )
                .unwrap()
                .tps
        });
    }
}
