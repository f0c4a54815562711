//! The acceptance test of the unified API: **one** `Scenario` value drives
//! all five protocols of the paper's matrix through `ClusterBuilder`, on both
//! the deterministic simulator and the real-time socket runtime, and every
//! run returns a `RunReport` with the identical schema.

use fireledger_integration_tests::test_params;
use fireledger_runtime::prelude::*;
use std::time::Duration;

fn scenario() -> Scenario {
    Scenario::new("matrix")
        .ideal()
        .run_for(Duration::from_millis(300))
}

fn run_matrix<R: Runtime>(runtime: &R, scenario: &Scenario) -> Vec<RunReport> {
    let params = test_params(4, 2);
    vec![
        runtime
            .run(&ClusterBuilder::<FloCluster>::new(params.clone()), scenario)
            .unwrap(),
        runtime
            .run(&ClusterBuilder::<Worker>::new(params.clone()), scenario)
            .unwrap(),
        runtime
            .run(&ClusterBuilder::<PbftNode>::new(params.clone()), scenario)
            .unwrap(),
        runtime
            .run(
                &ClusterBuilder::<HotStuffNode>::new(params.clone()),
                scenario,
            )
            .unwrap(),
        runtime
            .run(&ClusterBuilder::<BftSmartNode>::new(params), scenario)
            .unwrap(),
    ]
}

#[test]
fn one_scenario_drives_all_five_protocols_on_both_runtimes() {
    let scenario = scenario();
    let sim_reports = run_matrix(&Simulator, &scenario);
    let tcp_reports = run_matrix(&Tcp, &scenario);

    let names: Vec<&str> = sim_reports.iter().map(|r| r.protocol.as_str()).collect();
    assert_eq!(names, ["flo", "wrb-obbc", "pbft", "hotstuff", "bft-smart"]);

    // Every cell of the matrix made progress...
    for r in sim_reports.iter().chain(tcp_reports.iter()) {
        assert!(
            r.tps > 0.0,
            "{} on {} produced no throughput",
            r.protocol,
            r.runtime
        );
        assert!(
            r.per_node.iter().all(|d| d.blocks > 0),
            "{} on {}: some node delivered nothing",
            r.protocol,
            r.runtime
        );
    }

    // ...and every report round-trips with the same schema, regardless of
    // protocol or runtime.
    let reference = sim_reports[0].schema();
    for r in sim_reports.iter().chain(tcp_reports.iter()) {
        assert_eq!(
            r.schema(),
            reference,
            "{} on {} diverged from the unified schema",
            r.protocol,
            r.runtime
        );
        // The JSON forms are parseable enough to be non-empty and balanced.
        let json = r.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}

#[test]
fn one_fault_plan_drives_all_five_protocols_through_the_same_schema() {
    // The adversity axis composes with the protocol axis: a single
    // plan-carrying Scenario value runs every protocol of the matrix, and
    // the fault plan's name round-trips through the unified report schema.
    let plan = fireledger_runtime::catalog::delay_reorder(
        Duration::from_millis(1),
        Duration::from_millis(3),
        0.25,
    );
    let scenario = Scenario::new("matrix-adversity")
        .ideal()
        .run_for(Duration::from_millis(400))
        .with_faults(plan);
    let reports = run_matrix(&Simulator, &scenario);
    let reference = reports[0].schema();
    for r in &reports {
        assert_eq!(r.fault_plan, "delay-reorder", "{}", r.protocol);
        assert_eq!(r.schema(), reference, "{}", r.protocol);
        assert!(r.tps > 0.0, "{} stalled under delay-reorder", r.protocol);
    }
}

#[test]
fn scenario_values_are_reusable_and_cloneable() {
    // A scenario is a plain value: using it for one run must not consume or
    // mutate it for the next.
    let scenario = scenario();
    let a = Simulator
        .run(
            &ClusterBuilder::<FloCluster>::new(test_params(4, 1)).with_seed(3),
            &scenario,
        )
        .unwrap();
    let b = Simulator
        .run(
            &ClusterBuilder::<FloCluster>::new(test_params(4, 1)).with_seed(3),
            &scenario,
        )
        .unwrap();
    assert_eq!(a.to_json(), b.to_json());
}
