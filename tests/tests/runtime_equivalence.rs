//! Cross-runtime ledger identity: the acceptance test of the TCP runtime.
//!
//! The same `ClusterBuilder` + `Scenario` pair is executed on the
//! deterministic simulator and on the TCP runtime (every message serialized
//! through the binary wire format of `docs/WIRE_FORMAT.md`, framed, written
//! to a real localhost socket, and decoded on the far side). For all four
//! protocols of the paper's matrix, every node must deliver the *same
//! ledger* on both runtimes — prefix equality of the delivered block
//! sequences, since the runtimes cover different amounts of protocol time in
//! the same scenario.
//!
//! Timeouts are deliberately generous (250 ms base against microsecond
//! localhost latency) so that no spurious real-time timeout can change a
//! protocol's decision sequence; with that, any divergence is a codec or
//! framing bug, which is exactly what this test exists to catch.

use fireledger_runtime::prelude::*;
use std::time::Duration;

fn params() -> ProtocolParams {
    ProtocolParams::new(4)
        .with_workers(2)
        .with_batch_size(8)
        .with_tx_size(64)
        .with_base_timeout(Duration::from_millis(250))
}

fn scenario() -> Scenario {
    Scenario::new("equivalence")
        .ideal()
        .run_for(Duration::from_millis(600))
        .with_warmup(Duration::ZERO)
}

fn deliveries_on<P: ClusterProtocol, R: Runtime>(runtime: &R) -> Vec<Vec<Delivery>> {
    runtime
        .run_full(
            &ClusterBuilder::<P>::new(params()).with_seed(7),
            &scenario(),
        )
        .expect("equivalence run must succeed")
        .1
}

fn assert_identical_ledgers<P: ClusterProtocol>(protocol: &str) {
    let sim = deliveries_on::<P, _>(&Simulator);
    let tcp = deliveries_on::<P, _>(&Tcp);
    let compared = check_delivery_prefixes(&sim, &tcp)
        .unwrap_or_else(|why| panic!("{protocol}: sim vs tcp diverged: {why}"));
    assert!(compared > 0);
}

#[test]
fn flo_delivers_the_same_ledger_on_all_three_runtimes() {
    assert_identical_ledgers::<FloCluster>("flo");
}

#[test]
fn wrb_obbc_delivers_the_same_ledger_on_all_three_runtimes() {
    assert_identical_ledgers::<Worker>("wrb-obbc");
}

#[test]
fn hotstuff_delivers_the_same_ledger_on_all_three_runtimes() {
    assert_identical_ledgers::<HotStuffNode>("hotstuff");
}

#[test]
fn bft_smart_delivers_the_same_ledger_on_all_three_runtimes() {
    assert_identical_ledgers::<BftSmartNode>("bft-smart");
}

#[test]
fn flo_ledger_identity_survives_content_preserving_adversity() {
    // The fault-free identity proof, repeated under a fault plan that cannot
    // change protocol decisions (1–4 ms of injected delay + reorder against
    // a 250 ms timeout): the same plan value drives both runtimes and
    // the ledgers still match block for block. The full adversity matrix —
    // including the plans where cross-runtime identity is deliberately NOT
    // asserted — lives in tests/tests/fault_matrix.rs.
    let plan = fireledger_runtime::catalog::delay_reorder(
        Duration::from_millis(1),
        Duration::from_millis(4),
        0.25,
    );
    let adverse = scenario().with_faults(plan);
    fn run<R: Runtime>(runtime: &R, adverse: &Scenario) -> Vec<Vec<Delivery>> {
        runtime
            .run_full(
                &ClusterBuilder::<FloCluster>::new(params()).with_seed(7),
                adverse,
            )
            .expect("adverse equivalence run must succeed")
            .1
    }
    let sim = run(&Simulator, &adverse);
    let tcp = run(&Tcp, &adverse);
    check_delivery_prefixes(&sim, &tcp)
        .unwrap_or_else(|why| panic!("flo under delay-reorder: sim vs tcp diverged: {why}"));
}

#[test]
fn divergence_detection_actually_detects() {
    // Sanity-check the checker itself: equal logs pass, tampered logs fail.
    let sim = deliveries_on::<FloCluster, _>(&Simulator);
    assert!(check_delivery_prefixes(&sim, &sim).is_ok());
    let mut tampered = sim.clone();
    tampered[1][0].round = Round(999_999);
    let err = check_delivery_prefixes(&sim, &tampered).unwrap_err();
    assert!(err.contains("node 1"), "{err}");
    let empty: Vec<Vec<Delivery>> = vec![Vec::new(); sim.len()];
    assert!(check_delivery_prefixes(&sim, &empty).is_err());
}
