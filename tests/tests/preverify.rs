//! Acceptance tests of the parallel crypto pipeline (PR 5).
//!
//! Three claims are pinned here:
//!
//! 1. **Pipeline transparency** — a cluster built with
//!    `crypto_threads(4)` (wide pool + pre-verify stage on the real-time
//!    runtimes) delivers the *same ledger* as the inline simulator run on
//!    every runtime, for FLO and for a single worker. The pipeline moves
//!    work between threads; it must never move a decision.
//! 2. **Pre-verified-drop equals in-loop rejection** — a Byzantine node
//!    that mis-signs every header it sends is neutralized identically
//!    whether its junk is rejected on the consensus loop (no stage) or
//!    dropped on the pre-verify stage thread: the cluster keeps deciding,
//!    no corrupt-signed block is ever delivered, and all correct nodes
//!    agree — the fault-matrix spot-check for the off-loop reject path.
//! 3. **Composition with fault plans** — the stage sits between the link
//!    shim and the loop, so a lossy/delayed network with the pipeline on
//!    still yields cross-node agreement.

use fireledger::{AcceptAll, FloMsg, FloNode};
use fireledger_crypto::{CryptoPool, SimKeyStore};
use fireledger_net::RealtimeCluster;
use fireledger_runtime::prelude::*;
use fireledger_runtime::{BuildContext, FloPreVerifier};
use fireledger_types::{Delivery, Signature};
use std::sync::Arc;
use std::time::Duration;

fn params() -> ProtocolParams {
    ProtocolParams::new(4)
        .with_workers(2)
        .with_batch_size(8)
        .with_tx_size(64)
        .with_base_timeout(Duration::from_millis(250))
}

fn scenario() -> Scenario {
    Scenario::new("pipeline")
        .ideal()
        .run_for(Duration::from_millis(600))
        .with_warmup(Duration::ZERO)
}

fn deliveries_on<P: ClusterProtocol, R: Runtime>(
    runtime: &R,
    crypto_threads: usize,
) -> Vec<Vec<Delivery>> {
    runtime
        .run_full(
            &ClusterBuilder::<P>::new(params())
                .with_seed(7)
                .crypto_threads(crypto_threads),
            &scenario(),
        )
        .expect("pipeline run must succeed")
        .1
}

fn assert_pipeline_transparent<P: ClusterProtocol>(protocol: &str) {
    // The simulator is always inline; the real-time runs get the wide pool
    // *and* the pre-verify stage. Every pair must agree on ledger content.
    let sim = deliveries_on::<P, _>(&Simulator, 4);
    let threads = deliveries_on::<P, _>(&Threads, 4);
    let tcp = deliveries_on::<P, _>(&Tcp, 4);
    let vs_threads = check_delivery_prefixes(&sim, &threads)
        .unwrap_or_else(|why| panic!("{protocol}: sim vs threads+pipeline diverged: {why}"));
    let vs_tcp = check_delivery_prefixes(&sim, &tcp)
        .unwrap_or_else(|why| panic!("{protocol}: sim vs tcp+pipeline diverged: {why}"));
    assert!(vs_threads > 0 && vs_tcp > 0, "{protocol}: nothing compared");
}

#[test]
fn flo_pipeline_is_ledger_transparent_on_all_runtimes() {
    assert_pipeline_transparent::<FloCluster>("flo");
}

#[test]
fn single_worker_pipeline_is_ledger_transparent_on_all_runtimes() {
    assert_pipeline_transparent::<Worker>("wrb-obbc");
}

// ---------------------------------------------------------------------
// Pre-verified-drop vs in-loop rejection
// ---------------------------------------------------------------------

/// A crypto provider that produces garbage signatures for one node (and
/// verifies honestly): the wrapped node genuinely cannot sign, so *every*
/// avenue its headers could take — fast path, piggyback, fallback
/// evidence, pulled replies — carries an invalid signature.
struct BadSigner {
    inner: fireledger_crypto::SharedCrypto,
    culprit: fireledger_types::NodeId,
}

impl fireledger_crypto::CryptoProvider for BadSigner {
    fn sign(&self, node: fireledger_types::NodeId, msg: &[u8]) -> Signature {
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
    fn verify(&self, node: fireledger_types::NodeId, msg: &[u8], sig: &Signature) -> bool {
        self.inner.verify(node, msg, sig)
    }
    fn cluster_size(&self) -> usize {
        self.inner.cluster_size()
    }
    fn cost_model(&self) -> fireledger_crypto::CostModel {
        self.inner.cost_model()
    }
    fn scheme(&self) -> &'static str {
        "bad-signer"
    }
}

/// Runs a 4-node cluster whose node 3 mis-signs everything it signs, with
/// or without the pre-verify stage, and returns each node's deliveries.
fn run_with_corrupt_signer(with_stage: bool) -> Vec<Vec<Delivery>> {
    let n = 4;
    let params = ProtocolParams::new(n)
        .with_workers(1)
        .with_batch_size(4)
        .with_tx_size(32)
        .with_base_timeout(Duration::from_millis(60));
    let honest = SimKeyStore::generate(n, 11).shared();
    let corrupt: fireledger_crypto::SharedCrypto = Arc::new(BadSigner {
        inner: honest.clone(),
        culprit: fireledger_types::NodeId(3),
    });
    let ctx = BuildContext {
        params: params.clone(),
        crypto: honest.clone(),
        pool: CryptoPool::with_forced_threads(honest.clone(), 2),
        validity: Arc::new(AcceptAll),
    };
    let nodes: Vec<FloNode> = (0..n as u32)
        .map(|i| {
            // Node 3 signs through the corrupting provider; everyone
            // (including node 3) verifies honestly.
            let crypto = if i == 3 {
                corrupt.clone()
            } else {
                honest.clone()
            };
            let mut flo = FloNode::new(
                fireledger_types::NodeId(i),
                params.clone(),
                crypto,
                Arc::new(AcceptAll),
            );
            if with_stage {
                flo.set_crypto_pool(ctx.pool.clone());
                flo.set_preverified_ingress(true);
            }
            flo
        })
        .collect();
    let pre_verify: Option<Arc<dyn fireledger_net::PreVerify<FloMsg>>> = with_stage
        .then(|| Arc::new(FloPreVerifier::new(&ctx)) as Arc<dyn fireledger_net::PreVerify<FloMsg>>);
    let cluster = RealtimeCluster::spawn_channels(nodes, None, pre_verify, None, &[]);
    std::thread::sleep(Duration::from_millis(1_200));
    cluster.shutdown()
}

#[test]
fn preverified_drop_matches_in_loop_rejection_for_a_corrupt_signer() {
    for with_stage in [false, true] {
        let deliveries = run_with_corrupt_signer(with_stage);
        let mode = if with_stage { "stage" } else { "in-loop" };
        // Liveness: the honest majority keeps deciding (the corrupt node's
        // turns time out and are skipped).
        for (node, delivered) in deliveries.iter().take(3).enumerate() {
            assert!(
                !delivered.is_empty(),
                "{mode}: honest node {node} delivered nothing"
            );
        }
        // Safety: no block proposed by the corrupt signer is ever
        // delivered — its headers never verify, wherever the check ran.
        for (node, ds) in deliveries.iter().enumerate() {
            for d in ds {
                assert_ne!(
                    d.proposer,
                    fireledger_types::NodeId(3),
                    "{mode}: node {node} delivered a corrupt-signed block"
                );
            }
        }
        // Agreement: all correct nodes share prefixes.
        let correct: Vec<Vec<Delivery>> = deliveries[..3].to_vec();
        let compared = check_delivery_prefixes(&correct, &correct.clone())
            .unwrap_or_else(|why| panic!("{mode}: self-check failed: {why}"));
        assert!(compared > 0);
        for a in 0..3 {
            for b in (a + 1)..3 {
                let common = deliveries[a].len().min(deliveries[b].len());
                assert_eq!(
                    deliveries[a][..common],
                    deliveries[b][..common],
                    "{mode}: nodes {a} and {b} disagree"
                );
            }
        }
    }
}

#[test]
fn pipeline_composes_with_fault_plans() {
    use fireledger_types::{FaultPlan, FaultWindow, LinkSelector};
    // A delayed network with the pipeline on: the stage sits after the
    // link shim, so adversity and off-loop verification compose; the
    // cluster must still reach cross-node agreement.
    let plan = FaultPlan::named("laggy-pipeline").delay(
        LinkSelector::All,
        FaultWindow::ALWAYS,
        Duration::from_millis(1),
        Duration::from_millis(5),
    );
    let cluster = ClusterBuilder::<FloCluster>::new(params())
        .with_seed(3)
        .crypto_threads(4);
    let scenario = Scenario::new("laggy-pipeline")
        .ideal()
        .with_faults(plan)
        .run_for(Duration::from_millis(800))
        .with_warmup(Duration::ZERO);
    let (report, deliveries) = Threads
        .run_full(&cluster, &scenario)
        .expect("faulty pipeline run");
    assert!(report.bps > 0.0, "no progress under delay + pipeline");
    for a in 0..4 {
        for b in (a + 1)..4 {
            let common = deliveries[a].len().min(deliveries[b].len());
            assert_eq!(
                deliveries[a][..common],
                deliveries[b][..common],
                "nodes {a} and {b} disagree under delay + pipeline"
            );
        }
    }
}
