//! Shared helpers for the FireLedger integration test suite.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use fireledger_runtime::prelude::*;
use fireledger_sim::{SimConfig, Simulation};
use std::time::Duration;

/// Standard test protocol parameters: small blocks, fast timeouts.
pub fn test_params(n: usize, workers: usize) -> ProtocolParams {
    ProtocolParams::new(n)
        .with_workers(workers)
        .with_batch_size(8)
        .with_tx_size(64)
        .with_base_timeout(Duration::from_millis(20))
}

/// A builder for a FLO cluster where the last `byzantine` nodes equivocate.
pub fn mixed_cluster(
    params: &ProtocolParams,
    byzantine: usize,
    seed: u64,
) -> ClusterBuilder<FloCluster> {
    ClusterBuilder::<FloCluster>::new(params.clone())
        .with_seed(seed)
        .with_last_k(byzantine, NodeRole::Equivocate)
}

/// The per-worker definite chain (payload hashes) of a node in a ClusterNode
/// simulation.
pub fn definite_prefix(
    sim: &Simulation<ClusterNode>,
    node: u32,
    worker: usize,
) -> Vec<fireledger_types::Hash> {
    let chain = sim.node(NodeId(node)).flo().worker(worker).chain();
    chain
        .entries()
        .iter()
        .take(chain.definite_len())
        .map(|e| e.signed_header.header.payload_hash)
        .collect()
}

/// Asserts that every pair of listed nodes agrees on the common prefix of its
/// delivered blocks.
pub fn assert_delivery_agreement<P>(sim: &Simulation<P>, nodes: &[u32])
where
    P: fireledger_types::Protocol,
    P::Msg: fireledger_types::WireCodec,
{
    let seq = |i: u32| {
        sim.deliveries(NodeId(i))
            .iter()
            .map(|d| (d.worker, d.round, d.block.header.payload_hash))
            .collect::<Vec<_>>()
    };
    let reference = seq(nodes[0]);
    for &i in &nodes[1..] {
        let other = seq(i);
        let common = reference.len().min(other.len());
        assert_eq!(
            other[..common],
            reference[..common],
            "node {i} disagrees with node {} on the delivered prefix",
            nodes[0]
        );
    }
}

/// Convenience: an ideal-network simulation of a FLO cluster built through
/// the unified builder.
pub fn flo_sim(n: usize, workers: usize, seed: u64) -> Simulation<ClusterNode> {
    let nodes = ClusterBuilder::<FloCluster>::new(test_params(n, workers))
        .with_seed(seed)
        .build()
        .expect("correct clusters always build");
    Simulation::new(SimConfig::ideal().with_seed(seed), nodes)
}
