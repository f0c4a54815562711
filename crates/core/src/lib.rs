//! # FireLedger
//!
//! A from-scratch Rust implementation of **FireLedger**, the high-throughput
//! optimistic permissioned blockchain consensus protocol of Buchnik &
//! Friedman (VLDB 2020), together with **FLO**, the multi-worker orchestrator
//! the paper evaluates.
//!
//! FireLedger trades latency for throughput: the last `f + 1` blocks of every
//! node's chain are *tentative* and may still be rescinded if one of their
//! proposers turns out to be Byzantine, but in the optimistic case — correct
//! proposer, timely network — a new block is decided in **every communication
//! step**, with the proposer sending its block and every other node sending a
//! single bit. The protocol implements the `BBFC(f+1)` abstraction defined in
//! the paper (§3.3).
//!
//! ## Crate layout
//!
//! * [`worker`] — one FireLedger instance (Algorithm 2) with the recovery
//!   procedure (Algorithm 3), block/header separation, the adaptive timeout
//!   and the benign failure detector of §6.1.1; each attempt's OBBC
//!   (Algorithm 4) vote state is a private `obbc` record;
//! * [`flo`] — the FLO node: ω workers, a client manager and the round-robin
//!   delivery merge of §6.2;
//! * [`chain`], [`txpool`], [`validity`], [`timer`], [`fd`], [`proposer`] —
//!   the building blocks;
//! * [`sync`] — the state-sync synchronizer: late-join / catch-up block
//!   fetch over the definite prefix;
//! * [`messages`] — the wire protocol;
//! * [`byzantine`] — scripted Byzantine node variants used by the evaluation.
//!
//! This crate holds *protocol semantics only*: every type here is a sans-IO
//! state machine implementing [`fireledger_types::Protocol`]. Assembling a
//! cluster, choosing a topology and workload, and driving the nodes on a
//! runtime (deterministic simulator or real threads) is the job of the
//! `fireledger-runtime` facade crate — experiments, examples and tests all go
//! through its `ClusterBuilder` / `Scenario` / `Runtime` surface.
//!
//! ## Quick start
//!
//! ```
//! use fireledger_runtime::prelude::*;
//! use std::time::Duration;
//!
//! // A 4-node FLO cluster, one worker each, 10-transaction blocks ...
//! let params = ProtocolParams::new(4).with_batch_size(10).with_tx_size(256);
//! let cluster = ClusterBuilder::<FloCluster>::new(params).with_seed(42);
//!
//! // ... driven for one simulated second on the single-DC network model.
//! let scenario = Scenario::new("quickstart")
//!     .single_dc()
//!     .run_for(Duration::from_secs(1));
//! let report = Simulator.run(&cluster, &scenario).unwrap();
//!
//! // Every node delivered the same totally-ordered prefix of full blocks.
//! assert!(report.tps > 0.0);
//! assert!(report.per_node.iter().all(|n| n.blocks > 0));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod admission;
pub mod byzantine;
pub mod chain;
pub mod fd;
pub mod flo;
pub mod messages;
mod obbc;
pub mod proposer;
pub mod sync;
pub mod timer;
pub mod txpool;
pub mod validity;
pub mod worker;

pub use admission::{AdmissionConfig, Availability, IngressGate, IngressStats, LaneStats};
pub use byzantine::{ClusterNode, EquivocatingNode, SilentProposerNode};
pub use chain::{Chain, ChainEntry, Version};
pub use fd::FailureDetector;
pub use flo::FloNode;
pub use messages::{ConsensusValue, FloMsg, PanicProof, WorkerMsg};
pub use proposer::{ProposerChoice, ProposerRotation};
pub use sync::{SyncPhase, SyncStep, Synchronizer};
pub use timer::EmaTimer;
pub use txpool::TxPool;
pub use validity::{AcceptAll, PredicateFn, SharedValidity, StructuralLimits, ValidityPredicate};
pub use worker::Worker;

/// Commonly used types, re-exported for `use fireledger::prelude::*`.
pub mod prelude {
    pub use crate::{AcceptAll, ClusterNode, FloNode, ValidityPredicate, Worker};
    pub use fireledger_types::{
        Block, BlockHeader, ClusterConfig, Delivery, NodeId, ProtocolParams, Round, SignedHeader,
        Transaction, WorkerId,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireledger_crypto::{SharedCrypto, SimKeyStore};
    use fireledger_sim::{SimConfig, Simulation};
    use fireledger_types::{NodeId, ProtocolParams};
    use std::sync::Arc;
    use std::time::Duration;

    fn cluster(params: &ProtocolParams, seed: u64) -> Vec<FloNode> {
        let crypto: SharedCrypto = SimKeyStore::generate(params.n(), seed).shared();
        (0..params.n())
            .map(|i| {
                FloNode::new(
                    NodeId(i as u32),
                    params.clone(),
                    crypto.clone(),
                    Arc::new(AcceptAll),
                )
            })
            .collect()
    }

    #[test]
    fn flo_nodes_share_one_key_directory() {
        let params = ProtocolParams::new(7).with_workers(2);
        let nodes = cluster(&params, 1);
        assert_eq!(nodes.len(), 7);
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.node(), NodeId(i as u32));
            assert_eq!(node.worker_count(), 2);
        }
    }

    #[test]
    fn minimal_cluster_decides_blocks() {
        let params = ProtocolParams::new(4)
            .with_batch_size(10)
            .with_tx_size(256)
            .with_base_timeout(Duration::from_millis(20));
        let nodes = cluster(&params, 42);
        let mut sim = Simulation::new(SimConfig::ideal(), nodes);
        sim.run_for(Duration::from_millis(500));
        assert!(!sim.deliveries(NodeId(0)).is_empty());
    }
}
