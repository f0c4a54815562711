//! The five workloads. All are FLO; each differs from `order-n4` in one
//! respect, so a number that moves on one and not on its neighbour points
//! at the layer that respect exercises.

use crate::load::Payload;
use fireledger_crypto::SharedCrypto;
use fireledger_exec::ExecConfig;
use fireledger_runtime::{ClusterBuilder, FloCluster};
use fireledger_store::FsyncPolicy;
use fireledger_types::{FillOps, NodeId, ProtocolParams};
use std::path::Path;
use std::time::Duration;

/// WRB base timeout of every workload (the §6.1.1 timer's starting point).
const BASE_TIMEOUT: Duration = Duration::from_millis(250);

/// Accounts in the execution genesis and the executable filler's profile.
const PIPELINE_ACCOUNTS: u64 = 4096;

/// Keys the `pipeline-n4` clients' `KvPut`s spread over.
const PIPELINE_CLIENT_KEYS: u64 = 1024;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the README: why it exists.
    pub why: &'static str,
    pub n: usize,
    pub workers: usize,
    pub batch: usize,
    pub tx_size: usize,
    /// Saturated filler (the paper's "every block full") or client load only.
    pub fill: bool,
    /// Durable store (fsync every 64) + execution engine + executable filler.
    pub pipeline: bool,
    /// Open-loop client submissions per second.
    pub client_rate: f64,
    /// The node crashed part-way into every segment's window, if any.
    pub crash: Option<NodeId>,
    /// Blocks node 0 delivers in the traced single-threaded loop.
    pub loop_blocks: u64,
}

const ORDER_N4: Workload = Workload {
    name: "order-n4",
    why: "paper's headline fast path, n=4 saturated 512 B txs: bytes-heavy, so types/net/crypto/core work and store/exec idle",
    n: 4,
    workers: 2,
    batch: 100,
    tx_size: 512,
    fill: true,
    pipeline: false,
    client_rate: 500.0,
    crash: None,
    loop_blocks: 4000,
};

/// Every workload, in reporting order.
pub const ALL: [Workload; 5] = [
    ORDER_N4,
    Workload {
        name: "order-n16",
        why: "same fast path at n=16: 256 messages per block, 240 of them votes, so vote handling and the socket runtime dominate",
        n: 16,
        workers: 1,
        batch: 50,
        tx_size: 256,
        client_rate: 200.0,
        loop_blocks: 2000,
        ..ORDER_N4
    },
    Workload {
        name: "pipeline-n4",
        why: "order-n4 plus durable store, execution over 4096 accounts and KvPut clients: store and exec do most of the work",
        pipeline: true,
        // The O(state) root costs ~1.2 ms per block: fewer blocks, same time.
        loop_blocks: 1000,
        ..ORDER_N4
    },
    Workload {
        name: "clients-n4",
        why: "order-n4 without filler at a fixed 1000 tx/s: throughput is pinned, so it shows the latency cost of batching and timer changes",
        fill: false,
        client_rate: 1000.0,
        ..ORDER_N4
    },
    Workload {
        name: "crash-n4",
        why: "order-n4 with node 3 crashed 2.5 s into each segment: timers, failure detector and nil-delivery path under scheduled load",
        crash: Some(NodeId(3)),
        ..ORDER_N4
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The protocol parameters every node runs.
    pub fn params(&self) -> ProtocolParams {
        let params = ProtocolParams::new(self.n)
            .with_workers(self.workers)
            .with_batch_size(self.batch)
            .with_tx_size(self.tx_size)
            .with_base_timeout(BASE_TIMEOUT)
            .with_fill_blocks(self.fill);
        if self.pipeline {
            params.with_fill_ops(FillOps {
                accounts: PIPELINE_ACCOUNTS,
                conflict_pct: 0,
            })
        } else {
            params
        }
    }

    /// The execution genesis of `pipeline` workloads.
    pub fn exec_config(&self) -> ExecConfig {
        ExecConfig::with_genesis(PIPELINE_ACCOUNTS, 1_000_000)
    }

    /// The cluster as the real-socket segments run it: default reactor,
    /// `SimKeyStore` derived from `seed`, inline crypto, and for `pipeline`
    /// a store under `store_dir` plus the execution engine.
    pub fn socket_builder(&self, seed: u64, store_dir: &Path) -> ClusterBuilder<FloCluster> {
        let builder = ClusterBuilder::<FloCluster>::new(self.params())
            .with_seed(seed)
            .crypto_threads(1);
        if self.pipeline {
            builder
                .with_store(store_dir, FsyncPolicy::EveryN(64))
                .with_execution(self.exec_config())
        } else {
            builder
        }
    }

    /// The cluster as the traced loop runs it: the same parameters around an
    /// injected (span-recording) crypto provider, *without* store or
    /// execution — the loop applies those layers itself, one span per call,
    /// to the blocks node 0 delivers.
    pub fn loop_builder(&self, seed: u64, crypto: SharedCrypto) -> ClusterBuilder<FloCluster> {
        ClusterBuilder::<FloCluster>::new(self.params())
            .with_seed(seed)
            .with_crypto(crypto)
    }

    /// What the clients submit.
    pub fn client_payload(&self) -> Payload {
        if self.pipeline {
            Payload::KvPut {
                keys: PIPELINE_CLIENT_KEYS,
            }
        } else {
            Payload::Opaque { size: self.tx_size }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in ALL {
            assert_eq!(by_name(w.name), Some(w));
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        assert_eq!(by_name("nope"), None);
    }

    #[test]
    fn every_workload_differs_from_order_n4_as_documented() {
        let base = by_name("order-n4").unwrap();
        let clients = by_name("clients-n4").unwrap();
        assert_eq!(
            Workload {
                name: base.name,
                why: base.why,
                fill: true,
                client_rate: 500.0,
                ..clients
            },
            base
        );
        let crash = by_name("crash-n4").unwrap();
        assert_eq!(crash.crash, Some(NodeId(3)));
        assert!(by_name("pipeline-n4").unwrap().params().fill_ops.is_some());
        assert_eq!(by_name("order-n16").unwrap().params().f(), 5);
    }
}
