//! The `fireledger-exec` and `fireledger-net` surface the repo benchmark
//! calls, spelled the way `benchmark/` spells it.
//!
//! `benchmark/` is its own package outside this workspace, so `cargo test`
//! never compiles it: a signature drift in `crates/exec` or `crates/net`
//! would first show as a failed benchmark run. Each test below mirrors one
//! call site (`benchmark/src/run.rs` standalone root timing, `loopback.rs`
//! pipeline hooks, `segment.rs` execution gate and socket cluster) with the
//! same bindings, mutability and argument types, and fails tier-1 instead.

use fireledger::{AdmissionConfig, FloMsg};
use fireledger_crypto::{CryptoPool, SimKeyStore};
use fireledger_exec::{execute_block, ExecConfig, ExecShared, ExecStage, StateMachine};
use fireledger_net::{RpcClient, TcpCluster};
use fireledger_runtime::{ClusterBuilder, ClusterIngress, FloCluster};
use fireledger_types::{
    Block, BlockHeader, Bytes, Delivery, Hash, NodeId, ProtocolParams, Receipt, Round, Transaction,
    TxOp, WorkerId, GENESIS_HASH,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn put(seq: u64, key: u64) -> Transaction {
    let op = TxOp::KvPut {
        key,
        value: Bytes::from(seq.to_be_bytes().to_vec()),
    };
    Transaction::new(1, seq, op.encode_payload())
}

/// `run.rs::standalone_values`: the root of an *immutable* binding, through
/// a pool built inline from a shared key store and two scratch vectors.
#[test]
fn root_with_pool_is_callable_on_an_immutable_state() {
    let pool = CryptoPool::inline(SimKeyStore::generate(4, 0).shared());
    let state = StateMachine::with_genesis(1024, 1);
    let (mut txs, mut hashes) = (Vec::new(), Vec::new());
    let first: Hash = state.root_with_pool(&pool, &mut txs, &mut hashes);
    let again = std::hint::black_box(state.root_with_pool(&pool, &mut txs, &mut hashes));
    assert_eq!(first, again);
    assert_ne!(first, Hash([0u8; 32]));
}

/// `loopback.rs`: per-worker states built from the `ExecConfig`'s genesis
/// fields, `execute_block(&mut state, &txs, 1)`, then the root with scratch
/// vectors of the types the loop's `Pipeline` struct declares.
#[test]
fn pipeline_loop_hooks_keep_their_shape() {
    let genesis: ExecConfig = ExecConfig::with_genesis(4096, 1_000_000);
    let mut states: Vec<StateMachine> = (0..2)
        .map(|_| StateMachine::with_genesis(genesis.genesis_accounts, genesis.genesis_balance))
        .collect();
    let pool = CryptoPool::inline(SimKeyStore::generate(4, 0).shared());
    let mut tx_scratch: Vec<Transaction> = Vec::new();
    let mut hash_scratch: Vec<Hash> = Vec::new();

    let txs: Vec<Transaction> = (0..8).map(|seq| put(seq, 64 + seq)).collect();
    let state = &mut states[1];
    let before = state.root_with_pool(&pool, &mut tx_scratch, &mut hash_scratch);
    let receipts: Vec<Receipt> = execute_block(state, &txs, 1);
    assert_eq!(receipts.len(), txs.len());
    assert_eq!(
        receipts.iter().filter(|r| **r == Receipt::Applied).count(),
        8
    );
    let after = state.root_with_pool(&pool, &mut tx_scratch, &mut hash_scratch);
    assert_ne!(before, after);
    // The untouched worker's state still sits at the genesis root.
    assert_eq!(
        states[0].root_with_pool(&pool, &mut tx_scratch, &mut hash_scratch),
        before
    );
}

/// `segment.rs::check_execution`: `finish`, the `stats()` fields it reads,
/// and `prefix_root` of an `Option<u64>`; `ExecStage` is the join guard the
/// segment holds.
#[test]
fn execution_gate_reads_keep_their_shape() {
    let pool = CryptoPool::inline(SimKeyStore::generate(4, 0).shared());
    let shards: Vec<ExecShared> = (0..2)
        .map(|_| ExecShared::new(&ExecConfig::with_genesis(64, 10), pool.clone()))
        .collect();
    let stages: Vec<ExecStage> = shards.iter().map(fireledger_exec::spawn_stage).collect();
    for round in 0..3u64 {
        let txs = vec![put(round, round)];
        let header = BlockHeader::new(
            Round(round),
            WorkerId(0),
            NodeId(0),
            GENESIS_HASH,
            GENESIS_HASH,
            txs.len() as u32,
            0,
        );
        let block = Block::new(header, txs);
        for shard in &shards {
            shard.enqueue(round, &block);
        }
    }
    drop(stages);

    let (mut executed, mut applied) = (0u64, 0u64);
    for shard in &shards {
        shard.finish();
    }
    let stats: Vec<_> = shards.iter().map(|s| s.stats()).collect();
    for s in &stats {
        assert_eq!(s.root_mismatches, 0);
        executed += s.executed_txs;
        applied += s.applied_transitions();
    }
    assert_eq!((executed, applied), (6, 6));
    let common: Option<u64> = stats.iter().map(|s| s.last_round).min().flatten();
    assert_eq!(common, Some(2));
    let roots: Vec<Option<Hash>> = shards.iter().map(|s| s.prefix_root(common)).collect();
    assert!(roots[0].is_some() && roots[0] == roots[1]);
}

/// `segment.rs::SetUp`: the benchmark names the socket cluster by type.
struct SetUp {
    cluster: TcpCluster<FloMsg>,
    clients: Vec<RpcClient>,
}

/// `segment.rs::set_up` and `run`: `TcpCluster::spawn_engine` with the
/// builder's engine and no trait import, `serve_rpc` handing back one
/// address per node for `RpcClient::connect`, the wait for node 0's first
/// delivery, then `start`, `crash` and `shutdown`.
#[test]
fn socket_cluster_surface_keeps_its_shape() {
    let builder = ClusterBuilder::<FloCluster>::new(ProtocolParams::new(4).with_batch_size(10));
    let nodes = builder.build().expect("build");
    let mut cluster = TcpCluster::spawn_engine(nodes, None, None, None, &[], builder.tcp_engine())
        .expect("tcp mesh");
    let ingress = Arc::new(ClusterIngress::new(4, AdmissionConfig::default()));
    let addrs = cluster.serve_rpc(ingress).expect("rpc listeners");
    let clients = addrs[..2]
        .iter()
        .map(|addr| RpcClient::connect(*addr))
        .collect::<Result<Vec<_>, _>>()
        .expect("client connect");
    let set_up = SetUp { cluster, clients };
    let started = Instant::now();
    while set_up.cluster.delivery_times(NodeId(0)).is_empty() {
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "node 0 delivered nothing"
        );
        std::thread::sleep(Duration::from_micros(100));
    }
    let SetUp { cluster, clients } = set_up;
    let origin: Instant = cluster.start();
    assert!(origin <= Instant::now());
    cluster.crash(NodeId(3));
    drop(clients);
    let deliveries: Vec<Vec<Delivery>> = cluster.shutdown();
    assert_eq!(deliveries.len(), 4);
    assert!(!deliveries[0].is_empty());
}
