//! The execution engine's acceptance battery: differential, property, and
//! cross-runtime state-root identity.
//!
//! Three layers, one claim — execution is a *pure function of the committed
//! ledger*, independent of parallelism width, pipeline scheduling, restarts,
//! and the runtime that delivered the blocks:
//!
//! * **Differential** — the pipelined engine ([`ExecShared`] over the
//!   conflict-partitioned apply) against the naive serial reference
//!   ([`SerialExecutor`]): bit-identical state roots after *every* block and
//!   bit-identical receipts for every transaction, at widths 1, 2 and 4.
//!   The default run covers a few hundred randomized blocks; the `--ignored`
//!   companion grinds 10 000.
//! * **Property ×24** — randomized adversarial op streams (duplicate
//!   account creation, zero-amount transfers, nonce gaps, hot-key
//!   collisions, malformed and opaque payloads): replaying the same
//!   committed ledger twice yields the same root, including a replay through
//!   `fireledger-store` — append, reopen as a kill-9 survivor would, decode,
//!   re-execute — and an in-place [`ExecShared::reset`] replay. A torn tail
//!   recovers to the root of the longest valid prefix.
//! * **Identity matrix** — FLO and Worker clusters on the simulator and the
//!   TCP runtime agree on the per-round execution roots (the roots headers
//!   carry under the `k − (f+3)` lag rule), in fault-free runs and under the
//!   partition-heal catalog plan. Under crash-recover the two runtimes
//!   legally follow different proposer sequences from the real run's crash
//!   round on, so there each runtime's roots must equal a serial
//!   re-execution of its own ledger, and the two runtimes must agree on the
//!   prefix before either ledger leaves the fault-free proposer rotation.

use fireledger_crypto::{CryptoPool, SimKeyStore};
use fireledger_exec::{execute_block, ExecConfig, ExecShared, SerialExecutor, StateMachine};
use fireledger_runtime::catalog;
use fireledger_runtime::prelude::*;
use fireledger_store::{inject, FsyncPolicy as StorePolicy, NodeStore};
use fireledger_types::{
    Block, BlockHeader, Bytes, DetRng, Hash, NodeId, Receipt, Round, Signature, SignedHeader,
    StoredBlock, Transaction, TxOp, WireCodec, WorkerId, GENESIS_HASH, OP_MAGIC,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const GENESIS_ACCOUNTS: u64 = 32;
const GENESIS_BALANCE: u64 = 10_000;

fn pool() -> CryptoPool {
    CryptoPool::inline(Arc::new(SimKeyStore::generate(4, 0)))
}

fn exec_at_width(width: usize) -> ExecShared {
    let cfg = ExecConfig {
        apply_width: width,
        ..ExecConfig::with_genesis(GENESIS_ACCOUNTS, GENESIS_BALANCE)
    };
    ExecShared::new(&cfg, pool())
}

fn block(round: u64, txs: Vec<Transaction>) -> Block {
    let header = BlockHeader::new(
        Round(round),
        WorkerId(0),
        NodeId(0),
        GENESIS_HASH,
        GENESIS_HASH,
        txs.len() as u32,
        0,
    );
    Block::new(header, txs)
}

fn op_tx(client: u64, seq: u64, op: &TxOp) -> Transaction {
    Transaction {
        client,
        seq,
        payload: op.encode_payload(),
    }
}

/// One randomized adversarial transaction. The generator deliberately
/// produces every failure mode the receipt vocabulary names: duplicate
/// account creation, transfers from/to missing accounts, zero-amount
/// transfers, nonce gaps (random nonces against densely incremented
/// state), CAS races on a tiny key space, oversized-free malformed
/// payloads, and opaque filler.
fn adversarial_tx(rng: &mut DetRng, seq: u64) -> Transaction {
    // A key space just past genesis, so "exists" vs "missing" both happen,
    // and a hot sub-space so ops collide on the same keys constantly.
    let account = |rng: &mut DetRng| {
        if rng.gen_below(3) == 0 {
            rng.gen_below(4) // hot: guaranteed collisions
        } else {
            rng.gen_below(GENESIS_ACCOUNTS + 8)
        }
    };
    let kv_key = |rng: &mut DetRng| rng.gen_below(12);
    match rng.gen_below(12) {
        0 | 1 => {
            // Half of these hit an existing id — the duplicated-account case.
            let target = account(rng);
            op_tx(
                target,
                seq,
                &TxOp::CreateAccount {
                    account: target,
                    balance: rng.gen_below(500),
                },
            )
        }
        2..=5 => {
            let from = account(rng);
            // Zero amounts and nonce gaps are the point, not an accident.
            let amount = if rng.gen_below(4) == 0 {
                0
            } else {
                rng.gen_below(300)
            };
            let nonce = rng.gen_below(6);
            op_tx(
                from,
                seq,
                &TxOp::Transfer {
                    from,
                    to: account(rng),
                    amount,
                    nonce,
                },
            )
        }
        6 | 7 => op_tx(
            5,
            seq,
            &TxOp::KvPut {
                key: kv_key(rng),
                value: Bytes::from(vec![rng.next_u64() as u8; (rng.gen_below(8) + 1) as usize]),
            },
        ),
        8 => op_tx(5, seq, &TxOp::KvDelete { key: kv_key(rng) }),
        9 => {
            let expect = if rng.gen_below(2) == 0 {
                None
            } else {
                Some(Bytes::from(vec![rng.next_u64() as u8]))
            };
            op_tx(
                5,
                seq,
                &TxOp::Cas {
                    key: kv_key(rng),
                    expect,
                    swap: Bytes::from(vec![rng.next_u64() as u8; 2]),
                },
            )
        }
        10 => Transaction {
            // Malformed: carries the op magic but decodes to garbage.
            client: 6,
            seq,
            payload: Bytes::from(vec![OP_MAGIC, 0xFF, 0xFF]),
        },
        _ => Transaction::zeroed(7, seq, 24),
    }
}

fn random_ledger(seed: u64, blocks: usize, max_txs: u64) -> Vec<Vec<Transaction>> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut seq = 0u64;
    (0..blocks)
        .map(|_| {
            let len = rng.gen_below(max_txs) + 1;
            (0..len)
                .map(|_| {
                    seq += 1;
                    adversarial_tx(&mut rng, seq)
                })
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Differential: pipelined vs naive serial reference.
// ---------------------------------------------------------------------------

/// Runs `blocks` randomized blocks through the serial reference once, then
/// through the full pipelined engine at every width — demanding bit-equal
/// receipts per transaction and bit-equal roots after every single block.
fn differential(blocks: usize, seed: u64) {
    let ledger = random_ledger(seed, blocks, 64);
    // The specification: strictly serial execution, sequential merkle root.
    let mut serial = SerialExecutor::with_genesis(GENESIS_ACCOUNTS, GENESIS_BALANCE);
    let mut expected: Vec<(Vec<Receipt>, Hash)> = Vec::with_capacity(ledger.len());
    for txs in &ledger {
        let receipts = serial.execute_block(txs);
        expected.push((receipts, serial.root()));
    }
    for width in [1usize, 2, 4] {
        // Receipt differential: the conflict-partitioned apply at this width.
        let mut state = StateMachine::with_genesis(GENESIS_ACCOUNTS, GENESIS_BALANCE);
        // Root differential: the full shared pipeline (queue + lagged roots).
        let exec = exec_at_width(width);
        for (round, txs) in ledger.iter().enumerate() {
            let receipts = execute_block(&mut state, txs, width);
            assert_eq!(
                receipts, expected[round].0,
                "receipts diverged from serial reference: block {round}, width {width}"
            );
            exec.enqueue(round as u64, &block(round as u64, txs.clone()));
            // Every root, not just the last: a transient divergence that
            // happened to cancel out later must still fail.
            assert_eq!(
                exec.prefix_root(Some(round as u64)),
                Some(expected[round].1),
                "state root diverged from serial reference: block {round}, width {width}"
            );
        }
        let stats = exec.stats();
        assert_eq!(stats.executed_blocks, ledger.len() as u64);
        assert_eq!(
            stats.executed_txs,
            ledger.iter().map(|b| b.len() as u64).sum::<u64>()
        );
    }
}

#[test]
fn pipelined_execution_matches_serial_reference_at_widths_1_2_4() {
    differential(250, 0xD1FF);
}

/// The full-depth grind: 10 000 randomized blocks per width. Run with
/// `cargo test -p fireledger-integration-tests -- --ignored exec_matrix`.
#[test]
#[ignore = "10k-block differential grind; the smoke variant runs by default"]
fn pipelined_execution_matches_serial_reference_over_10k_blocks() {
    differential(10_000, 0xD1FF_1000);
}

#[test]
fn stage_thread_execution_matches_inline_execution() {
    // The tcp runtime drains through a dedicated stage thread; the
    // simulator drains inline on enqueue. Same ledger, same root — the
    // scheduling seam must be invisible in the state.
    let ledger = random_ledger(0x57A6E, 120, 48);
    let inline = exec_at_width(2);
    for (round, txs) in ledger.iter().enumerate() {
        inline.enqueue(round as u64, &block(round as u64, txs.clone()));
    }
    let staged = exec_at_width(2);
    {
        let _stage = fireledger_exec::spawn_stage(&staged);
        for (round, txs) in ledger.iter().enumerate() {
            staged.enqueue(round as u64, &block(round as u64, txs.clone()));
        }
        // Dropping the stage shuts it down after the queue drains.
    }
    staged.finish();
    assert_eq!(staged.latest_root(), inline.latest_root());
    assert_eq!(
        staged.stats().executed_blocks,
        inline.stats().executed_blocks
    );
    assert_eq!(staged.stats().receipts, inline.stats().receipts);
}

// ---------------------------------------------------------------------------
// The incremental state root: history independence and clone independence.
// ---------------------------------------------------------------------------

/// Sparse keys that stress the root's radix tree: the extremes, and pairs
/// differing only in the top or the bottom bit.
fn sparse_keys(rng: &mut DetRng) -> Vec<u64> {
    let mut keys = vec![0, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1];
    for _ in 0..20 {
        let base = rng.next_u64();
        keys.extend([base, base ^ 1, base ^ (1 << 63)]);
    }
    keys.sort_unstable();
    keys.dedup();
    keys
}

#[test]
fn state_root_is_independent_of_block_order_and_delete_detours() {
    // Blocks whose ops commute (each key is written by exactly one op), so
    // every block order must end in the same state — and one root.
    let mut rng = DetRng::seed_from_u64(0x0DE7);
    let keys = sparse_keys(&mut rng);
    let mut seq = 0u64;
    let mut next_seq = || {
        seq += 1;
        seq
    };
    let blocks: Vec<Vec<Transaction>> = keys
        .chunks(20)
        .map(|chunk| {
            chunk
                .iter()
                .flat_map(|&key| {
                    [
                        TxOp::CreateAccount {
                            account: key,
                            balance: key % 1000,
                        },
                        TxOp::KvPut {
                            key,
                            value: Bytes::from(key.to_be_bytes().to_vec()),
                        },
                    ]
                })
                .map(|op| op_tx(1, next_seq(), &op))
                .collect()
        })
        .collect();
    // A detour block: entries that come and go again within one block.
    let detour: Vec<Transaction> = (0..24u64)
        .flat_map(|i| {
            let key = rng.next_u64() | 1 << 40;
            [
                TxOp::KvPut {
                    key,
                    value: Bytes::from(vec![i as u8; 3]),
                },
                TxOp::KvDelete { key },
            ]
        })
        .map(|op| op_tx(2, next_seq(), &op))
        .collect();

    let mut serial = SerialExecutor::new();
    for txs in &blocks {
        serial.execute_block(txs);
    }
    let expected = serial.root();
    assert_ne!(expected, Hash([0u8; 32]));

    for width in [1usize, 2, 4] {
        let cfg = ExecConfig {
            apply_width: width,
            ..ExecConfig::default()
        };
        let forward = ExecShared::new(&cfg, pool());
        let backward = ExecShared::new(&cfg, pool());
        let mut round = 0u64;
        for txs in &blocks {
            forward.enqueue(round, &block(round, txs.clone()));
            round += 1;
        }
        round = 0;
        for txs in blocks.iter().rev() {
            backward.enqueue(round, &block(round, txs.clone()));
            round += 1;
            backward.enqueue(round, &block(round, detour.clone()));
            round += 1;
        }
        assert_eq!(forward.latest_root(), expected, "width {width}");
        assert_eq!(backward.latest_root(), expected, "width {width}");
    }
}

#[test]
fn a_cloned_state_diverges_independently_of_its_source() {
    let ledger = random_ledger(0xC10E, 40, 48);
    let crypto = pool();
    let root = |state: &StateMachine| {
        let root = state.root_with_pool(&crypto, &mut Vec::new(), &mut Vec::new());
        assert_eq!(root, state.root_serial(), "incremental vs from-scratch");
        root
    };
    let mut source = StateMachine::with_genesis(GENESIS_ACCOUNTS, GENESIS_BALANCE);
    let (shared, tail) = ledger.split_at(20);
    for txs in shared {
        execute_block(&mut source, txs, 2);
        root(&source);
    }
    // The clone carries the source's digest cache; from here on each side
    // must answer for its own writes only.
    let mut clone = source.clone();
    let fork_root = root(&source);
    assert_eq!(root(&clone), fork_root);
    for txs in tail {
        execute_block(&mut clone, txs, 2);
        root(&clone);
        assert_eq!(root(&source), fork_root, "the source moved with its clone");
    }
    assert_ne!(root(&clone), fork_root);
    let clone_root = root(&clone);
    for txs in tail.iter().rev() {
        execute_block(&mut source, txs, 2);
        root(&source);
        assert_eq!(root(&clone), clone_root, "the clone moved with its source");
    }
}

// ---------------------------------------------------------------------------
// Property ×24: replay determinism, through memory and through the store.
// ---------------------------------------------------------------------------

/// A unique, pre-cleaned store directory per call (tests share a process).
fn store_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fl-exec-matrix-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn replay_root(ledger: &[Vec<Transaction>]) -> Hash {
    let exec = exec_at_width(2);
    for (round, txs) in ledger.iter().enumerate() {
        exec.enqueue(round as u64, &block(round as u64, txs.clone()));
    }
    exec.latest_root()
}

fn stored(round: u64, txs: &[Transaction]) -> Vec<u8> {
    let header = BlockHeader::new(
        Round(round),
        WorkerId(0),
        NodeId(0),
        GENESIS_HASH,
        GENESIS_HASH,
        txs.len() as u32,
        0,
    );
    StoredBlock {
        worker: WorkerId(0),
        signed_header: SignedHeader::new(header, Signature::empty()),
        txs: txs.to_vec(),
    }
    .encode()
}

#[test]
fn replaying_the_same_committed_ledger_always_yields_the_same_root() {
    for seed in 0..24u64 {
        let ledger = random_ledger(seed, 24, 40);
        let first = replay_root(&ledger);

        // Property 1: a second independent executor replays to the same root.
        assert_eq!(replay_root(&ledger), first, "replay diverged: seed {seed}");

        // Property 2: an in-place reset (the restart-from-disk path inside a
        // live node) replays to the same root and counts the reset.
        let exec = exec_at_width(2);
        for (round, txs) in ledger.iter().enumerate() {
            exec.enqueue(round as u64, &block(round as u64, txs.clone()));
        }
        exec.reset();
        for (round, txs) in ledger.iter().enumerate() {
            exec.enqueue(round as u64, &block(round as u64, txs.clone()));
        }
        assert_eq!(
            exec.latest_root(),
            first,
            "reset replay diverged: seed {seed}"
        );
        assert_eq!(exec.stats().resets, 1);

        // Property 3: the ledger survives a trip through the durable store —
        // append every block with per-append fsync (so an abrupt death loses
        // nothing), reopen the directory the way a kill-9 restart does, and
        // re-execute exactly what recovery scanned off the disk.
        let dir = store_dir("replay");
        {
            let (store, recovered) =
                NodeStore::open(&dir, StorePolicy::Always).expect("open fresh store");
            assert!(recovered.blocks.is_empty());
            for (round, txs) in ledger.iter().enumerate() {
                store
                    .append_block(stored(round as u64, txs))
                    .expect("append block");
            }
            store.flush();
        }
        let (_store, recovered) =
            NodeStore::open(&dir, StorePolicy::Always).expect("reopen after kill");
        assert_eq!(recovered.blocks.len(), ledger.len(), "seed {seed}");
        let exec = exec_at_width(2);
        for (round, (_kind, payload)) in recovered.blocks.iter().enumerate() {
            let block_from_disk = StoredBlock::decode(payload).expect("decode stored block");
            assert_eq!(block_from_disk.txs, ledger[round]);
            exec.enqueue(
                round as u64,
                &block(round as u64, block_from_disk.txs.clone()),
            );
        }
        assert_eq!(
            exec.latest_root(),
            first,
            "restart-from-disk replay diverged: seed {seed}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn torn_tail_recovery_replays_to_the_root_of_the_valid_prefix() {
    // The crash-consistency corner of the replay property: chop bytes off
    // the block log mid-record, reopen, and the recovered prefix must
    // execute to exactly the serial root of that prefix — never a root of
    // some half-applied block.
    for seed in [3u64, 11, 19] {
        let ledger = random_ledger(seed, 16, 32);
        let dir = store_dir("torn");
        {
            let (store, _) = NodeStore::open(&dir, StorePolicy::Always).expect("open");
            for (round, txs) in ledger.iter().enumerate() {
                store
                    .append_block(stored(round as u64, txs))
                    .expect("append");
            }
            store.flush();
        }
        inject::torn_write(&dir, 37).expect("tear the tail");
        let (_store, recovered) = NodeStore::open(&dir, StorePolicy::Always).expect("reopen");
        let prefix = recovered.blocks.len();
        assert!(
            prefix < ledger.len(),
            "the torn write must cost at least the damaged record: seed {seed}"
        );
        let mut serial = SerialExecutor::with_genesis(GENESIS_ACCOUNTS, GENESIS_BALANCE);
        for txs in &ledger[..prefix] {
            serial.execute_block(txs);
        }
        let exec = exec_at_width(4);
        for (round, (_kind, payload)) in recovered.blocks.iter().enumerate() {
            let from_disk = StoredBlock::decode(payload).expect("decode");
            exec.enqueue(round as u64, &block(round as u64, from_disk.txs.clone()));
        }
        assert_eq!(
            exec.latest_root(),
            serial.root(),
            "torn-tail prefix root diverged: seed {seed}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Cross-runtime state-root identity matrix.
// ---------------------------------------------------------------------------

fn matrix_params(workers: usize) -> ProtocolParams {
    // Saturated mode with *executable* filler: block contents stay a pure
    // function of (proposer, filler sequence) — the property the ledger
    // identity matrix already relies on — while every block now moves the
    // execution state. Real-time ingress would admit different transactions
    // per runtime and make roots incomparable by construction.
    ProtocolParams::new(4)
        .with_workers(workers)
        .with_batch_size(8)
        .with_tx_size(64)
        .with_base_timeout(Duration::from_millis(250))
        .with_fill_ops(fireledger_types::FillOps {
            accounts: GENESIS_ACCOUNTS,
            conflict_pct: 50,
        })
}

fn matrix_scenario(name: &str, plan: Option<FaultPlan>) -> Scenario {
    // Fault plans need room for the fault window (injected at 250 ms,
    // healed at 500 ms) plus a post-heal tail; fault-free runs keep the
    // matrix cheap with a shorter window.
    let duration = if plan.is_some() { 900 } else { 600 };
    let s = Scenario::new(name)
        .ideal()
        .run_for(Duration::from_millis(duration))
        .with_warmup(Duration::ZERO)
        .with_seed(7);
    match plan {
        Some(plan) => s.with_faults(plan),
        None => s,
    }
}

/// Runs one protocol on one runtime and extracts, per worker stream, the
/// executed state root after every round up to the deepest round *every*
/// node of that stream has executed. Asserts intra-cluster identity (all
/// nodes agree on every per-round root) before returning node 0's trace,
/// together with every node's delivered ledger.
fn exec_root_trace<P: ClusterProtocol, R: Runtime>(
    runtime: &R,
    workers: usize,
    plan: Option<FaultPlan>,
) -> (Vec<Vec<Hash>>, Vec<Vec<Delivery>>) {
    let builder = ClusterBuilder::<P>::new(matrix_params(workers))
        .with_seed(7)
        // The trace below reads the root of *every* round after the run,
        // so the retention window has to outlast whatever a runtime gets
        // through in the scenario (tcp: up to a few thousand rounds).
        .with_execution(ExecConfig {
            root_retention: 1 << 20,
            ..ExecConfig::with_genesis(GENESIS_ACCOUNTS, GENESIS_BALANCE)
        });
    let plan_name = plan.as_ref().map(|p| p.name.clone()).unwrap_or_default();
    let scenario = matrix_scenario("exec-identity", plan);
    let (report, deliveries) = runtime
        .run_full(&builder, &scenario)
        .unwrap_or_else(|e| panic!("identity run failed on {}: {e}", runtime.name()));
    assert_eq!(
        report.execution.root_mismatches,
        0,
        "{} {plan_name}: delivered headers carried diverging roots",
        runtime.name()
    );
    let shards = builder.exec_shards().expect("execution was enabled");
    let nodes = shards.len();
    let trace = (0..shards[0].len())
        .map(|w| {
            let common = (0..nodes)
                .filter_map(|n| shards[n][w].stats().last_round)
                .min()
                .unwrap_or_else(|| {
                    panic!(
                        "{} {plan_name}: worker {w} executed nothing on any node",
                        runtime.name()
                    )
                });
            (0..=common)
                .map(|r| {
                    let roots: Vec<Option<Hash>> = (0..nodes)
                        .map(|n| shards[n][w].prefix_root(Some(r)))
                        .collect();
                    let first = roots[0].unwrap_or_else(|| {
                        panic!("{}: worker {w} round {r} has no root", runtime.name())
                    });
                    for (n, root) in roots.iter().enumerate() {
                        assert_eq!(
                            *root,
                            Some(first),
                            "{} {plan_name}: node {n} diverged on worker {w} round {r}",
                            runtime.name()
                        );
                    }
                    first
                })
                .collect()
        })
        .collect();
    (trace, deliveries)
}

/// Cross-runtime comparison: runtimes cover different amounts of protocol
/// time in the same scenario, so traces are compared on their common prefix
/// — which must be non-empty and bit-identical.
fn assert_trace_prefixes(a: &[Vec<Hash>], b: &[Vec<Hash>], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: worker stream counts differ");
    for (w, (ta, tb)) in a.iter().zip(b).enumerate() {
        let common = ta.len().min(tb.len());
        assert!(
            common > 0,
            "{context}: worker {w} has no common executed prefix"
        );
        assert_eq!(
            &ta[..common],
            &tb[..common],
            "{context}: execution roots diverged on worker {w}"
        );
    }
}

fn assert_root_identity<P: ClusterProtocol>(
    protocol: &str,
    workers: usize,
    plan: Option<FaultPlan>,
) {
    let (sim, _) = exec_root_trace::<P, _>(&Simulator, workers, plan.clone());
    let (tcp, _) = exec_root_trace::<P, _>(&Tcp, workers, plan);
    assert_trace_prefixes(&sim, &tcp, &format!("{protocol}: sim vs tcp"));
    assert_roots_move(&sim, protocol);
}

/// The roots must actually move: a trace frozen at the genesis root would
/// pass identity vacuously.
fn assert_roots_move(trace: &[Vec<Hash>], protocol: &str) {
    let moved = trace
        .iter()
        .any(|t| t.windows(2).any(|w| w[0] != w[1]) || t.len() == 1);
    assert!(
        trace.iter().any(|t| t.len() > 1) && moved,
        "{protocol}: no state transitions reached the executor"
    );
}

/// Node 0's delivered ledger of worker stream `w`, in delivery order.
fn worker_ledger(deliveries: &[Vec<Delivery>], w: usize) -> Vec<&Delivery> {
    deliveries[0]
        .iter()
        .filter(|d| d.worker == WorkerId(w as u32))
        .collect()
}

/// Every per-round root of `trace` equals the root a [`SerialExecutor`]
/// reaches by re-executing the same runtime's own delivered ledger. FLO's
/// merge delivers a worker's block a little after the worker executed it,
/// so the comparison covers the rounds both have reached.
fn assert_roots_replay_own_ledger(
    trace: &[Vec<Hash>],
    deliveries: &[Vec<Delivery>],
    context: &str,
) {
    for (w, roots) in trace.iter().enumerate() {
        let ledger = worker_ledger(deliveries, w);
        let replayed = roots.len().min(ledger.len());
        assert!(replayed > 0, "{context}: worker {w} delivered nothing");
        let mut serial = SerialExecutor::with_genesis(GENESIS_ACCOUNTS, GENESIS_BALANCE);
        for (r, (root, d)) in roots.iter().zip(&ledger).enumerate() {
            assert_eq!(
                d.round,
                Round(r as u64),
                "{context}: worker {w} ledger has a gap"
            );
            serial.execute_block(&d.block.txs);
            assert_eq!(
                *root,
                serial.root(),
                "{context}: worker {w} round {r} root differs from a serial re-execution of the runtime's own ledger"
            );
        }
    }
}

/// The length of `ledger`'s prefix that follows the fault-free proposer
/// rotation: each round proposed by the successor of the previous round's
/// proposer among `n` nodes.
fn rotation_prefix(ledger: &[&Delivery], n: u32) -> usize {
    ledger
        .windows(2)
        .position(|w| w[1].proposer.0 != (w[0].proposer.0 + 1) % n)
        .map_or(ledger.len(), |i| i + 1)
}

/// Sim and tcp agree — ledgers and per-round roots — on every round before
/// the first at which either ledger leaves the fault-free rotation.
fn assert_runtimes_agree_before_the_rotation_breaks(
    (sim, sim_ledgers): (&[Vec<Hash>], &[Vec<Delivery>]),
    (tcp, tcp_ledgers): (&[Vec<Hash>], &[Vec<Delivery>]),
    protocol: &str,
) {
    assert_eq!(
        sim.len(),
        tcp.len(),
        "{protocol}: worker stream counts differ"
    );
    for w in 0..sim.len() {
        let (sim_ledger, tcp_ledger) =
            (worker_ledger(sim_ledgers, w), worker_ledger(tcp_ledgers, w));
        let common = rotation_prefix(&sim_ledger, 4)
            .min(rotation_prefix(&tcp_ledger, 4))
            .min(sim[w].len())
            .min(tcp[w].len());
        assert!(
            common > 0,
            "{protocol}: worker {w} has no common executed prefix in rotation"
        );
        assert_eq!(
            sim_ledger[..common],
            tcp_ledger[..common],
            "{protocol}: sim vs tcp ledgers diverged on worker {w} before the rotation broke"
        );
        assert_eq!(
            sim[w][..common],
            tcp[w][..common],
            "{protocol}: sim vs tcp execution roots diverged on worker {w} before the rotation broke"
        );
    }
}

/// The crash-recover form of the identity matrix. The crash lands at 250 ms
/// of wall time on tcp and of virtual time on the simulator, so the two
/// runs reach it at different rounds; from there each follows its own legal
/// proposer sequence. So each runtime's roots are checked against a serial
/// re-execution of its own ledger, and the runtimes against each other on
/// the prefix before either ledger leaves the fault-free rotation.
fn assert_crash_recover_roots<P: ClusterProtocol>(protocol: &str, workers: usize) {
    let plan =
        catalog::crash_recover_last(4, Duration::from_millis(250), Duration::from_millis(500));
    let (sim, sim_ledgers) = exec_root_trace::<P, _>(&Simulator, workers, Some(plan.clone()));
    let (tcp, tcp_ledgers) = exec_root_trace::<P, _>(&Tcp, workers, Some(plan));
    assert_roots_replay_own_ledger(&sim, &sim_ledgers, &format!("{protocol}: sim"));
    assert_roots_replay_own_ledger(&tcp, &tcp_ledgers, &format!("{protocol}: tcp"));
    assert_runtimes_agree_before_the_rotation_breaks(
        (&sim, &sim_ledgers),
        (&tcp, &tcp_ledgers),
        protocol,
    );
    assert_roots_move(&sim, protocol);
}

#[test]
fn flo_state_roots_agree_on_all_three_runtimes() {
    assert_root_identity::<FloCluster>("flo", 2, None);
}

#[test]
fn worker_state_roots_agree_on_all_three_runtimes() {
    assert_root_identity::<Worker>("worker", 1, None);
}

#[test]
fn flo_state_root_identity_survives_partition_heal() {
    let plan = catalog::partition_heal(4, Duration::from_millis(250), Duration::from_millis(500));
    assert_root_identity::<FloCluster>("flo/partition-heal", 2, Some(plan));
}

#[test]
fn worker_state_root_identity_survives_partition_heal() {
    let plan = catalog::partition_heal(4, Duration::from_millis(250), Duration::from_millis(500));
    assert_root_identity::<Worker>("worker/partition-heal", 1, Some(plan));
}

#[test]
fn flo_state_root_identity_survives_crash_recover() {
    assert_crash_recover_roots::<FloCluster>("flo/crash-recover", 2);
}

#[test]
fn worker_state_root_identity_survives_crash_recover() {
    assert_crash_recover_roots::<Worker>("worker/crash-recover", 1);
}
