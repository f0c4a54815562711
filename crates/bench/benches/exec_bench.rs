//! Micro-benchmarks of the execution stage's state map: building the
//! genesis state and hashing it once, the root after a block's worth of
//! writes at growing state sizes (the row that shows whether the root
//! scales with the writes or with the state), and applying a block.
//!
//! Run with: `cargo bench -p fireledger-bench --bench exec_bench`

use fireledger_bench::quickbench::{bench, section};
use fireledger_crypto::{CryptoPool, SimKeyStore};
use fireledger_exec::{execute_block, Account, StateAccess, StateMachine};
use fireledger_types::{Bytes, DetRng, Transaction, TxOp};

/// Writes per measured root: about what one `pipeline-n4` block touches.
const TOUCHES: u64 = 64;

fn main() {
    let pool = CryptoPool::inline(SimKeyStore::generate(4, 0).shared());
    let (mut txs, mut hashes) = (Vec::new(), Vec::new());

    section("genesis build + first root");
    for accounts in [4096u64, 65_536] {
        bench(&format!("genesis+first_root/{accounts}"), || {
            StateMachine::with_genesis(accounts, 1).root_with_pool(&pool, &mut txs, &mut hashes)
        });
    }

    section(&format!(
        "{TOUCHES} distinct accounts rewritten, then the root"
    ));
    for accounts in [1024u64, 4096, 65_536] {
        let mut state = StateMachine::with_genesis(accounts, 1);
        state.root_with_pool(&pool, &mut txs, &mut hashes);
        let mut rng = DetRng::seed_from_u64(accounts);
        let mut stamp = 1u64;
        bench(&format!("touch{TOUCHES}+root/{accounts}"), || {
            // A fresh balance every pass, so every write changes its leaf;
            // a random stride start, so passes do not share a hot path.
            stamp += 1;
            let first = rng.gen_below(accounts);
            for i in 0..TOUCHES {
                let id = (first + i * (accounts / TOUCHES)) % accounts;
                state.set_account(
                    id,
                    Account {
                        balance: stamp,
                        nonce: 0,
                    },
                );
            }
            state.root_with_pool(&pool, &mut txs, &mut hashes)
        });
    }

    // Transfers consume nonces, so a block cannot be replayed against the
    // state it already changed: each pass clones the genesis state once
    // (amortised over the rounds) and applies a pre-built run of blocks.
    const ROUNDS: u64 = 256;
    section(&format!(
        "execute_block x{ROUNDS}, 100 disjoint ops each over 4096 accounts"
    ));
    let genesis = StateMachine::with_genesis(4096, 1 << 40);
    let blocks: Vec<Vec<Transaction>> = (0..ROUNDS)
        .map(|round| {
            // Half self-transfers with the right nonce, half puts of a
            // value that changes every round: all 100 ops apply and no two
            // share a key.
            (0..100u64)
                .map(|i| {
                    let op = if i % 2 == 0 {
                        TxOp::Transfer {
                            from: i * 40,
                            to: i * 40,
                            amount: 1,
                            nonce: round,
                        }
                    } else {
                        TxOp::KvPut {
                            key: i,
                            value: Bytes::from(round.to_be_bytes().to_vec()),
                        }
                    };
                    Transaction::new(0, round * 100 + i, op.encode_payload())
                })
                .collect()
        })
        .collect();
    bench(&format!("execute_block/100_disjoint_x{ROUNDS}"), || {
        let mut state = genesis.clone();
        for block in &blocks {
            std::hint::black_box(execute_block(&mut state, block, 1));
        }
        state.kv_count()
    });
}
