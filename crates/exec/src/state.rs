//! The deterministic account/KV state machine and its canonical root.
//!
//! [`StateMachine`] holds two namespaces — accounts (balance + nonce) and a
//! raw KV store — in one authenticated map, and applies [`TxOp`]s with total,
//! deterministic semantics: every op yields exactly one [`Receipt`] and every
//! replica that applies the same ops in the same order reaches the same
//! state.
//!
//! The transition function itself is written once, generically over
//! [`StateAccess`]: [`StateMachine`] runs it over the full state, and the
//! model test in this file runs the same code over a plain-map fake, so the
//! semantics are pinned independently of the authenticated map.

use crate::trie::{Namespace, StateTrie, Value};
use fireledger_crypto::CryptoPool;
use fireledger_types::{Bytes, Hash, Receipt, Transaction, TxOp};

/// One account: a balance and a replay-protection nonce.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Account {
    /// Current balance in abstract units.
    pub balance: u64,
    /// Number of transfers this account has successfully debited.
    pub nonce: u64,
}

/// Read/write access to the subset of state an op touches.
///
/// [`StateMachine`] implements it over the full state. [`apply_op_on`] is
/// generic over this trait so the model test can drive the one transition
/// function over a plain-map fake and compare it with [`StateMachine`].
pub trait StateAccess {
    /// The account stored under `id`, if any.
    fn account(&self, id: u64) -> Option<Account>;
    /// Creates or overwrites the account under `id`.
    fn set_account(&mut self, id: u64, account: Account);
    /// The value stored under `key`, if any.
    fn kv_get(&self, key: u64) -> Option<Bytes>;
    /// Creates or overwrites the value under `key`.
    fn kv_set(&mut self, key: u64, value: Bytes);
    /// Removes `key`; removing an absent key is a no-op.
    fn kv_delete(&mut self, key: u64);
}

/// Applies one op against `view`, returning its receipt.
///
/// The guard order is part of the deterministic semantics (and pinned by
/// tests): a transfer checks existence of the debited account, existence of
/// the credited account, the nonce, then the balance — so a transfer that
/// fails several guards at once always yields the same receipt on every
/// replica.
pub fn apply_op_on<V: StateAccess>(view: &mut V, op: &TxOp) -> Receipt {
    match op {
        TxOp::CreateAccount { account, balance } => {
            if view.account(*account).is_some() {
                return Receipt::AccountExists { account: *account };
            }
            view.set_account(
                *account,
                Account {
                    balance: *balance,
                    nonce: 0,
                },
            );
            Receipt::Applied
        }
        TxOp::Transfer {
            from,
            to,
            amount,
            nonce,
        } => {
            let Some(mut src) = view.account(*from) else {
                return Receipt::UnknownAccount { account: *from };
            };
            let Some(dst) = view.account(*to) else {
                return Receipt::UnknownAccount { account: *to };
            };
            if src.nonce != *nonce {
                return Receipt::BadNonce {
                    expected: src.nonce,
                    got: *nonce,
                };
            }
            if src.balance < *amount {
                return Receipt::InsufficientFunds {
                    balance: src.balance,
                    needed: *amount,
                };
            }
            src.balance -= amount;
            src.nonce += 1;
            if from == to {
                // A self-transfer debits and credits the same account: the
                // credit lands on the already-debited balance, so only the
                // nonce advances.
                src.balance = src.balance.saturating_add(*amount);
                view.set_account(*from, src);
            } else {
                let mut dst = dst;
                dst.balance = dst.balance.saturating_add(*amount);
                view.set_account(*from, src);
                view.set_account(*to, dst);
            }
            Receipt::Applied
        }
        TxOp::KvPut { key, value } => {
            view.kv_set(*key, value.clone());
            Receipt::Applied
        }
        TxOp::KvDelete { key } => {
            view.kv_delete(*key);
            Receipt::Applied
        }
        TxOp::Cas { key, expect, swap } => {
            if view.kv_get(*key) != *expect {
                return Receipt::CasMismatch;
            }
            view.kv_set(*key, swap.clone());
            Receipt::Applied
        }
    }
}

/// The full account/KV state, held in an authenticated map
/// (`crate::trie`): a crit-bit trie whose root is a pure function of the
/// entry set and whose cached digests make a root after a block cost
/// O(touched · depth) hashes instead of O(state).
///
/// The digest cache is interior-mutable and invisible: a clone carries it
/// along, equality and `Debug` look at entries only, and the type stays
/// `Send` (but is not `Sync`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StateMachine {
    trie: StateTrie,
}

impl StateMachine {
    /// An empty state.
    pub fn new() -> Self {
        StateMachine::default()
    }

    /// A state pre-populated with accounts `0..accounts`, each holding
    /// `balance` — the deterministic genesis every replica of an
    /// exec-enabled cluster starts from, so transfer workloads have
    /// existing accounts to move funds between.
    pub fn with_genesis(accounts: u64, balance: u64) -> Self {
        let mut state = StateMachine {
            trie: StateTrie::with_capacity(usize::try_from(accounts).unwrap_or(0)),
        };
        for id in 0..accounts {
            state.set_account(id, Account { balance, nonce: 0 });
        }
        state
    }

    /// Applies one op, returning its receipt.
    pub fn apply_op(&mut self, op: &TxOp) -> Receipt {
        apply_op_on(self, op)
    }

    /// Number of live KV entries.
    pub fn kv_count(&self) -> usize {
        self.trie.len(Namespace::Kv)
    }

    /// The account stored under `id`, if any (test/inspection helper).
    pub fn account_state(&self, id: u64) -> Option<Account> {
        self.account(id)
    }

    /// Iterates the accounts in id order.
    pub fn accounts(&self) -> impl Iterator<Item = (&u64, &Account)> {
        self.trie.entries().filter_map(|(id, value)| match value {
            Value::Account(account) => Some((id, account)),
            Value::Kv(_) => None,
        })
    }

    /// The canonical state root (WIRE_FORMAT.md §12.3), rehashing only the
    /// paths written since the previous call: a pure function of the state,
    /// independent of write order.
    ///
    /// The pool and the two scratch vectors are unused; the signature is
    /// the one the repo benchmark (`benchmark/`) calls.
    pub fn root_with_pool(
        &self,
        _pool: &CryptoPool,
        _tx_scratch: &mut Vec<Transaction>,
        _hash_scratch: &mut Vec<Hash>,
    ) -> Hash {
        self.trie.root()
    }

    /// The same root recomputed from the entries alone, touching no cached
    /// digest: the reference the incremental path is tested against, and
    /// the serial reference executor's root.
    pub fn root_serial(&self) -> Hash {
        self.trie.root_from_scratch()
    }

    /// Nodes the next [`StateMachine::root_with_pool`] will hash.
    #[cfg(test)]
    pub(crate) fn dirty_nodes(&self) -> usize {
        self.trie.dirty_nodes()
    }
}

impl StateAccess for StateMachine {
    fn account(&self, id: u64) -> Option<Account> {
        match self.trie.get(Namespace::Account, id)? {
            Value::Account(account) => Some(*account),
            Value::Kv(_) => unreachable!("the tag bit keeps KV entries off account paths"),
        }
    }
    fn set_account(&mut self, id: u64, account: Account) {
        self.trie.set(id, Value::Account(account));
    }
    fn kv_get(&self, key: u64) -> Option<Bytes> {
        match self.trie.get(Namespace::Kv, key)? {
            Value::Kv(bytes) => Some(bytes.clone()),
            Value::Account(_) => unreachable!("the tag bit keeps accounts off KV paths"),
        }
    }
    fn kv_set(&mut self, key: u64, value: Bytes) {
        self.trie.set(key, Value::Kv(value));
    }
    fn kv_delete(&mut self, key: u64) {
        self.trie.remove(Namespace::Kv, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::execute_block;
    use fireledger_crypto::SimKeyStore;
    use fireledger_types::DetRng;
    use std::collections::BTreeMap;
    use std::sync::{Arc, OnceLock};

    /// The incremental root, through the signature the executor calls.
    fn cached_root(state: &StateMachine) -> Hash {
        static POOL: OnceLock<CryptoPool> = OnceLock::new();
        let pool = POOL.get_or_init(|| CryptoPool::inline(Arc::new(SimKeyStore::generate(4, 0))));
        state.root_with_pool(pool, &mut Vec::new(), &mut Vec::new())
    }

    /// The state's content as two plain sorted maps: what the ops should
    /// have produced, with no trie involved.
    #[derive(Default, Debug, PartialEq)]
    struct Model {
        accounts: BTreeMap<u64, Account>,
        kv: BTreeMap<u64, Bytes>,
    }

    impl StateAccess for Model {
        fn account(&self, id: u64) -> Option<Account> {
            self.accounts.get(&id).copied()
        }
        fn set_account(&mut self, id: u64, account: Account) {
            self.accounts.insert(id, account);
        }
        fn kv_get(&self, key: u64) -> Option<Bytes> {
            self.kv.get(&key).cloned()
        }
        fn kv_set(&mut self, key: u64, value: Bytes) {
            self.kv.insert(key, value);
        }
        fn kv_delete(&mut self, key: u64) {
            self.kv.remove(&key);
        }
    }

    impl Model {
        fn of(state: &StateMachine) -> Model {
            let mut model = Model::default();
            for (key, value) in state.trie.entries() {
                match value {
                    Value::Account(account) => model.accounts.insert(*key, *account).map(drop),
                    Value::Kv(bytes) => model.kv.insert(*key, bytes.clone()).map(drop),
                };
            }
            model
        }
    }

    /// The keys a stream draws from: dense `0..64`, or sparse across the
    /// whole `u64` range with the extremes and pairs differing only in the
    /// top or the bottom bit.
    fn key_pool(rng: &mut DetRng, dense: bool) -> Vec<u64> {
        if dense {
            return (0..64).collect();
        }
        let mut keys = vec![0, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1];
        for _ in 0..8 {
            let base = rng.next_u64();
            keys.extend([base, base ^ 1, base ^ (1 << 63)]);
        }
        keys
    }

    /// A value from a three-element alphabet, so re-putting the present
    /// value and CAS hits both happen often.
    fn small_value(rng: &mut DetRng) -> Bytes {
        Bytes::from(vec![7u8; rng.gen_below(3) as usize])
    }

    fn random_op(rng: &mut DetRng, keys: &[u64]) -> TxOp {
        let mut key = || keys[rng.gen_below(keys.len() as u64) as usize];
        let (a, b) = (key(), key());
        match rng.gen_below(8) {
            0 | 1 => TxOp::CreateAccount {
                account: a,
                balance: rng.gen_below(1000),
            },
            2 | 3 => TxOp::Transfer {
                from: a,
                to: b,
                amount: rng.gen_below(600),
                nonce: rng.gen_below(3),
            },
            4 | 5 => TxOp::KvPut {
                key: a,
                value: small_value(rng),
            },
            6 => TxOp::KvDelete { key: a },
            _ => TxOp::Cas {
                key: a,
                expect: (rng.gen_below(2) == 0).then(|| small_value(rng)),
                swap: small_value(rng),
            },
        }
    }

    /// 100 seeded streams of 300 random ops: after every op the
    /// incremental root equals the from-scratch one, and at the end of
    /// each stream the content equals the plain-map model's.
    fn check_streams(seed: u64, dense: bool) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut seen = [0u64; Receipt::KINDS];
        for stream in 0..100 {
            let keys = key_pool(&mut rng, dense);
            let mut state = StateMachine::new();
            let mut model = Model::default();
            for step in 0..300 {
                let op = random_op(&mut rng, &keys);
                let receipt = state.apply_op(&op);
                assert_eq!(receipt, apply_op_on(&mut model, &op));
                seen[receipt.kind_index()] += 1;
                assert_eq!(
                    cached_root(&state),
                    state.root_serial(),
                    "stream {stream}, step {step}, after {op:?}"
                );
            }
            assert_eq!(Model::of(&state), model, "stream {stream}");
            assert_eq!(state.trie.len(Namespace::Account), model.accounts.len());
            assert_eq!(state.kv_count(), model.kv.len());
            assert!(state.accounts().eq(model.accounts.iter()));
        }
        // The streams exercised every guard, not just the happy path.
        for receipt in [
            Receipt::Applied,
            Receipt::AccountExists { account: 0 },
            Receipt::UnknownAccount { account: 0 },
            Receipt::BadNonce {
                expected: 0,
                got: 0,
            },
            Receipt::InsufficientFunds {
                balance: 0,
                needed: 0,
            },
            Receipt::CasMismatch,
        ] {
            assert!(seen[receipt.kind_index()] > 100, "rare receipt {receipt:?}");
        }
    }

    #[test]
    fn incremental_root_equals_from_scratch_root_after_every_op_on_dense_keys() {
        check_streams(0x7121E, true);
    }

    #[test]
    fn incremental_root_equals_from_scratch_root_after_every_op_on_sparse_keys() {
        check_streams(0x5BA25E, false);
    }

    #[test]
    fn root_is_independent_of_history() {
        let mut rng = DetRng::seed_from_u64(0xB157);
        for case in 0..40 {
            let keys = key_pool(&mut rng, case % 2 == 0);
            let mut first = StateMachine::new();
            for _ in 0..200 {
                first.apply_op(&random_op(&mut rng, &keys));
            }
            // Rebuild the same entries in a shuffled order, each KV entry
            // by way of a wrong value and a delete, with stray keys put
            // and removed in between.
            let mut entries: Vec<(u64, Value)> = first
                .trie
                .entries()
                .map(|(key, value)| (*key, value.clone()))
                .collect();
            for i in (1..entries.len()).rev() {
                entries.swap(i, rng.gen_below(i as u64 + 1) as usize);
            }
            let mut second = StateMachine::new();
            for (key, value) in entries {
                let stray = rng.next_u64();
                if first.kv_get(stray).is_none() {
                    second.kv_set(stray, Bytes::from(vec![1]));
                    cached_root(&second);
                    second.kv_delete(stray);
                }
                match value {
                    Value::Account(account) => second.set_account(key, account),
                    Value::Kv(bytes) => {
                        second.kv_set(key, Bytes::from(vec![0xEE; 3]));
                        second.kv_delete(key);
                        second.kv_set(key, bytes);
                    }
                }
            }
            assert_eq!(first, second, "case {case}");
            assert_eq!(cached_root(&first), cached_root(&second), "case {case}");
            assert_eq!(cached_root(&second), second.root_serial(), "case {case}");
        }
    }

    #[test]
    fn deleting_everything_returns_the_empty_root() {
        let mut state = StateMachine::new();
        let empty = cached_root(&state);
        assert_eq!(empty, Hash([0u8; 32]));
        assert_eq!(state.root_serial(), empty);
        let keys = [0, 1, u64::MAX, 1 << 63, 12345];
        for key in keys {
            state.kv_set(key, Bytes::from(vec![key as u8]));
            assert_ne!(cached_root(&state), empty);
        }
        for key in keys {
            assert_ne!(cached_root(&state), empty);
            state.kv_delete(key);
        }
        assert_eq!(cached_root(&state), empty);
        assert_eq!(state, StateMachine::new());
        assert_eq!(state.kv_count(), 0);
    }

    #[test]
    fn single_entry_root_is_its_leaf_digest_and_namespaces_are_separated() {
        // H(0x00 ‖ tag ‖ key_be ‖ value), spelled out by hand.
        let leaf = |tag: u8, key: u64, value: &[u8]| {
            let mut pre = vec![0x00, tag];
            pre.extend(key.to_be_bytes());
            pre.extend(value);
            fireledger_crypto::hash_bytes(&pre)
        };
        let value = [9u64.to_be_bytes(), 0u64.to_be_bytes()].concat();
        let mut account = StateMachine::new();
        account.apply_op(&TxOp::CreateAccount {
            account: 5,
            balance: 9,
        });
        assert_eq!(cached_root(&account), leaf(0, 5, &value));
        // The same key and the same value bytes in the KV namespace.
        let mut kv = StateMachine::new();
        kv.kv_set(5, Bytes::from(value.clone()));
        assert_eq!(cached_root(&kv), leaf(1, 5, &value));
        assert_ne!(cached_root(&account), cached_root(&kv));
        // Both together: one inner node on the tag bit (index 0).
        kv.set_account(
            5,
            Account {
                balance: 9,
                nonce: 0,
            },
        );
        let mut pre = vec![0x01, 0];
        pre.extend(leaf(0, 5, &value).as_bytes());
        pre.extend(leaf(1, 5, &value).as_bytes());
        assert_eq!(cached_root(&kv), fireledger_crypto::hash_bytes(&pre));
    }

    #[test]
    fn only_writes_that_change_a_value_dirty_the_cache() {
        let mut state = StateMachine::with_genesis(4096, 100);
        state.kv_set(77, Bytes::from(vec![1]));
        // Genesis leaves the digests lazy: every node is still to hash.
        assert_eq!(state.dirty_nodes(), 2 * 4097 - 1);
        cached_root(&state);
        assert_eq!(state.dirty_nodes(), 0);

        // No-op writes: the present value, a failed guard, an absent key.
        state.kv_set(77, Bytes::from(vec![1]));
        state.kv_delete(78);
        assert_eq!(
            state.apply_op(&TxOp::Transfer {
                from: 3,
                to: 4,
                amount: 1,
                nonce: 9,
            }),
            Receipt::BadNonce {
                expected: 0,
                got: 9
            }
        );
        assert_eq!(state.apply_op(&TxOp::KvDelete { key: 5 }), Receipt::Applied);
        assert_eq!(
            state.apply_op(&TxOp::Cas {
                key: 77,
                expect: None,
                swap: Bytes::from(vec![2]),
            }),
            Receipt::CasMismatch
        );
        assert_eq!(state.dirty_nodes(), 0);

        // One changed account: its leaf, the 12 levels of the dense
        // 4096-account subtree, and the tag-bit node above them.
        state.apply_op(&TxOp::Transfer {
            from: 3,
            to: 3,
            amount: 1,
            nonce: 0,
        });
        assert_eq!(state.dirty_nodes(), 14);
        // A neighbour shares all but the lowest ancestor.
        state.apply_op(&TxOp::Transfer {
            from: 2,
            to: 2,
            amount: 1,
            nonce: 0,
        });
        assert_eq!(state.dirty_nodes(), 15);
        assert_eq!(cached_root(&state), state.root_serial());
        assert_eq!(state.dirty_nodes(), 0);
    }

    #[test]
    fn partitioned_write_back_of_unchanged_keys_keeps_the_cache_clean() {
        let tx = |seq: u64, op: TxOp| Transaction {
            client: 0,
            seq,
            payload: op.encode_payload(),
        };
        let bad_nonce = |seq: u64| {
            tx(
                seq,
                TxOp::Transfer {
                    from: seq,
                    to: seq + 100,
                    amount: 1,
                    nonce: 5,
                },
            )
        };
        let mut state = StateMachine::with_genesis(256, 10);
        cached_root(&state);

        // 32 disjoint failing transfers write nothing.
        let failing: Vec<Transaction> = (0..32).map(bad_nonce).collect();
        let receipts = execute_block(&mut state, &failing, 1);
        assert!(receipts
            .iter()
            .all(|r| matches!(r, Receipt::BadNonce { .. })));
        assert_eq!(state.dirty_nodes(), 0);

        // One op that applies among them dirties what it alone would.
        let mut mixed = failing;
        mixed.push(tx(
            99,
            TxOp::KvPut {
                key: 1,
                value: Bytes::from(vec![1]),
            },
        ));
        execute_block(&mut state, &mixed, 1);
        assert_eq!(state.dirty_nodes(), 2, "the new leaf and the tag node");
        assert_eq!(cached_root(&state), state.root_serial());
    }

    #[test]
    fn a_clone_diverges_independently_of_its_source() {
        let mut source = StateMachine::with_genesis(64, 100);
        source.kv_set(u64::MAX, Bytes::from(vec![1]));
        let before = cached_root(&source);
        let mut clone = source.clone();
        assert_eq!(cached_root(&clone), before);

        clone.kv_delete(u64::MAX);
        clone.set_account(
            7,
            Account {
                balance: 1,
                nonce: 1,
            },
        );
        assert_ne!(clone, source);
        assert_eq!(cached_root(&clone), clone.root_serial());
        assert_ne!(cached_root(&clone), before);
        assert_eq!(cached_root(&source), before);
        assert_eq!(source.root_serial(), before);

        source.set_account(
            8,
            Account {
                balance: 2,
                nonce: 2,
            },
        );
        assert_eq!(cached_root(&source), source.root_serial());
        assert_eq!(cached_root(&clone), clone.root_serial());
        assert_ne!(cached_root(&source), cached_root(&clone));
    }

    #[test]
    fn state_machine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<StateMachine>();
    }

    #[test]
    fn create_transfer_lifecycle() {
        let mut s = StateMachine::new();
        assert_eq!(
            s.apply_op(&TxOp::CreateAccount {
                account: 1,
                balance: 100
            }),
            Receipt::Applied
        );
        assert_eq!(
            s.apply_op(&TxOp::CreateAccount {
                account: 1,
                balance: 5
            }),
            Receipt::AccountExists { account: 1 }
        );
        assert_eq!(
            s.apply_op(&TxOp::CreateAccount {
                account: 2,
                balance: 0
            }),
            Receipt::Applied
        );
        assert_eq!(
            s.apply_op(&TxOp::Transfer {
                from: 1,
                to: 2,
                amount: 30,
                nonce: 0
            }),
            Receipt::Applied
        );
        assert_eq!(
            s.account_state(1),
            Some(Account {
                balance: 70,
                nonce: 1
            })
        );
        assert_eq!(
            s.account_state(2),
            Some(Account {
                balance: 30,
                nonce: 0
            })
        );
        // Replay of the same nonce is rejected.
        assert_eq!(
            s.apply_op(&TxOp::Transfer {
                from: 1,
                to: 2,
                amount: 30,
                nonce: 0
            }),
            Receipt::BadNonce {
                expected: 1,
                got: 0
            }
        );
        // Over-draw.
        assert_eq!(
            s.apply_op(&TxOp::Transfer {
                from: 1,
                to: 2,
                amount: 1000,
                nonce: 1
            }),
            Receipt::InsufficientFunds {
                balance: 70,
                needed: 1000
            }
        );
        // Unknown parties: debited account checked before credited.
        assert_eq!(
            s.apply_op(&TxOp::Transfer {
                from: 9,
                to: 8,
                amount: 1,
                nonce: 0
            }),
            Receipt::UnknownAccount { account: 9 }
        );
        assert_eq!(
            s.apply_op(&TxOp::Transfer {
                from: 1,
                to: 8,
                amount: 1,
                nonce: 1
            }),
            Receipt::UnknownAccount { account: 8 }
        );
    }

    #[test]
    fn zero_amount_and_self_transfers_consume_the_nonce() {
        let mut s = StateMachine::with_genesis(2, 50);
        assert_eq!(
            s.apply_op(&TxOp::Transfer {
                from: 0,
                to: 1,
                amount: 0,
                nonce: 0
            }),
            Receipt::Applied
        );
        assert_eq!(
            s.account_state(0),
            Some(Account {
                balance: 50,
                nonce: 1
            })
        );
        assert_eq!(
            s.apply_op(&TxOp::Transfer {
                from: 0,
                to: 0,
                amount: 50,
                nonce: 1
            }),
            Receipt::Applied
        );
        assert_eq!(
            s.account_state(0),
            Some(Account {
                balance: 50,
                nonce: 2
            })
        );
    }

    #[test]
    fn kv_and_cas_semantics() {
        let mut s = StateMachine::new();
        let v1 = Bytes::from(vec![1]);
        let v2 = Bytes::from(vec![2]);
        // CAS against an absent key with a Some guard fails...
        assert_eq!(
            s.apply_op(&TxOp::Cas {
                key: 7,
                expect: Some(v1.clone()),
                swap: v2.clone()
            }),
            Receipt::CasMismatch
        );
        // ...and with a None guard succeeds (create-if-absent).
        assert_eq!(
            s.apply_op(&TxOp::Cas {
                key: 7,
                expect: None,
                swap: v1.clone()
            }),
            Receipt::Applied
        );
        assert_eq!(s.kv_get(7), Some(v1.clone()));
        assert_eq!(
            s.apply_op(&TxOp::Cas {
                key: 7,
                expect: Some(v1.clone()),
                swap: v2.clone()
            }),
            Receipt::Applied
        );
        assert_eq!(s.kv_get(7), Some(v2.clone()));
        // Put / delete are unconditional; deleting twice is still Applied.
        assert_eq!(
            s.apply_op(&TxOp::KvPut { key: 8, value: v1 }),
            Receipt::Applied
        );
        assert_eq!(s.apply_op(&TxOp::KvDelete { key: 8 }), Receipt::Applied);
        assert_eq!(s.apply_op(&TxOp::KvDelete { key: 8 }), Receipt::Applied);
        assert_eq!(s.kv_get(8), None);
    }

    #[test]
    fn root_tracks_state_and_namespaces_do_not_collide() {
        let mut a = StateMachine::new();
        let empty = a.root_serial();
        a.apply_op(&TxOp::CreateAccount {
            account: 5,
            balance: 9,
        });
        let with_account = a.root_serial();
        assert_ne!(empty, with_account);

        // Same numeric key in the KV namespace must hash differently.
        let mut b = StateMachine::new();
        b.apply_op(&TxOp::KvPut {
            key: 5,
            value: Bytes::from(9u64.to_be_bytes().to_vec()),
        });
        assert_ne!(with_account, b.root_serial());

        // Rebuilding the identical state reproduces the identical root.
        let mut c = StateMachine::new();
        c.apply_op(&TxOp::CreateAccount {
            account: 5,
            balance: 9,
        });
        assert_eq!(with_account, c.root_serial());
    }

    #[test]
    fn genesis_is_deterministic() {
        assert_eq!(
            StateMachine::with_genesis(16, 100).root_serial(),
            StateMachine::with_genesis(16, 100).root_serial()
        );
        assert_ne!(
            StateMachine::with_genesis(16, 100).root_serial(),
            StateMachine::with_genesis(17, 100).root_serial()
        );
        assert_ne!(
            StateMachine::with_genesis(16, 100).root_serial(),
            StateMachine::new().root_serial()
        );
    }
}
