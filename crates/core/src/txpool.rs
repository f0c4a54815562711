//! The transaction pool feeding a FireLedger worker.
//!
//! Clients submit transactions through the FLO client manager; the pool holds
//! them until the local node's proposing turn, batches up to β of them into a
//! block, and garbage-collects transactions once they appear in a definitely
//! decided block (regardless of which node proposed them).
//!
//! ## Sharded admission
//!
//! Admission is **sharded**: the pool stripes transactions across
//! [`SHARDS`] independently-locked shards keyed by a hash of the
//! transaction identity, and `submit` takes `&self`. Client threads (or a
//! runtime ingress stage) can therefore admit transactions concurrently
//! with each other *and* with batch assembly — a submit only touches its
//! own shard's lock, never a pool-wide one, so admission no longer
//! serializes against `take_batch`. Each accepted transaction is stamped
//! with a monotonically increasing ticket, and batch assembly merges the
//! shard queues in ticket order — so the pool still hands out batches in
//! global FIFO submission order, bit-identical to the pre-sharding pool for
//! any single-threaded caller (which is what keeps simulator runs
//! deterministic).
//!
//! The paper's evaluation saturates the system by letting every proposer fill
//! its block to the maximum size with randomly generated transactions (§7.2);
//! [`TxPool::take_batch`] supports that through the `fill` parameter.

use fireledger_types::{Bytes, FillOps, Transaction, TxOp};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Number of admission shards. Eight striped locks are plenty for the
/// client-thread counts the runtimes use while keeping the ticket-order
/// merge in `take_batch` cheap (one head peek per shard per drawn
/// transaction).
pub const SHARDS: usize = 8;

/// One admission shard: a FIFO of `(ticket, transaction)` plus the
/// duplicate-suppression index of the clients striped to it — every
/// `(client, seq)` the shard ever accepted or saw decided, kept per client
/// as a [`Seqs`] so a dense sequence stream costs one entry, not one per
/// transaction.
#[derive(Debug, Default)]
struct Shard {
    queue: VecDeque<(u64, Transaction)>,
    known: HashMap<u64, Seqs>,
}

/// The exact set of one client's known sequence numbers: every seq below
/// `floor`, plus the sparse ones in `above`.
///
/// Clients number their transactions densely (fillers always do), so the
/// common insert is `seq == floor`: a counter bump that also absorbs any
/// run waiting right behind it in `above`. Seqs a pool never sees (ω
/// workers splitting one client's stream) keep the seqs past them in
/// `above`, one entry each — no more than a set of every id would hold.
#[derive(Debug, Default)]
struct Seqs {
    floor: u64,
    above: HashSet<u64>,
}

impl Seqs {
    /// Records `seq`; false when it was already known.
    fn insert(&mut self, seq: u64) -> bool {
        if seq < self.floor {
            return false;
        }
        // `floor` counts the known prefix, so it stops at `u64::MAX` (a
        // prefix through `u64::MAX` would wrap it to 0); that last seq lives
        // in `above` like any other. Below it, `floor` is never in `above`.
        if seq != self.floor || seq == u64::MAX {
            return self.above.insert(seq);
        }
        self.floor += 1;
        while self.floor != u64::MAX && self.above.remove(&self.floor) {
            self.floor += 1;
        }
        true
    }
}

/// State owned by the (single) batch assembler: the synthetic-filler
/// generator. Guarded by its own lock, which doubles as the assembly lock
/// making concurrent `take_batch` calls safe (they serialize against each
/// other, never against `submit`).
#[derive(Debug)]
struct FillerState {
    /// Synthetic-filler sequence counter (for load-generation mode).
    seq: u64,
    client: u64,
    /// The shared zeroed payload filler transactions carry: all fillers of
    /// one σ are byte-identical, so under saturated load every filler is a
    /// reference bump instead of a fresh σ-byte allocation per transaction.
    payload: Option<Bytes>,
    /// When set, fillers carry deterministic executable ops (§12.1 payloads)
    /// instead of the shared zeroed payload — each one a pure function of
    /// `(client, seq)`, which keeps saturated blocks bit-identical across
    /// runtimes while actually exercising the execution state machine.
    ops: Option<FillOps>,
}

/// The deterministic executable-filler payload for filler identity
/// `(client, seq)` under `ops`.
///
/// Even sequences put a KV value (always applies — guarantees the state
/// root moves every block); odd sequences transfer between accounts.
/// `conflict_pct` of the ops land on a 4-entry hot key/account set so
/// blocks mix hot conflict components with disjoint singletons.
fn filler_op_payload(client: u64, seq: u64, ops: FillOps) -> Bytes {
    // SplitMix64-style finalizer over the filler identity: runtime-
    // independent, allocation-free, and well spread even though client ids
    // are nearly consecutive.
    let mut h = client ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    let hot = h % 100 < ops.conflict_pct as u64;
    let accounts = ops.accounts.max(1);
    let hot_set = 4u64.min(accounts);
    if seq.is_multiple_of(2) {
        // The disjoint keyspace is deliberately bounded: a fixed keyspace
        // keeps a saturated run's working set (state map, root paths) the
        // same size however long it runs.
        let key = if hot { h % hot_set } else { 64 + (h % 256) };
        TxOp::KvPut {
            key,
            value: Bytes::from(h.to_be_bytes().to_vec()),
        }
        .encode_payload()
    } else {
        let from = h % accounts;
        // Hot ops credit a top account (a shared conflict key); disjoint
        // ops self-transfer, touching nothing but their own account.
        let to = if hot {
            accounts - 1 - (h % hot_set)
        } else {
            from
        };
        TxOp::Transfer {
            from,
            to,
            amount: 1,
            nonce: h % 4,
        }
        .encode_payload()
    }
}

/// A sharded FIFO transaction pool with duplicate suppression.
#[derive(Debug)]
pub struct TxPool {
    shards: [Mutex<Shard>; SHARDS],
    /// Global submission ticket: defines the FIFO merge order across shards.
    ticket: AtomicU64,
    /// Pending transaction count (kept outside the shards so `len` — the
    /// FLO client manager's routing signal, read per transaction — is one
    /// atomic load instead of [`SHARDS`] lock acquisitions).
    pending: AtomicUsize,
    total_submitted: AtomicU64,
    total_included: AtomicU64,
    filler: Mutex<FillerState>,
}

/// The shard a transaction maps to: a Fibonacci-hash stripe of its
/// *client* identity.
///
/// Striping by client (rather than by the full `(client, seq)` id) is what
/// makes per-client FIFO structural under concurrent admission: one
/// client's stream lives in exactly one shard, so its submission order is
/// its queue order no matter how the assembler's cross-shard merge races
/// with in-flight submits. Cross-client order is exact whenever submission
/// is quiescent or single-threaded (the simulator's case — bit-identical to
/// the pre-sharding pool) and best-effort during races, where "arrival
/// order" is not observable to begin with.
fn shard_of(id: (u64, u64)) -> usize {
    const { assert!(SHARDS.is_power_of_two()) };
    let mixed = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // Take the stripe from the hash's top bits (Fibonacci hashing mixes
    // upward); the shift is derived from SHARDS so resizing the constant
    // keeps the full shard range in use.
    (mixed >> (64 - SHARDS.trailing_zeros())) as usize
}

impl TxPool {
    /// Creates an empty pool. `filler_client` namespaces the synthetic filler
    /// transactions generated by this node so they never collide with filler
    /// generated by other nodes.
    pub fn new(filler_client: u64) -> Self {
        TxPool {
            shards: Default::default(),
            ticket: AtomicU64::new(0),
            pending: AtomicUsize::new(0),
            total_submitted: AtomicU64::new(0),
            total_included: AtomicU64::new(0),
            filler: Mutex::new(FillerState {
                seq: 0,
                client: filler_client,
                payload: None,
                ops: None,
            }),
        }
    }

    /// Builder-style switch to executable filler transactions (see
    /// [`FillOps`]): subsequent fill batches carry deterministic op
    /// payloads instead of zeroed ones.
    pub fn with_fill_ops(self, ops: Option<FillOps>) -> Self {
        self.filler.lock().expect("txpool filler").ops = ops;
        self
    }

    /// Number of pending transactions (a snapshot under concurrent use).
    pub fn len(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// True when no transaction is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total client transactions ever submitted to this pool.
    pub fn total_submitted(&self) -> u64 {
        self.total_submitted.load(Ordering::Relaxed)
    }

    /// Total transactions this pool handed to block proposals.
    pub fn total_included(&self) -> u64 {
        self.total_included.load(Ordering::Relaxed)
    }

    /// Adds a client transaction; duplicates (same client and sequence) are
    /// ignored. Returns whether the transaction was accepted.
    ///
    /// Takes `&self` and locks only the transaction's own shard: concurrent
    /// submitters on different shards never contend, and none of them waits
    /// for an in-flight `take_batch`.
    pub fn submit(&self, tx: Transaction) -> bool {
        let id = tx.id();
        let mut shard = self.shards[shard_of(id)].lock().expect("txpool shard");
        if !shard.known.entry(id.0).or_default().insert(id.1) {
            return false;
        }
        // The ticket is drawn under the shard lock, so within a shard the
        // queue is ticket-sorted (push order = ticket order); across shards
        // the assembler merges by ticket.
        let ticket = self.ticket.fetch_add(1, Ordering::Relaxed);
        shard.queue.push_back((ticket, tx));
        // The pending increment must land before the shard lock drops: a
        // racing assembler may pop this transaction the instant the lock is
        // released, and its decrement on a not-yet-incremented counter
        // would wrap `len()` to the billions.
        self.pending.fetch_add(1, Ordering::AcqRel);
        drop(shard);
        self.total_submitted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Pops the globally oldest pending transaction (minimum ticket across
    /// all shard heads), or `None` when the pool is drained.
    fn pop_oldest(&self) -> Option<Transaction> {
        loop {
            // Peek every shard head briefly; submits appending behind the
            // heads cannot change the minimum.
            let mut oldest: Option<(u64, usize)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                let shard = shard.lock().expect("txpool shard");
                if let Some((ticket, _)) = shard.queue.front() {
                    if oldest.is_none_or(|(best, _)| *ticket < best) {
                        oldest = Some((*ticket, i));
                    }
                }
            }
            let (ticket, i) = oldest?;
            let mut shard = self.shards[i].lock().expect("txpool shard");
            // The head can only have been taken by a racing assembler (the
            // filler lock prevents that) — re-check and retry to stay safe
            // regardless.
            match shard.queue.front() {
                Some((t, _)) if *t == ticket => {
                    let (_, tx) = shard.queue.pop_front().expect("head exists");
                    drop(shard);
                    self.pending.fetch_sub(1, Ordering::AcqRel);
                    return Some(tx);
                }
                _ => continue,
            }
        }
    }

    /// Takes up to `batch_size` transactions for a new block proposal, in
    /// global FIFO submission order.
    ///
    /// When `fill` is true and fewer than `batch_size` real transactions are
    /// pending, the batch is padded with synthetic transactions of `tx_size`
    /// bytes — the paper's "intensive load" mode in which every block is full.
    pub fn take_batch(&self, batch_size: usize, tx_size: usize, fill: bool) -> Vec<Transaction> {
        // The filler lock is also the assembly lock: concurrent assemblers
        // serialize here, while submitters keep flowing into the shards.
        let mut filler = self.filler.lock().expect("txpool filler");
        let mut batch = Vec::with_capacity(batch_size);
        while batch.len() < batch_size {
            match self.pop_oldest() {
                Some(tx) => batch.push(tx),
                None => break,
            }
        }
        if fill && batch.len() < batch_size {
            if let Some(ops) = filler.ops {
                while batch.len() < batch_size {
                    let payload = filler_op_payload(filler.client, filler.seq, ops);
                    let tx = Transaction::new(filler.client, filler.seq, payload);
                    filler.seq += 1;
                    batch.push(tx);
                }
            } else {
                let payload = match &filler.payload {
                    Some(p) if p.len() == tx_size => p.clone(),
                    _ => {
                        let p = Bytes::from(vec![0u8; tx_size]);
                        filler.payload = Some(p.clone());
                        p
                    }
                };
                while batch.len() < batch_size {
                    let tx = Transaction::new(filler.client, filler.seq, payload.clone());
                    filler.seq += 1;
                    batch.push(tx);
                }
            }
        }
        self.total_included
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        batch
    }

    /// Removes transactions that were just decided in somebody's block, so the
    /// local node does not re-propose them.
    ///
    /// Every decided id enters its shard's index, so late duplicates of it
    /// stay rejected. Only a shard whose queue is non-empty at that moment
    /// is filtered afterwards; under filler load every queue is empty and
    /// the whole call is one index insert per transaction.
    pub fn remove_included<'a>(&self, txs: impl IntoIterator<Item = &'a Transaction>) {
        // Consecutive transactions of a block mostly share a client, hence
        // a shard: keep its lock until the shard changes.
        let mut held: Option<(usize, MutexGuard<'_, Shard>)> = None;
        let mut queued: Vec<(usize, (u64, u64))> = Vec::new();
        for tx in txs {
            let id = tx.id();
            let i = shard_of(id);
            let shard = match &mut held {
                Some((j, shard)) if *j == i => shard,
                _ => {
                    held = None;
                    &mut held
                        .insert((i, self.shards[i].lock().expect("txpool shard")))
                        .1
                }
            };
            shard.known.entry(id.0).or_default().insert(id.1);
            if !shard.queue.is_empty() {
                queued.push((i, id));
            }
        }
        drop(held);
        if queued.is_empty() {
            return;
        }
        // Ids entered the index above, so none of them can be admitted
        // again; drop the ones already waiting in a queue.
        queued.sort_unstable_by_key(|&(i, _)| i);
        let mut removed = 0usize;
        for group in queued.chunk_by(|a, b| a.0 == b.0) {
            let ids: HashSet<(u64, u64)> = group.iter().map(|&(_, id)| id).collect();
            let mut shard = self.shards[group[0].0].lock().expect("txpool shard");
            let before = shard.queue.len();
            shard.queue.retain(|(_, t)| !ids.contains(&t.id()));
            removed += before - shard.queue.len();
        }
        if removed > 0 {
            self.pending.fetch_sub(removed, Ordering::AcqRel);
        }
    }

    /// The duplicate-suppression index's size across all shards: the
    /// number of clients it tracks and of sparse seqs they hold past their
    /// dense prefixes.
    #[cfg(test)]
    pub(crate) fn index_shape(&self) -> (usize, usize) {
        self.shards.iter().fold((0, 0), |(clients, sparse), shard| {
            let shard = shard.lock().expect("txpool shard");
            let above: usize = shard.known.values().map(|s| s.above.len()).sum();
            (clients + shard.known.len(), sparse + above)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_and_take_in_fifo_order() {
        let pool = TxPool::new(99);
        for i in 0..5 {
            assert!(pool.submit(Transaction::zeroed(1, i, 16)));
        }
        assert_eq!(pool.len(), 5);
        let batch = pool.take_batch(3, 16, false);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].seq, 0);
        assert_eq!(batch[2].seq, 2);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.total_included(), 3);
    }

    #[test]
    fn fifo_order_spans_shards() {
        // Interleave many clients so consecutive submissions land on
        // different shards; the ticket merge must still return global
        // submission order.
        let pool = TxPool::new(1_000);
        let mut expected = Vec::new();
        for i in 0..64u64 {
            let tx = Transaction::zeroed(i % 7, i / 7, 8);
            expected.push(tx.id());
            assert!(pool.submit(tx));
        }
        let batch = pool.take_batch(64, 8, false);
        let got: Vec<(u64, u64)> = batch.iter().map(|t| t.id()).collect();
        assert_eq!(got, expected, "ticket merge broke FIFO order");
    }

    #[test]
    fn duplicates_are_rejected() {
        let pool = TxPool::new(99);
        assert!(pool.submit(Transaction::zeroed(1, 7, 16)));
        assert!(!pool.submit(Transaction::zeroed(1, 7, 16)));
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.total_submitted(), 1);
    }

    #[test]
    fn fill_mode_pads_to_batch_size() {
        let pool = TxPool::new(5);
        pool.submit(Transaction::zeroed(1, 0, 512));
        let batch = pool.take_batch(10, 512, true);
        assert_eq!(batch.len(), 10);
        assert!(batch.iter().all(|t| t.payload_len() == 512));
        // Real transaction first, filler after.
        assert_eq!(batch[0].client, 1);
        assert_eq!(batch[1].client, 5);
        // Filler sequence numbers are unique across batches.
        let batch2 = pool.take_batch(5, 512, true);
        let all_ids: HashSet<_> = batch.iter().chain(batch2.iter()).map(|t| t.id()).collect();
        assert_eq!(all_ids.len(), 15);
    }

    #[test]
    fn ops_filler_emits_deterministic_executable_payloads() {
        use fireledger_types::DecodedOp;
        let ops = FillOps {
            accounts: 32,
            conflict_pct: 50,
        };
        let take = || {
            TxPool::new(77)
                .with_fill_ops(Some(ops))
                .take_batch(64, 512, true)
        };
        let batch = take();
        assert_eq!(batch.len(), 64);
        // Every filler decodes to a real op — never opaque, never malformed.
        let mut hot = 0;
        let mut disjoint = 0;
        for tx in &batch {
            match TxOp::classify_payload(&tx.payload) {
                DecodedOp::Op(TxOp::KvPut { key, .. }) => {
                    if key < 4 {
                        hot += 1;
                    } else {
                        disjoint += 1;
                    }
                }
                DecodedOp::Op(TxOp::Transfer { from, to, .. }) => {
                    assert!(from < 32 && to < 32);
                    if to == from {
                        disjoint += 1;
                    } else {
                        hot += 1;
                    }
                }
                other => panic!("filler generated a non-executable payload: {other:?}"),
            }
        }
        // The 50% conflict knob produces both kinds.
        assert!(hot > 0 && disjoint > 0, "hot {hot} disjoint {disjoint}");
        // Pure function of (client, seq): a second pool emits the same bytes.
        assert_eq!(batch, take());
        // A different filler client emits different payload streams.
        let other = TxPool::new(78)
            .with_fill_ops(Some(ops))
            .take_batch(64, 512, true);
        assert!(batch
            .iter()
            .zip(&other)
            .any(|(a, b)| a.payload != b.payload));
    }

    #[test]
    fn without_fill_empty_pool_yields_empty_batch() {
        let pool = TxPool::new(1);
        assert!(pool.take_batch(100, 512, false).is_empty());
    }

    #[test]
    fn remove_included_drops_decided_and_blocks_resubmission() {
        let pool = TxPool::new(9);
        for i in 0..4 {
            pool.submit(Transaction::zeroed(1, i, 8));
        }
        let decided = [Transaction::zeroed(1, 1, 8), Transaction::zeroed(1, 3, 8)];
        pool.remove_included(decided.iter());
        assert_eq!(pool.len(), 2);
        // A duplicate of a decided transaction is rejected even though it was
        // never in this pool's queue at removal time.
        assert!(!pool.submit(Transaction::zeroed(1, 3, 8)));
        // Unrelated transactions still flow.
        assert!(pool.submit(Transaction::zeroed(2, 0, 8)));
    }

    #[test]
    fn remove_included_with_empty_iterator_is_noop() {
        let pool = TxPool::new(9);
        pool.submit(Transaction::zeroed(1, 0, 8));
        pool.remove_included(std::iter::empty());
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn seq_index_is_exact_at_the_top_of_the_range() {
        let pool = TxPool::new(9);
        let answers: Vec<bool> = [u64::MAX, u64::MAX, u64::MAX - 1, u64::MAX - 1]
            .into_iter()
            .map(|seq| pool.submit(Transaction::zeroed(3, seq, 8)))
            .collect();
        assert_eq!(answers, [true, false, true, false]);
        // A dense prefix that runs into u64::MAX must not wrap its floor.
        let mut seqs = Seqs {
            floor: u64::MAX - 2,
            above: HashSet::new(),
        };
        for seq in [u64::MAX - 2, u64::MAX - 1, u64::MAX] {
            assert!(seqs.insert(seq), "{seq} accepted once");
            assert!(!seqs.insert(seq), "{seq} rejected twice");
        }
        assert!(!seqs.insert(0));
    }

    #[test]
    fn dense_stream_in_any_local_order_is_one_index_entry() {
        let pool = TxPool::new(9);
        // Each window of 8 seqs arrives back to front: seqs wait above the
        // floor and are absorbed as each gap closes.
        for window in 0..64u64 {
            for seq in (window * 8..window * 8 + 8).rev() {
                assert!(pool.submit(Transaction::zeroed(5, seq, 8)));
            }
        }
        assert_eq!(pool.index_shape(), (1, 0));
        let decided: Vec<Transaction> = pool.take_batch(512, 8, false);
        pool.remove_included(decided.iter());
        assert_eq!(pool.index_shape(), (1, 0));
        assert!(!pool.submit(Transaction::zeroed(5, 511, 8)));
        assert!(pool.submit(Transaction::zeroed(5, 512, 8)));
    }

    /// The pool's admission contract stated the plain way: one flat set of
    /// every id ever accepted or decided, plus the FIFO queue.
    #[derive(Default)]
    struct FlatPool {
        known: HashSet<(u64, u64)>,
        queue: VecDeque<(u64, u64)>,
    }

    impl FlatPool {
        fn submit(&mut self, id: (u64, u64)) -> bool {
            let fresh = self.known.insert(id);
            if fresh {
                self.queue.push_back(id);
            }
            fresh
        }

        fn remove_included(&mut self, ids: &[(u64, u64)]) {
            self.queue.retain(|id| !ids.contains(id));
            self.known.extend(ids);
        }
    }

    #[test]
    fn seq_index_answers_exactly_like_a_flat_id_set() {
        use fireledger_types::DetRng;
        const CLIENTS: u64 = 6;
        // One draw of a transaction id, each client with its own shape.
        fn draw(rng: &mut DetRng, cursor: &mut [u64; CLIENTS as usize]) -> (u64, u64) {
            let client = rng.gen_below(CLIENTS);
            let next = &mut cursor[client as usize];
            let seq = match client {
                // Dense, with reordering ahead of the cursor and replays
                // behind it.
                0 | 1 => match rng.gen_below(10) {
                    0..=5 => {
                        *next += 1;
                        *next - 1
                    }
                    6 | 7 => *next + rng.gen_below(8),
                    _ => next.saturating_sub(rng.gen_below(8)),
                },
                // ω = 2 routing: this pool only sees every other seq, so
                // nothing above the floor ever drains.
                2 => {
                    *next += 1;
                    2 * rng.gen_below(*next) + 1
                }
                // Sparse seqs that fill gaps from both sides.
                3 => rng.gen_below(512),
                // The top of the range, where a naive floor wraps to 0.
                4 => u64::MAX - rng.gen_below(6),
                _ => rng.next_u64(),
            };
            (client, seq)
        }
        for seed in 0..32 {
            let mut rng = DetRng::seed_from_u64(seed);
            let mut cursor = [0u64; CLIENTS as usize];
            let pool = TxPool::new(u64::MAX);
            let mut flat = FlatPool::default();
            for step in 0..3_000 {
                match rng.gen_below(10) {
                    0..=4 => {
                        let id = draw(&mut rng, &mut cursor);
                        let tx = Transaction::zeroed(id.0, id.1, 8);
                        assert_eq!(pool.submit(tx), flat.submit(id), "seed {seed} step {step}");
                    }
                    5..=7 => {
                        // A decided block: fresh ids mixed with queued ones.
                        let mut ids = Vec::new();
                        for _ in 0..=rng.gen_below(16) {
                            let queued = flat.queue.len() as u64;
                            ids.push(if queued > 0 && rng.gen_below(3) == 0 {
                                flat.queue[rng.gen_below(queued) as usize]
                            } else {
                                draw(&mut rng, &mut cursor)
                            });
                        }
                        let txs: Vec<Transaction> = ids
                            .iter()
                            .map(|&(c, s)| Transaction::zeroed(c, s, 8))
                            .collect();
                        pool.remove_included(txs.iter());
                        flat.remove_included(&ids);
                    }
                    _ => {
                        let k = rng.gen_below(8) as usize;
                        let got: Vec<(u64, u64)> = pool
                            .take_batch(k, 8, false)
                            .iter()
                            .map(|t| t.id())
                            .collect();
                        let want: Vec<(u64, u64)> =
                            flat.queue.drain(..k.min(flat.queue.len())).collect();
                        assert_eq!(got, want, "seed {seed} step {step}");
                    }
                }
                assert_eq!(pool.len(), flat.queue.len(), "seed {seed} step {step}");
            }
            // Everything the flat set holds is rejected on resubmission.
            for &(c, s) in &flat.known {
                assert!(!pool.submit(Transaction::zeroed(c, s, 8)), "seed {seed}");
            }
            // A pool's floor cannot reach u64::MAX in a test (2^64 inserts),
            // so drive one client's index from just below the top instead.
            let base = u64::MAX - 64;
            let mut seqs = Seqs {
                floor: base,
                above: HashSet::new(),
            };
            let mut flat: HashSet<u64> = HashSet::new();
            for _ in 0..500 {
                let seq = base + rng.gen_below(65);
                let fresh = !flat.contains(&seq);
                flat.insert(seq);
                assert_eq!(seqs.insert(seq), fresh, "seed {seed} seq {seq}");
            }
            assert!((0..base).step_by(1 << 58).all(|seq| !seqs.insert(seq)));
        }
    }

    #[test]
    fn concurrent_submitters_do_not_serialize_against_assembly() {
        // The sharded-admission contract: many submitter threads push
        // disjoint transactions while the assembler drains batches the
        // whole time. Nothing may be lost, duplicated, or reordered within
        // one submitter's stream.
        use std::sync::Arc;
        let pool = Arc::new(TxPool::new(42));
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 500;
        let mut handles = Vec::new();
        for client in 0..WRITERS {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                for seq in 0..PER_WRITER {
                    assert!(pool.submit(Transaction::zeroed(client, seq, 8)));
                }
            }));
        }
        // Drain concurrently with the submitters.
        let mut drained: Vec<Transaction> = Vec::new();
        while drained.len() < (WRITERS * PER_WRITER) as usize {
            drained.extend(pool.take_batch(64, 8, false));
        }
        for h in handles {
            h.join().expect("submitter panicked");
        }
        assert_eq!(pool.len(), 0);
        assert_eq!(pool.total_submitted(), WRITERS * PER_WRITER);
        // No loss, no duplication.
        let ids: HashSet<(u64, u64)> = drained.iter().map(|t| t.id()).collect();
        assert_eq!(ids.len(), drained.len(), "duplicated transaction");
        assert_eq!(ids.len(), (WRITERS * PER_WRITER) as usize);
        // Per-submitter FIFO: each client's sequence numbers appear in
        // submission order (global tickets respect each shard's push order).
        for client in 0..WRITERS {
            let seqs: Vec<u64> = drained
                .iter()
                .filter(|t| t.client == client)
                .map(|t| t.seq)
                .collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted, "client {client} reordered");
        }
    }
}
