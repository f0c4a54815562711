//! The pipelined executor: a shared handle consensus commits blocks into.
//!
//! [`ExecShared`] is the seam between ordering and execution. The consensus
//! layer enqueues each block at the moment it is *delivered* (committed,
//! immutable — execution never speculates and never rolls back), and one of
//! two drivers drains the queue:
//!
//! * **inline** (no stage attached — the simulator's mode): every enqueue
//!   executes immediately on the caller, so execution interleaves with the
//!   event loop at deterministic points and simulated runs stay
//!   bit-identical across hosts and thread counts;
//! * **stage thread** (threads/tcp runtimes): a dedicated per-node thread
//!   blocks on the queue and executes behind the commit frontier, which is
//!   the pipelining — ordering round `k+1` overlaps executing round `k`.
//!
//! A proposer reads [`ExecShared::prefix_root`] to stamp the lagged root
//! into the next header it builds. If the stage thread has not reached that
//! round yet, the call *work-steals* — it drains the queue inline up to the
//! needed round instead of blocking on the stage — so the consensus loop
//! can always make progress and a slow stage degrades throughput, never
//! liveness (and never deadlocks: the computation is bounded and owned by
//! whoever holds the lock).
//!
//! Roots carried in delivered headers are cross-checked against locally
//! executed roots ([`ExecShared::expect_prefix`]): a divergence is a typed,
//! observable fault — counted, detailed, and surfaced — never a silent
//! fork.

use crate::apply::execute_block;
use crate::state::StateMachine;
use fireledger_crypto::CryptoPool;
use fireledger_types::{Block, Hash, Receipt, Transaction};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Configuration for the execution stage (see
/// `ClusterBuilder::with_execution`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads for the conflict-partitioned apply; `0` means serial
    /// (width 1). Every width computes identical results — this trades
    /// latency only.
    pub apply_width: usize,
    /// Accounts `0..genesis_accounts` exist from round 0 with
    /// `genesis_balance` each, so transfer workloads have accounts to move
    /// funds between. Part of the deterministic genesis: every replica
    /// derives the same base state and base root.
    pub genesis_accounts: u64,
    /// Initial balance of each genesis account.
    pub genesis_balance: u64,
    /// How many per-round roots to retain for lagged-root lookups and
    /// cross-checks; older roots are pruned.
    pub root_retention: u64,
    /// Bound on the stage queue (`0` = unbounded). With a stage attached,
    /// an [`ExecShared::enqueue`] against a full queue **blocks** until the
    /// stage frees a slot — a lagging executor back-pressures block
    /// assembly instead of growing the queue without limit. Inline mode
    /// (no stage) never queues, so the bound is moot there.
    pub max_queue: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            apply_width: 0,
            genesis_accounts: 0,
            genesis_balance: 0,
            root_retention: 4096,
            max_queue: 4096,
        }
    }
}

impl ExecConfig {
    /// A config with `accounts` genesis accounts holding `balance` each.
    pub fn with_genesis(accounts: u64, balance: u64) -> Self {
        ExecConfig {
            genesis_accounts: accounts,
            genesis_balance: balance,
            ..ExecConfig::default()
        }
    }
}

/// The round `f + 3` lag between a header and the executed prefix whose
/// root it carries.
///
/// Overlord lags execution one block behind proposal; under BBFC(`f+1`)
/// finality the generalization is: when the proposer of round `k` builds
/// its header (on the piggyback vote path of round `k−1`), the newest
/// *definite* — hence delivered, hence executable — round is exactly
/// `k − (f+3)`. The header for round `k` therefore carries the state root
/// after executing delivered rounds `0 ..= k−(f+3)`; for `k < f+3` it
/// carries the genesis root. The rule is a pure function of `k`, so every
/// correct replica predicts and cross-checks the same root for the same
/// header on every runtime.
pub fn root_lag(f: u32) -> u64 {
    f as u64 + 3
}

/// The executed prefix a header at round `k` commits to under `lag`:
/// `None` = the genesis (empty-prefix) root, `Some(j)` = rounds `0..=j`.
pub fn prefix_for_header(k: u64, lag: u64) -> Option<u64> {
    k.checked_sub(lag)
}

/// Counters and identity facts about one executor, snapshot via
/// [`ExecShared::stats`]. All fields are deterministic in simulated runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Committed blocks executed.
    pub executed_blocks: u64,
    /// Transactions executed (every ordered tx, opaque fillers included).
    pub executed_txs: u64,
    /// Receipts by [`Receipt::kind_index`] — bucket 0 is `Applied`.
    pub receipts: [u64; Receipt::KINDS],
    /// Root cross-checks that matched.
    pub root_checks: u64,
    /// Root cross-checks that diverged (a typed fault, never silent).
    pub root_mismatches: u64,
    /// Cross-checks deferred past the retention window (counted, uncheckable).
    pub unverifiable_claims: u64,
    /// Times a consensus-loop `prefix_root` call drained the queue itself
    /// because the stage thread was behind (work-stealing assists).
    pub inline_assists: u64,
    /// Times this executor was reset for a restart-from-disk replay.
    pub resets: u64,
    /// The newest executed round, if any block has been executed.
    pub last_round: Option<u64>,
    /// The state root after the newest executed round (the genesis root
    /// when nothing has been executed yet).
    pub last_root: Hash,
}

impl ExecStats {
    /// State transitions actually applied (receipts in the `Applied`
    /// bucket) — the paper-facing "executed transitions" unit.
    pub fn applied_transitions(&self) -> u64 {
        self.receipts[0]
    }
}

/// One recorded root divergence: what the header claimed vs what local
/// execution produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootMismatch {
    /// The executed prefix the claim was about (`None` = genesis prefix).
    pub prefix: Option<u64>,
    /// The round of the header that carried the claim.
    pub claimed_at: u64,
    /// The root the header carried.
    pub claimed: Hash,
    /// The root local execution produced.
    pub local: Hash,
}

/// The verdict of a root cross-check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClaimCheck {
    /// The claimed root equals the locally executed root.
    Match,
    /// The claimed root diverges from the locally executed root.
    Mismatch(RootMismatch),
    /// The local executor has not reached the claimed prefix yet; the check
    /// runs (and is counted) when it does.
    Deferred,
}

/// How many [`RootMismatch`] details to retain (counters keep counting).
const MAX_MISMATCH_DETAILS: usize = 16;

struct ExecCore {
    state: StateMachine,
    pool: CryptoPool,
    width: usize,
    genesis: (u64, u64),
    base_root: Hash,
    /// Rounds `0..next_round` are executed; `queue[i]` holds the block for
    /// round `next_round + i` (delivery is dense in rounds).
    next_round: u64,
    queue: VecDeque<Block>,
    /// Stage-queue bound (`0` = unbounded); see [`ExecConfig::max_queue`].
    max_queue: usize,
    /// Root after executing each round, pruned to the retention window.
    roots: BTreeMap<u64, Hash>,
    retention: u64,
    /// Claims whose prefix round is not executed yet, keyed by that round.
    pending_claims: BTreeMap<u64, Vec<(u64, Hash)>>,
    stats: ExecStats,
    mismatches: Vec<RootMismatch>,
    /// Arguments `StateMachine::root_with_pool`'s pinned signature still
    /// takes; the root no longer uses them.
    tx_scratch: Vec<Transaction>,
    hash_scratch: Vec<Hash>,
}

impl ExecCore {
    fn new(config: &ExecConfig, pool: CryptoPool) -> Self {
        let state = StateMachine::with_genesis(config.genesis_accounts, config.genesis_balance);
        let mut tx_scratch = Vec::new();
        let mut hash_scratch = Vec::new();
        let base_root = state.root_with_pool(&pool, &mut tx_scratch, &mut hash_scratch);
        ExecCore {
            state,
            pool,
            width: config.apply_width.max(1),
            genesis: (config.genesis_accounts, config.genesis_balance),
            base_root,
            next_round: 0,
            queue: VecDeque::new(),
            max_queue: config.max_queue,
            roots: BTreeMap::new(),
            retention: config.root_retention.max(8),
            pending_claims: BTreeMap::new(),
            stats: ExecStats {
                last_root: base_root,
                ..ExecStats::default()
            },
            mismatches: Vec::new(),
            tx_scratch,
            hash_scratch,
        }
    }

    /// Executes the front block of the queue. Returns false when idle.
    fn step(&mut self) -> bool {
        let Some(block) = self.queue.pop_front() else {
            return false;
        };
        let round = self.next_round;
        let receipts = execute_block(&mut self.state, &block.txs, self.width);
        for receipt in &receipts {
            self.stats.receipts[receipt.kind_index()] += 1;
        }
        self.stats.executed_txs += receipts.len() as u64;
        self.stats.executed_blocks += 1;
        let root =
            self.state
                .root_with_pool(&self.pool, &mut self.tx_scratch, &mut self.hash_scratch);
        self.roots.insert(round, root);
        // One root in, at most one out: the window holds the newest
        // `retention` rounds.
        while self
            .roots
            .first_key_value()
            .is_some_and(|(&oldest, _)| round - oldest >= self.retention)
        {
            self.roots.pop_first();
        }
        self.stats.last_round = Some(round);
        self.stats.last_root = root;
        self.next_round = round + 1;
        // Claims deferred until this round can be judged now.
        if let Some(claims) = self.pending_claims.remove(&round) {
            for (claimed_at, claimed) in claims {
                self.judge(Some(round), claimed_at, claimed, root);
            }
        }
        true
    }

    fn drain(&mut self) {
        while self.step() {}
    }

    /// Drains until `round` is executed (or the queue runs dry short of it).
    fn drain_through(&mut self, round: u64) -> bool {
        let mut assisted = false;
        while self.next_round <= round && self.step() {
            assisted = true;
        }
        if assisted {
            self.stats.inline_assists += 1;
        }
        self.next_round > round
    }

    fn local_root(&self, prefix: Option<u64>) -> Option<Hash> {
        match prefix {
            None => Some(self.base_root),
            Some(round) => self.roots.get(&round).copied(),
        }
    }

    fn judge(
        &mut self,
        prefix: Option<u64>,
        claimed_at: u64,
        claimed: Hash,
        local: Hash,
    ) -> ClaimCheck {
        self.stats.root_checks += 1;
        if claimed == local {
            return ClaimCheck::Match;
        }
        self.stats.root_mismatches += 1;
        let detail = RootMismatch {
            prefix,
            claimed_at,
            claimed,
            local,
        };
        if self.mismatches.len() < MAX_MISMATCH_DETAILS {
            self.mismatches.push(detail.clone());
        }
        ClaimCheck::Mismatch(detail)
    }

    fn reset(&mut self) {
        let resets = self.stats.resets + 1;
        *self = ExecCore::new(
            &ExecConfig {
                apply_width: self.width,
                genesis_accounts: self.genesis.0,
                genesis_balance: self.genesis.1,
                root_retention: self.retention,
                max_queue: self.max_queue,
            },
            self.pool.clone(),
        );
        self.stats.resets = resets;
    }
}

struct Inner {
    core: Mutex<ExecCore>,
    work: Condvar,
    /// Signals a producer blocked on a full stage queue that a slot freed
    /// up (the stage stepped, a work-steal drained, or teardown began).
    space: Condvar,
    stage_attached: AtomicBool,
    shutdown: AtomicBool,
}

/// A cloneable shared handle to one executor (one consensus stream's state
/// shard — under FLO each worker stream owns its own).
#[derive(Clone)]
pub struct ExecShared {
    inner: Arc<Inner>,
}

impl ExecShared {
    /// Creates an executor with no stage attached: enqueues execute inline
    /// until [`ExecShared::attach_stage`]. `pool` is only handed on to
    /// [`StateMachine::root_with_pool`], which ignores it; the apply width
    /// is [`ExecConfig::apply_width`].
    pub fn new(config: &ExecConfig, pool: CryptoPool) -> Self {
        ExecShared {
            inner: Arc::new(Inner {
                core: Mutex::new(ExecCore::new(config, pool)),
                work: Condvar::new(),
                space: Condvar::new(),
                stage_attached: AtomicBool::new(false),
                shutdown: AtomicBool::new(false),
            }),
        }
    }

    /// The root of the genesis state (the root a header carries while the
    /// executed prefix is still empty).
    pub fn base_root(&self) -> Hash {
        self.lock().base_root
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ExecCore> {
        self.inner.core.lock().expect("exec state poisoned")
    }

    /// Hands a committed block to the executor. `round` must be the next
    /// round in the dense delivery order.
    ///
    /// With no stage attached the block executes before this returns (the
    /// simulator's deterministic slicing); with a stage attached the block
    /// is queued and the stage thread is woken. When the stage queue is at
    /// its [`ExecConfig::max_queue`] bound, the call **blocks** until the
    /// stage frees a slot — this is the execution-lag back-pressure that
    /// throttles block assembly behind a slow executor. Teardown
    /// ([`ExecShared::shutdown_stage`]) releases a blocked producer; its
    /// block is dropped, which is fine — teardown's [`ExecShared::finish`]
    /// only accounts blocks that were actually delivered to the queue.
    pub fn enqueue(&self, round: u64, block: &Block) {
        let mut core = self.lock();
        let expected = core.next_round + core.queue.len() as u64;
        if round < expected {
            // A replayed duplicate (e.g. re-emitted recovered prefix);
            // executing it again would double-apply.
            return;
        }
        assert_eq!(
            round, expected,
            "non-dense delivery into executor: got round {round}, expected {expected}"
        );
        if self.inner.stage_attached.load(Ordering::Acquire) {
            // `expected` is invariant under stage steps (each pop also
            // advances `next_round`), so the density check above stays
            // valid across this wait.
            while core.max_queue > 0
                && core.queue.len() >= core.max_queue
                && !self.inner.shutdown.load(Ordering::Acquire)
            {
                core = self.inner.space.wait(core).expect("exec state poisoned");
            }
            if core.max_queue > 0 && core.queue.len() >= core.max_queue {
                return; // teardown while blocked: drop the block
            }
            core.queue.push_back(block.clone());
            drop(core);
            self.inner.work.notify_one();
        } else {
            core.queue.push_back(block.clone());
            core.drain();
        }
    }

    /// The state root after executing delivered rounds `0..=?` — `None`
    /// asks for the genesis root (always available); `Some(j)` returns
    /// `None` only when round `j` has not been *delivered* yet (or its root
    /// aged out of retention).
    ///
    /// If round `j` is delivered but not yet executed, the call drains the
    /// queue inline (work-stealing from a lagging stage thread) so a
    /// proposer is never blocked behind the stage.
    pub fn prefix_root(&self, prefix: Option<u64>) -> Option<Hash> {
        let mut core = self.lock();
        if let Some(j) = prefix {
            if core.next_round <= j {
                core.drain_through(j);
                // A work-steal shrank the queue: release blocked producers.
                self.inner.space.notify_all();
            }
        }
        core.local_root(prefix)
    }

    /// Cross-checks a root claimed by a delivered header at `claimed_at`
    /// against local execution of the same prefix.
    ///
    /// An executed prefix judges immediately; an unexecuted one defers the
    /// check to the moment the stage executes that round (still counted in
    /// [`ExecStats`]). A pruned prefix is counted unverifiable.
    pub fn expect_prefix(&self, prefix: Option<u64>, claimed_at: u64, claimed: Hash) -> ClaimCheck {
        let mut core = self.lock();
        match prefix {
            None => {
                let local = core.base_root;
                core.judge(None, claimed_at, claimed, local)
            }
            Some(j) if j < core.next_round => match core.local_root(Some(j)) {
                Some(local) => core.judge(Some(j), claimed_at, claimed, local),
                None => {
                    core.stats.unverifiable_claims += 1;
                    ClaimCheck::Deferred
                }
            },
            Some(j) => {
                core.pending_claims
                    .entry(j)
                    .or_default()
                    .push((claimed_at, claimed));
                ClaimCheck::Deferred
            }
        }
    }

    /// Marks a stage thread as attached: enqueues stop executing inline and
    /// start waking the stage instead.
    pub fn attach_stage(&self) {
        self.inner.stage_attached.store(true, Ordering::Release);
    }

    /// The stage-thread body: executes queued blocks until
    /// [`ExecShared::shutdown_stage`] is called and the queue is empty.
    ///
    /// The lock is released between blocks, so the consensus loop's
    /// enqueues and root reads interleave with bounded wait.
    pub fn run_stage(&self) {
        loop {
            let mut core = self.lock();
            while core.queue.is_empty() {
                if self.inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                core = self.inner.work.wait(core).expect("exec state poisoned");
            }
            core.step();
            drop(core);
            // The queue just shrank: release a producer blocked on the
            // bound.
            self.inner.space.notify_all();
        }
    }

    /// Asks the stage thread (if any) to exit once its queue is drained.
    pub fn shutdown_stage(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.work.notify_all();
        self.inner.space.notify_all();
    }

    /// Drains any queued blocks inline — used at teardown to make stats
    /// reflect every delivered block even if the stage was behind.
    pub fn finish(&self) {
        self.lock().drain();
        self.inner.space.notify_all();
    }

    /// Resets to genesis for a restart-from-disk replay: state, queue,
    /// roots and pending claims are dropped; the reset is counted.
    pub fn reset(&self) {
        self.lock().reset();
        self.inner.space.notify_all();
    }

    /// A snapshot of the executor's counters.
    pub fn stats(&self) -> ExecStats {
        self.lock().stats.clone()
    }

    /// Details of recorded root divergences (capped; counters keep going).
    pub fn mismatches(&self) -> Vec<RootMismatch> {
        self.lock().mismatches.clone()
    }

    /// The root after the newest executed round (genesis root when nothing
    /// executed) — the number the identity matrices compare across nodes.
    pub fn latest_root(&self) -> Hash {
        self.lock().stats.last_root
    }
}

/// Spawns a dedicated stage thread draining `shard`, returning its handle.
///
/// The thread exits after [`ExecShared::shutdown_stage`]; [`ExecStage`]
/// joins on drop so a cluster teardown cannot leak execution threads.
pub fn spawn_stage(shard: &ExecShared) -> ExecStage {
    shard.attach_stage();
    let runner = shard.clone();
    let handle = std::thread::Builder::new()
        .name("exec-stage".into())
        .spawn(move || runner.run_stage())
        .expect("spawn exec stage");
    ExecStage {
        shard: shard.clone(),
        handle: Some(handle),
    }
}

/// Join guard for a spawned execution stage thread.
pub struct ExecStage {
    shard: ExecShared,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ExecStage {
    fn drop(&mut self) {
        self.shard.shutdown_stage();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireledger_crypto::{CryptoPool, SimKeyStore};
    use fireledger_types::{BlockHeader, NodeId, Round, TxOp, WorkerId, GENESIS_HASH};
    use std::sync::Arc;

    fn pool() -> CryptoPool {
        CryptoPool::inline(Arc::new(SimKeyStore::generate(4, 0)))
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

    fn transfer(seq: u64, from: u64, to: u64, amount: u64, nonce: u64) -> Transaction {
        Transaction {
            client: from,
            seq,
            payload: TxOp::Transfer {
                from,
                to,
                amount,
                nonce,
            }
            .encode_payload(),
        }
    }

    #[test]
    fn inline_mode_executes_on_enqueue() {
        let exec = ExecShared::new(&ExecConfig::with_genesis(4, 100), pool());
        let base = exec.base_root();
        exec.enqueue(0, &block(0, vec![transfer(0, 0, 1, 10, 0)]));
        let stats = exec.stats();
        assert_eq!(stats.executed_blocks, 1);
        assert_eq!(stats.applied_transitions(), 1);
        assert_ne!(stats.last_root, base);
        assert_eq!(exec.prefix_root(None), Some(base));
        assert_eq!(exec.prefix_root(Some(0)), Some(stats.last_root));
        // An undelivered round has no root yet.
        assert_eq!(exec.prefix_root(Some(5)), None);
    }

    #[test]
    fn duplicate_replay_is_ignored_and_gaps_panic() {
        let exec = ExecShared::new(&ExecConfig::default(), pool());
        let b = block(0, vec![]);
        exec.enqueue(0, &b);
        exec.enqueue(0, &b); // replayed duplicate: ignored
        assert_eq!(exec.stats().executed_blocks, 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.enqueue(5, &block(5, vec![]));
        }));
        assert!(result.is_err(), "a delivery gap must be loud");
    }

    #[test]
    fn claims_check_immediately_or_deferred() {
        let exec = ExecShared::new(&ExecConfig::with_genesis(2, 50), pool());
        let base = exec.base_root();
        assert_eq!(exec.expect_prefix(None, 1, base), ClaimCheck::Match);
        assert!(matches!(
            exec.expect_prefix(None, 2, Hash([9; 32])),
            ClaimCheck::Mismatch(_)
        ));
        // A claim about a future round defers, then judges on execution.
        let claimed = {
            // Predict the root by running a twin executor.
            let twin = ExecShared::new(&ExecConfig::with_genesis(2, 50), pool());
            twin.enqueue(0, &block(0, vec![transfer(0, 0, 1, 5, 0)]));
            twin.latest_root()
        };
        assert_eq!(
            exec.expect_prefix(Some(0), 4, claimed),
            ClaimCheck::Deferred
        );
        exec.enqueue(0, &block(0, vec![transfer(0, 0, 1, 5, 0)]));
        let stats = exec.stats();
        assert_eq!(stats.root_checks, 3);
        assert_eq!(stats.root_mismatches, 1);
        assert_eq!(exec.mismatches().len(), 1);
    }

    #[test]
    fn bounded_queue_blocks_enqueue_until_the_stage_frees_a_slot() {
        let cfg = ExecConfig {
            max_queue: 2,
            ..ExecConfig::with_genesis(4, 1000)
        };
        let exec = ExecShared::new(&cfg, pool());
        // Attach the stage flag without running a stage thread, so the
        // queue only drains when the test says so.
        exec.attach_stage();
        exec.enqueue(0, &block(0, vec![]));
        exec.enqueue(1, &block(1, vec![]));
        assert_eq!(exec.lock().queue.len(), 2);

        // A third enqueue must block on the bound...
        let blocked = {
            let exec = exec.clone();
            std::thread::spawn(move || exec.enqueue(2, &block(2, vec![])))
        };
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert!(
            !blocked.is_finished(),
            "enqueue sailed past a full bounded queue"
        );

        // ...until a drain frees slots; the blocked producer then lands
        // its block on the (now shorter) queue.
        exec.finish();
        blocked.join().expect("blocked producer");
        assert_eq!(exec.lock().queue.len(), 1);
        exec.finish();
        assert_eq!(exec.stats().executed_blocks, 3);
        assert_eq!(exec.stats().last_round, Some(2));
    }

    #[test]
    fn teardown_releases_a_producer_blocked_on_the_bound() {
        let cfg = ExecConfig {
            max_queue: 1,
            ..ExecConfig::with_genesis(2, 10)
        };
        let exec = ExecShared::new(&cfg, pool());
        exec.attach_stage();
        exec.enqueue(0, &block(0, vec![]));
        let blocked = {
            let exec = exec.clone();
            std::thread::spawn(move || exec.enqueue(1, &block(1, vec![])))
        };
        std::thread::sleep(std::time::Duration::from_millis(40));
        assert!(!blocked.is_finished());
        // Shutdown must wake the producer, which drops its block.
        exec.shutdown_stage();
        blocked.join().expect("blocked producer");
        assert_eq!(
            exec.lock().queue.len(),
            1,
            "the dropped block was not queued"
        );
    }

    #[test]
    fn stage_thread_executes_and_work_stealing_assists() {
        let exec = ExecShared::new(&ExecConfig::with_genesis(4, 100), pool());
        let stage = spawn_stage(&exec);
        for round in 0..50u64 {
            exec.enqueue(round, &block(round, vec![transfer(round, 0, 1, 1, round)]));
        }
        // The proposer-side read must be able to answer without waiting for
        // the stage to catch up.
        let root = exec.prefix_root(Some(49));
        assert!(root.is_some());
        drop(stage);
        let stats = exec.stats();
        assert_eq!(stats.executed_blocks, 50);
        assert_eq!(stats.last_round, Some(49));
    }

    #[test]
    fn reset_restores_genesis_and_counts() {
        let exec = ExecShared::new(&ExecConfig::with_genesis(2, 10), pool());
        let base = exec.base_root();
        exec.enqueue(0, &block(0, vec![transfer(0, 0, 1, 1, 0)]));
        assert_ne!(exec.latest_root(), base);
        exec.reset();
        assert_eq!(exec.latest_root(), base);
        assert_eq!(exec.stats().resets, 1);
        assert_eq!(exec.stats().executed_blocks, 0);
        // Replay reaches the identical root.
        exec.enqueue(0, &block(0, vec![transfer(0, 0, 1, 1, 0)]));
        assert_eq!(exec.prefix_root(Some(0)), Some(exec.latest_root()));
    }

    #[test]
    fn exactly_the_last_retention_roots_stay_answerable() {
        let cfg = ExecConfig {
            root_retention: 8,
            ..ExecConfig::with_genesis(2, 1000)
        };
        let exec = ExecShared::new(&cfg, pool());
        let mut roots = Vec::new();
        for round in 0..30u64 {
            exec.enqueue(round, &block(round, vec![transfer(round, 0, 1, 1, round)]));
            roots.push(exec.latest_root());
        }
        for round in 22..30u64 {
            let root = roots[round as usize];
            assert_eq!(exec.prefix_root(Some(round)), Some(root), "round {round}");
            assert_eq!(
                exec.expect_prefix(Some(round), round + 4, root),
                ClaimCheck::Match
            );
        }
        assert_eq!(exec.stats().unverifiable_claims, 0);
        for round in 0..22u64 {
            assert_eq!(exec.prefix_root(Some(round)), None, "round {round}");
            assert_eq!(
                exec.expect_prefix(Some(round), round + 4, roots[round as usize]),
                ClaimCheck::Deferred
            );
        }
        let stats = exec.stats();
        assert_eq!(stats.unverifiable_claims, 22);
        assert_eq!((stats.root_checks, stats.root_mismatches), (8, 0));
        // The genesis root is outside the window and always answerable.
        assert_eq!(exec.prefix_root(None), Some(exec.base_root()));
    }

    #[test]
    fn lag_rule_prefixes() {
        assert_eq!(root_lag(1), 4);
        assert_eq!(prefix_for_header(0, 4), None);
        assert_eq!(prefix_for_header(3, 4), None);
        assert_eq!(prefix_for_header(4, 4), Some(0));
        assert_eq!(prefix_for_header(10, 4), Some(6));
    }
}
